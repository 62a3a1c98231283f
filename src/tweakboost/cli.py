"""Command-line surface for the tweakboost pipeline.

Subcommands: train, explain, report-alphas, report-trajectories, verify.
Configuration comes from flags alone, each with its default declared in the
parser (TWEAKBOOST_LOGLEVEL sets only the log level). Every output artifact
embeds the resolved config plus the model version string so runs are
self-describing. Exit codes are stable:

    0  success (NotFound is a result, not a failure)
    1  usage error
    2  data or model error, or an output that cannot be written
    3  training failure
    4  flip-soundness violation reported by verify
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .boost import (
    MODEL_VERSION,
    Ensemble,
    ensemble_margins,
    load_model,
    predict_ensemble,
    save_model,
    train_adaboost,
    verdicts,
    weight_trajectory,
)
from .data import (
    DataError,
    Dataset,
    load_csv,
    make_demo_dataset,
    parse_label_map,
    write_text_atomic,
)
from .prune import margin_certificate, parse_prune_spec, select_kprime
from .tweak import (
    NORMS,
    Counterfactual,
    EpsilonPolicy,
    NotFound,
    brute_force_oracle,
    explain,
    oracle_grid,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAIN = 3
EXIT_SOUNDNESS = 4

class TrainError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; 2 means data error here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_model_or_die(path: str) -> Ensemble:
    try:
        return load_model(path)
    except FileNotFoundError:
        raise DataError(f"no such model file: {path}")
    except (KeyError, TypeError, ValueError, RecursionError, OverflowError) as exc:
        raise DataError(f"cannot read model {path}: {exc}")


def _load_dataset(args) -> Dataset:
    if args.demo:
        return make_demo_dataset()
    label_map = parse_label_map(args.label_map) if args.label_map else None
    return load_csv(args.data, label_column=args.label_column, label_map=label_map)


def _report_text(config: dict, header: str, rows) -> str:
    """A CSV report: the model version and the resolved config as comment
    lines, the header, then one line per row of cells. A cell is written
    as its repr, None as empty and a bool in lower case."""
    def cell(v) -> str:
        if v is None:
            return ""
        return str(v).lower() if isinstance(v, bool) else repr(v)

    lines = [f"# model_version: {MODEL_VERSION}",
             f"# config: {json.dumps(config, sort_keys=True)}", header,
             *(",".join(map(cell, row)) for row in rows)]
    return "".join(f"{line}\n" for line in lines)


# ---------------------------------------------------------------- train


def cmd_train(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    ds = _load_dataset(args)
    try:
        e = train_adaboost(ds, K=args.k, max_depth=args.depth, seed=args.seed)
    except ValueError as exc:
        raise TrainError(str(exc))
    if e.k == 0:
        raise TrainError("no usable round: the first weak learner was no better than chance")
    save_model(e, args.out)
    acc = float((verdicts(ensemble_margins(e, ds.rows)) == ds.labels).mean())
    a = np.asarray(e.alphas)
    print(f"trained {e.k}/{args.k} rounds (depth {args.depth}, seed {args.seed}) "
          f"on {ds.n_rows} rows")
    print(f"final train accuracy: {acc:.4f}")
    print(f"alpha: min {a.min():.4f}  mean {a.mean():.4f}  max {a.max():.4f}")
    print(f"model written: {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- explain


def _resolve_instance(args) -> tuple[np.ndarray, int | None, int | None]:
    """Returns (values, training_row_or_None, label_or_None). Inline
    instances have no training row, so trajectory-based pruning cannot
    apply to them, and read no data: a data flag given with one is refused.
    The library checks the values against the model."""
    if args.instance is not None:
        for flag, value in (("--data", args.data), ("--demo", args.demo),
                            ("--label-map", args.label_map)):
            if value:
                raise ValueError(f"{flag} cannot be used with --instance")
        try:
            values = np.array([float(v) for v in args.instance.split(",")],
                              dtype=np.float64)
        except ValueError:
            raise DataError(f"cannot parse --instance {args.instance!r}")
        return values, None, None
    if args.data is None and not args.demo:
        raise ValueError("--row requires --data or --demo")
    ds = _load_dataset(args)
    if not 0 <= args.row < ds.n_rows:
        raise DataError(f"--row {args.row} out of range [0, {ds.n_rows - 1}]")
    return ds.rows[args.row].copy(), args.row, int(ds.labels[args.row])


def cmd_explain(args) -> int:
    eps = EpsilonPolicy(args.epsilon_mode, args.epsilon)
    strategy, params = parse_prune_spec(args.prune)

    e = _load_model_or_die(args.model)
    values, row, label = _resolve_instance(args)
    k_prime, notes = select_kprime(e, strategy, params, row, values, label)
    result = explain(e, values, eps, norm=args.norm, k_prime=k_prime,
                     target=args.target, label=args.label)
    pred, _ = predict_ensemble(e, values)

    config = {
        "command": "explain",
        "model": args.model,
        "row": row,
        "epsilon_mode": args.epsilon_mode,
        "epsilon": args.epsilon,
        "norm": args.norm,
        "prune": args.prune,
        "target": args.target,
        "label": args.label,
    }
    payload = {
        "model_version": MODEL_VERSION,
        "config": config,
        "original": [float(v) for v in values],
        "prediction": int(pred),
        "found": isinstance(result, Counterfactual),
        "counterfactual": None,
        "delta": [],
        "distance": None,
        "norm": args.norm,
        "epsilon_policy": {"mode": eps.mode, "value": eps.value},
        "k_prime_used": k_prime,
        "n_candidates_evaluated": result.n_candidates_evaluated,
        "truncation_certificate": (
            True if k_prime is None else margin_certificate(e, values, k_prime)
        ),
        "notes": notes,
    }
    if isinstance(result, Counterfactual):
        payload["counterfactual"] = [float(v) for v in result.transformed]
        payload["delta"] = [
            {"feature": e.schema[f].name, "index": f, "old": old, "new": new}
            for f, (old, new) in sorted(result.delta.items())
        ]
        payload["distance"] = result.distance
    else:
        payload["message"] = result.message
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        write_text_atomic(args.out, [text])
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------- reports


def cmd_report_alphas(args) -> int:
    e = _load_model_or_die(args.model)
    mass = np.cumsum(e.alphas) / e.alphas.sum()
    text = _report_text({"command": "report-alphas", "model": args.model},
                        "k,alpha,cumulative_mass",
                        zip(range(1, e.k + 1), e.alphas.tolist(), mass.tolist()))
    write_text_atomic(args.out, [text])
    print(f"alpha report written: {args.out} ({e.k} rows)")
    return EXIT_OK


def cmd_report_trajectories(args) -> int:
    e = _load_model_or_die(args.model)
    try:
        indices = [int(tok) for tok in args.instances.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse --instances {args.instances!r}")
    trajectories = [weight_trajectory(e, i) for i in indices]  # all checked before any write
    os.makedirs(args.out_dir, exist_ok=True)
    for i, w in zip(indices, trajectories):
        config = {"command": "report-trajectories", "model": args.model, "instance": i}
        text = _report_text(config, "k,w", enumerate(w.tolist()))
        path = os.path.join(args.out_dir, f"trajectory_{i}.csv")
        write_text_atomic(path, [text])
        print(f"trajectory written: {path} ({e.k + 1} rows)")
    return EXIT_OK


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    eps = EpsilonPolicy(args.epsilon_mode, args.epsilon)
    if args.n_instances < 1:
        raise ValueError(f"--n-instances must be >= 1, got {args.n_instances}")
    if args.resolution < 1:
        raise ValueError(f"--resolution must be >= 1, got {args.resolution}")
    if not (math.isfinite(args.slack) and args.slack >= 0):
        raise ValueError(f"--slack must be finite and >= 0, got {args.slack}")
    e = _load_model_or_die(args.model)
    ds = _load_dataset(args)
    n = min(args.n_instances, ds.n_rows)
    slack = args.slack

    rows = []
    violations = 0
    solvable = 0
    agreements = 0
    for i in range(n):
        x = ds.rows[i]
        res = explain(e, x, eps, norm=args.norm)
        if isinstance(res, Counterfactual):
            pred_orig, _ = predict_ensemble(e, x)
            pred_new, _ = predict_ensemble(e, res.transformed)
            if pred_new == pred_orig:
                violations += 1
                log.error("flip-soundness violation on instance %d", i)
        grid = oracle_grid(e, x, eps, resolution=args.resolution)
        oracle = brute_force_oracle(e, x, grid, norm=args.norm)
        d_e = res.distance if isinstance(res, Counterfactual) else None
        d_o = oracle.distance if isinstance(oracle, Counterfactual) else None
        if d_o is not None:
            solvable += 1
            agree = d_e is not None and abs(d_e - d_o) <= slack
        else:
            agree = d_e is None
        if agree and d_o is not None:
            agreements += 1
        if d_o is not None and d_e is not None and d_o < d_e - slack:
            log.info(
                "instance %d: oracle found a closer flip (%.6g < %.6g), "
                "a multi-tree combination outside the per-path search", i, d_o, d_e,
            )
        rows.append((i, d_e, d_o, agree))

    config = {
        "command": "verify", "model": args.model, "n_instances": n,
        "resolution": args.resolution, "epsilon_mode": args.epsilon_mode,
        "epsilon": args.epsilon, "norm": args.norm, "slack": slack,
    }
    text = _report_text(config, "instance,explain_distance,oracle_distance,agree", rows)
    if args.out:
        write_text_atomic(args.out, [text])
    sys.stdout.write(text)
    rate = agreements / solvable if solvable else 1.0
    print(f"# summary: {n} instances, {solvable} solvable, "
          f"agreement {rate:.3f}, soundness violations {violations}")
    if violations:
        return EXIT_SOUNDNESS
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_data_args(p, require_data: bool):
    g = p.add_mutually_exclusive_group(required=require_data)
    g.add_argument("--data", help="CSV file with a header row and a label column")
    g.add_argument("--demo", action="store_true",
                   help="use the bundled synthetic demo dataset")
    p.add_argument("--label-column", default="label",
                   help="name of the label column (default: %(default)s)")
    p.add_argument("--label-map",
                   help="raw-to-sign label mapping, e.g. yes=+1,no=-1")


def _add_epsilon_args(p):
    p.add_argument("--epsilon-mode", choices=["absolute", "range_scaled"],
                   default="range_scaled", help="epsilon policy mode (default: %(default)s)")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="epsilon value (default: %(default)s)")
    p.add_argument("--norm", choices=list(NORMS), default="L2_std",
                   help="distance norm (default: %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="tweakboost",
                     description="boosted-ensemble training and counterfactual explanations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an AdaBoost ensemble on a CSV or the demo data")
    _add_data_args(p, require_data=True)
    p.add_argument("--k", type=int, default=100, help="boosting rounds (default: %(default)s)")
    p.add_argument("--depth", type=int, default=4, help="max tree depth (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="config seed recorded in the model (default: %(default)s)")
    p.add_argument("--out", default="model.json", help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="counterfactual explanation for one instance")
    p.add_argument("--model", required=True, help="trained model JSON")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--row", type=int, help="row index into --data (0-based)")
    g.add_argument("--instance", help="inline comma-separated feature vector")
    _add_data_args(p, require_data=False)
    _add_epsilon_args(p)
    p.add_argument("--prune", default="none",
                   help="none | alpha-mass:F | trajectory:W,TOL | both:F,W,TOL "
                        "(default: %(default)s)")
    p.add_argument("--target", type=int, choices=[-1, 1],
                   help="required flipped class; must oppose the current prediction")
    p.add_argument("--label", type=int, choices=[-1, 1],
                   help="assert the instance's true label equals the prediction")
    p.add_argument("--out", help="write the explanation JSON here instead of stdout")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("report-alphas", help="CSV of per-round alpha and cumulative mass")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_alphas)

    p = sub.add_parser("report-trajectories",
                       help="per-instance CSVs of the stored weight trajectories")
    p.add_argument("--model", required=True)
    p.add_argument("--instances", required=True,
                   help="comma-separated training row indices, e.g. 0,5,17")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report_trajectories)

    p = sub.add_parser("verify", help="compare explain against the brute-force grid oracle")
    p.add_argument("--model", required=True)
    _add_data_args(p, require_data=True)
    p.add_argument("--n-instances", type=int, default=20,
                   help="leading data rows to check (default: %(default)s)")
    p.add_argument("--resolution", type=int, default=50,
                   help="grid points per feature for the oracle (default: %(default)s)")
    p.add_argument("--slack", type=float, default=1e-9,
                   help="distance tolerance for counting agreement (default: %(default)s)")
    _add_epsilon_args(p)
    p.add_argument("--out", help="also write the comparison CSV here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("TWEAKBOOST_LOGLEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"tweakboost: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # every other ValueError is a bad flag value
        print(f"tweakboost: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"tweakboost: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainError as exc:
        print(f"tweakboost: training failed: {exc}", file=sys.stderr)
        return EXIT_TRAIN


if __name__ == "__main__":
    sys.exit(main())
