#!/usr/bin/env python3
"""Benchmark of tweakboost: training, model I/O, explain, the CLI and verify.

    python3 bench/run.py --workload explain-demo --seed 1 --seconds 20 --trace 0

Run from the repository root. One process drives the library as a closed
loop (one caller, one thread) for --seconds, in whole rounds of the same
operations, and checks every output against bench/checker.py. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
wraps the library's public functions, reports the per-layer metrics and
writes the spans to bench/out/trace-<workload>-seed<seed>.npz.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

from checker import ModelChecker, check_verify_csv, vote  # noqa: E402
from tracing import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    n_rows: int
    K: int
    depth: int
    prune: str  # --prune spec, given alike to the library and the CLI
    rows: int  # library explains per round
    slices: int  # a round's explains are cut into this many slices ...
    saves: int  # ... and these save_model + load_model pairs,
    cli_calls: int  # `tweakboost explain` processes and VERIFY_ROWS verify calls are spread over them
    acc_floor: float  # training accuracy the checker requires


# On a shared 2-core host the CPU speed swings by a quarter within seconds,
# so rounds are short and each kind of operation is spread over the whole
# run: a metric then samples many moments of the run instead of a few.
# A round of explain-demo takes about 4 s, of train-6k 12 s, of deep-pruned 8 s.
WORKLOADS = {w.name: w for w in [
    Workload("explain-demo", 600, 100, 4, "none", 30, 3, 2, 2, 0.95),
    Workload("train-6k", 6000, 100, 4, "none", 45, 2, 2, 2, 0.85),
    Workload("deep-pruned", 600, 100, 6, "both:0.8,5,0.5", 25, 2, 2, 1, 0.95),
]}

# Training data are fixed (the demo generator's own seed, i.e. the shipped
# --demo data at 600 rows); the run's seed picks the rows that are explained
# after the first QUALITY_ROWS. Across generator seeds the models differ
# enough to move explain p50 by about 15% and the verify grid between 6k and
# 25k points.
DATA_SEED = 7
# Every run explains the same QUALITY_ROWS rows first (an order drawn with
# DATA_SEED), and cf_distance_mean averages over them alone: training is
# deterministic, so the metric then reads the same in every run and moves
# only when the explanations do, not with the seed or with how many rounds fit.
QUALITY_ROWS = 100
VERIFY_DATA = (400, 50, 3)  # rows, K, depth of the 2-feature verify model
VERIFY_ROWS = 2  # rows of the verify model; every round verifies each once, one per call
CERT_SPEC = "alpha-mass:0.8"  # certificate check where the workload does not prune
EPS_FLAGS = ["--epsilon-mode", "range_scaled", "--epsilon", "0.01", "--norm", "L2_std"]
MIN_TAIL_ROWS = QUALITY_ROWS  # explained rows per run; ten then lie beyond the 90th percentile
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tweakboost.cli; "
                "print(time.perf_counter() - t)")


class CheckFailed(Exception):
    pass


def two_feature_data(tb, n_rows: int, seed: int):
    """Columns f0 and f3 of the demo generator, labelled by a smooth rule of
    those two columns with 10% of the labels flipped."""
    demo = tb.make_demo_dataset(n_rows=n_rows, n_features=5, seed=seed)
    X = demo.rows[:, [0, 3]]
    rule = np.tanh((X[:, 0] - 50.0) / 10.0) + 0.8 * np.sin(X[:, 1]) - 0.1 > 0
    flip = np.random.default_rng(seed).random(n_rows) < 0.1
    return tb.make_dataset(X, np.where(rule != flip, 1, -1), ["f0", "f3"])


def workload_data(tb, wl: Workload):
    return tb.make_demo_dataset(n_rows=wl.n_rows, seed=DATA_SEED)


def select_kprime(tb, e, spec: tuple[str, dict], row: int) -> int | None:
    strategy, params = spec
    if strategy == "none":
        return None
    mass = tb.select_kprime_alpha_mass(e, params["mass_fraction"])
    if strategy == "alpha-mass":
        return mass.k_prime
    traj = tb.select_kprime_trajectory(e, row, params["window"], params["rel_tol"])
    return tb.combine_reports(mass, traj).k_prime


def spread(count: int, slices: int) -> list[int]:
    """How many of `count` events fall in each slice, spread evenly from the first."""
    per = [0] * slices
    for i in range(count):
        per[i * slices // count] += 1
    return per


def file_digest(path: str) -> bytes:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).digest()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TWEAKBOOST_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


class Run:
    """One workload run: inputs, the round loop, checks and the tallies."""

    def __init__(self, tb, wl: Workload, seed: int, workdir: str, tracer: Tracer | None):
        self.tb, self.wl, self.seed, self.tracer = tb, wl, seed, tracer
        self.workdir = workdir
        self.env = child_env()
        self.eps = tb.EpsilonPolicy(mode="range_scaled", value=0.01)
        self.spec = tb.cli.parse_prune_spec(wl.prune)
        self.cert_spec = tb.cli.parse_prune_spec(CERT_SPEC)
        self.csv = os.path.join(workdir, "data.csv")
        self.model_path = os.path.join(workdir, "model.json")
        self.verify_csv = os.path.join(workdir, "verify.csv")
        self.attempted = self.failed = self.wrong = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.verified: list[float] = []  # seconds per one-row verify call
        self.distances: dict[int, float] = {}  # quality row -> counterfactual distance
        self.kprimes: list[int] = []
        self.fired: list[bool] = []
        self.import_s: list[float] = []
        self.rows = None  # explain rows in order, fixed after the first model check
        self.quality_rows: set[int] = set()
        self.checker = None
        self.model_digest = None  # of the run's first saved model, once it passed its checks
        self.trajectory_bytes = 0
        self.peak_rss_mb = 0.0

    # -- bookkeeping

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any failure of one operation is counted, the run goes on
            self.failed += 1
            if isinstance(exc, CheckFailed):
                self.wrong += 1
            print(f"{self.wl.name}: {what} failed: {exc!r}", file=sys.stderr)

    def timed(self, kind: str, fn, *args, **kwargs):
        span = self.tracer.begin(kind) if self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs), time.perf_counter() - t0
        finally:
            if span is not None:
                self.tracer.finish(span)

    @staticmethod
    def check(problems: list[str]) -> None:
        if problems:
            raise CheckFailed("; ".join(problems[:3]))

    # -- inputs

    def generate_inputs(self):
        tb, wl = self.tb, self.wl
        ds = workload_data(tb, wl)
        tb.save_csv(ds, self.csv)
        n, K, depth = VERIFY_DATA
        vds = two_feature_data(tb, n, DATA_SEED)
        vpath = os.path.join(self.workdir, "verify-model.json")
        tb.save_model(tb.train_adaboost(vds, K=K, max_depth=depth, seed=self.seed), vpath)
        return ds, vds, vpath

    def setup(self) -> float:
        """Median over SETUP_REPEATS of a fresh interpreter importing the CLI
        plus this process generating the inputs."""
        totals = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env,
                                 capture_output=True, text=True, check=True, timeout=120)
            wall = time.perf_counter() - t0
            self.import_s.append(float(out.stdout))
            inputs, dt = self.timed("setup", self.generate_inputs)
            totals.append(wall + dt)
        self.ds, self.vds, self.verify_model = inputs
        # The verified rows are the same in every run, so that which rows
        # they are does not move verify_rows_per_s with the seed.
        with open(self.verify_model, encoding="utf-8") as fh:
            self.verify_rows = self.eligible_rows(ModelChecker(json.load(fh)), self.vds,
                                                  seed=DATA_SEED)[:VERIFY_ROWS]
        return _median(totals)

    @staticmethod
    def eligible_rows(checker: ModelChecker, ds, seed: int) -> np.ndarray:
        """Training rows the model predicts correctly, in a seeded order."""
        pred = np.where(checker.margins(ds.rows) > 0, 1, -1)
        rows = np.nonzero(pred == ds.labels)[0]
        return np.random.default_rng(seed).permutation(rows)

    # -- one round

    def run_round(self, r: int) -> int:
        tb, wl = self.tb, self.wl
        model = None
        with self.op("train"):
            model, dt = self.timed("train", tb.train_adaboost, self.ds, K=wl.K,
                                   max_depth=wl.depth, seed=self.seed)
            self.times["train_s"].append(dt)
        library = {}
        argv = ["explain", "--model", self.model_path, "--data", self.csv, *EPS_FLAGS,
                "--prune", wl.prune]
        saves, clis, verifies = (spread(n, wl.slices)
                                 for n in (wl.saves, wl.cli_calls, VERIFY_ROWS))
        pending = iter(self.verify_rows.tolist())
        for s in range(wl.slices):
            for _ in range(saves[s]):
                self.save_load(model)
            if s == 0:  # the run's first save picks the rows
                rows = [] if self.rows is None else [
                    int(self.rows[(r * wl.rows + j) % len(self.rows)]) for j in range(wl.rows)]
                chunks = np.array_split(np.array(rows, dtype=int), wl.slices)
            chunk = chunks[s]
            for i in chunk.tolist():
                with self.op("explain"):
                    library[i] = self.explain_op(model, i)
                if self.spec[0] == "none":
                    with self.op("certificate"):
                        self.certificate_op(model, i)
            last = chunk.tolist()[-1:]
            for _ in range(clis[s]):
                for i in last:
                    with self.op("cli explain"):
                        self.cli_op(argv + ["--row", str(i)], library.get(i))
            if s == wl.slices // 2:
                for i in last:
                    with self.op("in-process cli explain"):
                        self.cli_inproc_op(argv + ["--row", str(i)], library.get(i))
            for i in itertools.islice(pending, verifies[s]):
                with self.op("verify"):
                    self.verify_op(i)
        return len(rows)

    def save_load(self, model) -> None:
        """The run's first save and load are checked in full. Training is
        deterministic, so every later save must write the same bytes."""
        first = self.model_digest is None
        with self.op("save"):
            _, dt = self.timed("save", self.tb.save_model, model, self.model_path)
            self.times["model_save_s"].append(dt)
            if first:
                self.check_model()
            elif file_digest(self.model_path) != self.model_digest:
                raise CheckFailed("saved bytes differ from the run's first, checked model")
        with self.op("load"):
            loaded, dt = self.timed("load", self.tb.load_model, self.model_path)
            self.times["model_load_s"].append(dt)
            self.check_loaded(loaded, model, reserialise=first)

    def check_model(self) -> None:
        """Training checks, on the JSON just saved."""
        with open(self.model_path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
        self.trajectory_bytes = len(json.dumps(doc["trajectories"]))
        self.checker = ModelChecker(doc)
        if self.rows is None:
            fixed = self.eligible_rows(self.checker, self.ds, DATA_SEED)
            rest = np.random.default_rng(self.seed).permutation(fixed[QUALITY_ROWS:])
            self.rows = np.concatenate([fixed[:QUALITY_ROWS], rest])
            self.quality_rows = set(fixed[:QUALITY_ROWS].tolist())
        self.check(self.checker.check_training(self.ds.rows, self.ds.labels, self.wl.acc_floor))
        self.model_digest = hashlib.sha256(data).digest()

    def check_loaded(self, loaded, model, reserialise: bool) -> None:
        problems = []
        if reserialise:
            text = json.dumps(self.tb.model_to_dict(loaded))
            if hashlib.sha256(text.encode("utf-8")).digest() != file_digest(self.model_path):
                problems.append("loaded model does not re-serialise to the saved bytes")
        margins = self.tb.ensemble_margins(loaded, self.ds.rows)
        if not np.array_equal(margins, self.tb.ensemble_margins(model, self.ds.rows)):
            problems.append("loaded and trained models give different margins")
        if not np.array_equal(margins, self.checker.margins(self.ds.rows)):
            problems.append("margins differ from the walk of the saved JSON")
        self.check(problems)

    def explain_row(self, model, i: int):
        x = self.ds.rows[i]
        kp = select_kprime(self.tb, model, self.spec, i)
        res = self.tb.explain(model, x, self.eps, norm="L2_std", k_prime=kp)
        cert = None if kp is None else self.tb.margin_certificate(model, x, kp)
        return kp, res, cert

    def explain_op(self, model, i: int):
        x = self.ds.rows[i]
        (kp, res, cert), dt = self.timed("explain", self.explain_row, model, i)
        self.times["explain_ms"].append(dt * 1e3)
        problems = []
        if res.k_prime_used != kp:
            problems.append(f"k_prime_used {res.k_prime_used} != {kp}")
        if hasattr(res, "transformed"):
            problems += self.checker.check_counterfactual(
                x, res.transformed, res.source_tree, res.source_path, res.delta, res.distance)
            if i in self.quality_rows:
                self.distances[i] = res.distance
        if kp is not None:
            problems += self.checker.check_certificate(x, kp, cert)
            self.kprimes.append(kp)
            self.fired.append(bool(cert))
        if self.tracer is not None:
            pred = vote(self.checker.margin(x))
            flips = sum(c.ensemble_verdict != pred for c in self.tracer.last_candidates)
            self.tracer.counts[("explain", "flips")] += flips
        self.check(problems)
        return kp, res, cert

    def certificate_op(self, model, i: int) -> None:
        x = self.ds.rows[i]

        def certify():
            kp = select_kprime(self.tb, model, self.cert_spec, i)
            return kp, self.tb.margin_certificate(model, x, kp)

        (kp, fired), _ = self.timed("certificate", certify)
        self.kprimes.append(kp)
        self.fired.append(bool(fired))
        self.check(self.checker.check_certificate(x, kp, fired))

    def compare_cli(self, payload: dict, lib) -> list[str]:
        if lib is None:
            return ["no library explanation to compare with"]
        kp, res, cert = lib
        found = hasattr(res, "transformed")
        want = {
            "found": found,
            "counterfactual": res.transformed.tolist() if found else None,
            "distance": res.distance if found else None,
            "k_prime_used": kp,
            "n_candidates_evaluated": res.n_candidates_evaluated,
            "truncation_certificate": True if kp is None else cert,
        }
        return [f"cli {k}={payload.get(k)!r}, library {v!r}"
                for k, v in want.items() if payload.get(k) != v]

    def cli_op(self, argv: list[str], lib) -> None:
        out = os.path.join(self.workdir, "cli.json")
        cmd = [sys.executable, "-m", "tweakboost.cli", *argv, "--out", out]
        proc, dt = self.timed("cli", subprocess.run, cmd, env=self.env, capture_output=True,
                              text=True, timeout=120)
        self.times["cli_explain_s"].append(dt)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        with open(out, encoding="utf-8") as fh:
            self.check(self.compare_cli(json.load(fh), lib))

    def cli_inproc_op(self, argv: list[str], lib) -> None:
        out = os.path.join(self.workdir, "cli-inproc.json")
        code, _ = self.timed("cli_inproc", self.tb.cli.main, argv + ["--out", out])
        if code != 0:
            raise RuntimeError(f"cli.main explain returned {code}")
        with open(out, encoding="utf-8") as fh:
            self.check(self.compare_cli(json.load(fh), lib))

    def verify_op(self, i: int) -> None:
        """verify of row i of the verify model."""
        vds = self.vds
        self.tb.save_csv(self.tb.data.Dataset(rows=vds.rows[[i]], labels=vds.labels[[i]],
                                              schema=vds.schema), self.verify_csv)
        out = os.path.join(self.workdir, "verify-out.csv")
        argv = ["verify", "--model", self.verify_model, "--data", self.verify_csv,
                *EPS_FLAGS, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code, dt = self.timed("verify", self.tb.cli.main, argv)
        if code != 0:
            raise RuntimeError(f"verify returned {code}")
        self.verified.append(dt)
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        problems = check_verify_csv(text)
        n_rows = sum(1 for ln in text.splitlines() if ln[:1].isdigit())
        if n_rows != 1:
            problems.append(f"verify reported {n_rows} rows for one")
        self.check(problems)

    def rss_probe(self) -> None:
        """Peak resident set of a fresh process that trains, saves, loads and
        explains as this workload does (bench/rss_probe.py), so that the
        figure covers the library and not this process's checks."""
        cmd = [sys.executable, os.path.join(BENCH_DIR, "rss_probe.py"),
               json.dumps(asdict(self.wl)), os.path.join(self.workdir, "probe.json")]
        out = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"rss probe exit {out.returncode}: {out.stderr.strip()[-300:]}")
        self.peak_rss_mb = float(out.stdout)

    # -- metrics

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        t = self.times
        explain_ms = t["explain_ms"]
        v_time = sum(self.verified)
        return {
            "setup_s": (setup_s, "s"),
            "train_s": (_median(t["train_s"]), "s"),
            "model_save_s": (_median(t["model_save_s"]), "s"),
            "model_load_s": (_median(t["model_load_s"]), "s"),
            "model_bytes": (float(os.path.getsize(self.model_path))
                            if os.path.exists(self.model_path) else 0.0, "bytes"),
            "explain_rows_per_s": (len(explain_ms) / (sum(explain_ms) / 1e3)
                                   if explain_ms else 0.0, "1/s"),
            "explain_p50_ms": (_median(explain_ms), "ms"),
            "explain_p90_ms": (statistics.quantiles(explain_ms, n=10)[8]
                               if len(explain_ms) >= 2 else 0.0, "ms"),
            "cli_explain_s": (_median(t["cli_explain_s"]), "s"),
            "verify_rows_per_s": (len(self.verified) / v_time if v_time else 0.0, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "cf_distance_mean": (statistics.fmean(self.distances.values())
                                 if self.distances else 0.0, "std"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        s = self.tracer.summary()
        c = self.tracer.counts
        n_ops = Counter(self.tracer.op_kinds)

        def total(name, *kinds):
            return sum(s.get((name, k), (0.0, 0.0, 0))[0] for k in kinds)

        def self_time(name, kind):
            return s.get((name, kind), (0.0, 0.0, 0))[1]

        def calls(name, kind):
            return s.get((name, kind), (0.0, 0.0, 0))[2]

        def per(x, n):
            return x / n if n else 0.0

        train, rows = n_ops["train"], n_ops["explain"]
        vrows = len(self.verified)
        inproc = n_ops["cli_inproc"]
        select = sum(total(f"prune.{f}", "explain", "certificate") for f in
                     ("select_kprime_alpha_mass", "select_kprime_trajectory", "combine_reports"))
        ms = 1e3
        return {
            "cart.fit_tree_s": (per(total("cart.fit_tree", "train"), train), "s"),
            "cart.fit_tree_calls": (per(calls("cart.fit_tree", "train"), train), "count"),
            "cart.apply_tree_s": (per(total("cart.apply_tree", "train"), train), "s"),
            "cart.enumerate_paths_ms": (per(ms * total("cart.enumerate_paths", "explain"), rows), "ms"),
            "cart.path_to_box_ms": (per(ms * total("cart.path_to_box", "explain"), rows), "ms"),
            "cart.predict_tree_ms": (per(ms * total("cart.predict_tree", "explain"), rows), "ms"),
            "cart.paths_per_row": (per(c[("explain", "paths")], rows), "count"),
            "cart.infeasible_boxes_per_row": (per(c[("explain", "infeasible_boxes")], rows), "count"),
            "boost.update_weights_s": (per(total("boost.update_weights", "train"), train), "s"),
            "boost.ensemble_margins_ms": (per(ms * total("boost.ensemble_margins", "explain"), rows), "ms"),
            "boost.margin_points_per_row": (per(c[("explain", "margin_points")], rows), "count"),
            "boost.verify_margins_ms": (per(ms * total("boost.ensemble_margins", "verify"), vrows), "ms"),
            "boost.verify_margin_points_per_row": (per(c[("verify", "margin_points")], vrows), "count"),
            "boost.predict_ensemble_ms": (per(ms * total("boost.predict_ensemble", "explain"), rows), "ms"),
            "boost.model_to_dict_s": (per(total("boost.model_to_dict", "save"), n_ops["save"]), "s"),
            "boost.model_from_dict_s": (per(total("boost.model_from_dict", "load"), n_ops["load"]), "s"),
            "boost.trajectory_bytes": (float(self.trajectory_bytes), "bytes"),
            "prune.select_kprime_ms": (per(ms * select, rows), "ms"),
            "prune.margin_certificate_ms": (per(ms * total("prune.margin_certificate", "explain", "certificate"), rows), "ms"),
            "prune.k_prime_mean": (statistics.fmean(self.kprimes) if self.kprimes else 0.0, "count"),
            "prune.certificate_fired": (statistics.fmean(self.fired) if self.fired else 0.0, "share"),
            "tweak.generate_candidates_self_ms": (per(ms * self_time("tweak.generate_candidates", "explain"), rows), "ms"),
            "tweak.epsilon_transform_ms": (per(ms * total("tweak.epsilon_transform", "explain"), rows), "ms"),
            "tweak.distance_ms": (per(ms * total("tweak.distance", "explain"), rows), "ms"),
            "tweak.distance_calls_per_row": (per(calls("tweak.distance", "explain"), rows), "count"),
            "tweak.agreeing_trees_per_row": (per(calls("cart.enumerate_paths", "explain"), rows), "count"),
            "tweak.candidates_per_row": (per(c[("explain", "candidates")], rows), "count"),
            "tweak.narrow_boxes_per_row": (per(c[("explain", "narrow_boxes")], rows), "count"),
            "tweak.flips_per_row": (per(c[("explain", "flips")], rows), "count"),
            "tweak.flip_ratio": (per(c[("explain", "flips")], c[("explain", "candidates")]), "share"),
            "tweak.oracle_grid_ms": (per(ms * total("tweak.oracle_grid", "verify"), vrows), "ms"),
            "tweak.brute_force_oracle_ms": (per(ms * total("tweak.brute_force_oracle", "verify"), vrows), "ms"),
            "tweak.oracle_points_per_row": (per(c[("verify", "oracle_points")], vrows), "count"),
            "tweak.verify_distance_ms": (per(ms * total("tweak.distance", "verify"), vrows), "ms"),
            "cli.import_s": (_median(self.import_s), "s"),
            "cli.explain_inproc_ms": (per(ms * total("op:cli_inproc", "cli_inproc"), inproc), "ms"),
            "cli.verify_self_ms": (per(ms * self_time("op:verify", "verify"), vrows), "ms"),
            "data.make_demo_dataset_s": (per(total("data.make_demo_dataset", "setup"), n_ops["setup"]), "s"),
            "data.load_csv_s": (per(total("data.load_csv", "cli_inproc"), inproc), "s"),
        }


def run_workload(tb, wl: Workload, seed: int, seconds: float, trace: bool,
                 min_rows: int = MIN_TAIL_ROWS) -> dict:
    """Set up, run whole rounds until `seconds` have passed and at least
    `min_rows` rows were explained, and return the result object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            tracer.install(tb)
        run = Run(tb, wl, seed, workdir, tracer)
        setup_s = run.setup()
        start = time.perf_counter()
        explained = r = 0
        # a run whose first round explained nothing has failed; do not loop on
        while r == 0 or time.perf_counter() - start < seconds or 0 < explained < min_rows:
            explained += run.run_round(r)
            r += 1
        with run.op("rss probe"):
            run.rss_probe()
        e2e = run.end_to_end(setup_s)
        metrics = e2e
        if tracer is not None:
            metrics = run.per_layer()
            meta = {"workload": wl.name, "seed": seed, "seconds": seconds, "rounds": r,
                    "end_to_end_traced": {k: v for k, (v, _) in e2e.items()},
                    "per_layer": {k: v for k, (v, _) in metrics.items()}}
            path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.npz")
            tracer.save(path, json.dumps(meta))
            print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        return {
            "correct": run.wrong == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "tweakboost", "__init__.py")):
        raise SystemExit(f"bench: no tweakboost sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import tweakboost
    import tweakboost.cli

    return tweakboost


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    tb = import_library()
    result = run_workload(tb, WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
