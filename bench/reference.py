#!/usr/bin/env python3
"""Reference figures for bench/README.md, printed as Markdown.

    python3 bench/reference.py

Reproduces the baseline table of ROADMAP direction 1, the K' payoff curve
on the shipped demo model and the share of each workload's model file that
the stored weight trajectories take. Single measurements: read them as the
size of things, not as gates. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import DATA_SEED, WORKLOADS, import_library  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def main() -> int:
    tb = import_library()
    demo = tb.make_demo_dataset(seed=DATA_SEED)
    model, train_s = timed(tb.train_adaboost, demo, K=100, max_depth=4)
    eps = tb.EpsilonPolicy()
    rows = range(0, 600, 12)  # 50 rows

    print("| Measurement | Measured |\n|---|---|")
    print(f"| Train, K=100, depth 4, 600 rows | {train_s:.2f} s |")
    per_round = []
    for n in (600, 6000, 30000):
        ds = tb.make_demo_dataset(n_rows=n, seed=DATA_SEED)
        m, dt = timed(tb.train_adaboost, ds, K=10, max_depth=4)
        per_round.append(f"{1e3 * dt / m.k:.0f} at {n // 1000 or n}{'k' if n >= 1000 else ''}")
    print(f"| Train, depth 4, ms/round (K=10) | {'; '.join(per_round)} |")
    times, cands = [], []
    for i in rows:
        res, dt = timed(tb.explain, model, demo.rows[i], eps)
        times.append(dt)
        cands.append(res.n_candidates_evaluated)
    print(f"| `explain` | {1e3 * statistics.median(times):.1f} ms/instance (median), "
          f"{statistics.fmean(cands):.0f} candidates |")
    kp95 = tb.select_kprime_alpha_mass(model, 0.95).k_prime
    single = [timed(tb.margin_certificate, model, x, kp95)[1] for x in demo.rows]
    _, batched = timed(tb.ensemble_margins, model, demo.rows, upto=kp95)
    print(f"| `margin_certificate` | {1e3 * statistics.fmean(single):.2f} ms per single-row "
          f"call; the margins of 600 rows batched take {1e3 * batched:.1f} ms |")
    text = json.dumps(tb.model_to_dict(model))
    print(f"| Model JSON | {len(text) / 1e6:.2f} MB |")
    kps = [tb.select_kprime_alpha_mass(model, f).k_prime for f in (0.95, 0.8, 0.5)]
    print(f"| K' at 0.95 / 0.8 / 0.5 mass | {' / '.join(map(str, kps))} of {model.k} |")

    print("\nK' payoff on the demo model (50 rows):\n")
    print("| mass | K' | candidates | candidate cut | agreement (600 rows) |")
    print("|---|---|---|---|---|")
    full = statistics.fmean(cands)
    for frac in (0.5, 0.8, 0.95):
        kp = tb.select_kprime_alpha_mass(model, frac).k_prime
        c = statistics.fmean(tb.explain(model, demo.rows[i], eps, k_prime=kp)
                             .n_candidates_evaluated for i in rows)
        agree = tb.agreement_rate(model, kp, demo)
        print(f"| {frac} | {kp} | {c:.0f} | {1 - c / full:.1%} | {agree:.3f} |")

    print("\nStored trajectories in each workload's model:\n")
    print("| workload | model bytes | trajectory bytes | share |\n|---|---|---|---|")
    for wl in WORKLOADS.values():
        ds = tb.make_demo_dataset(n_rows=wl.n_rows, seed=DATA_SEED)
        doc = tb.model_to_dict(tb.train_adaboost(ds, K=wl.K, max_depth=wl.depth))
        total = len(json.dumps(doc))
        traj = len(json.dumps(doc["trajectories"]))
        print(f"| {wl.name} | {total} | {traj} | {traj / total:.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
