"""Peak resident set of one workload's library work, in a process of its own.

    python3 bench/rss_probe.py '<Workload fields as JSON>' <model path>

Generates the workload's data, trains its model, saves it to <model path>,
loads it back and explains the first ten rows with the workload's prune
spec, then prints the process's peak resident set in MB. bench/run.py
starts it once per run, after the timed rounds, for `peak_rss_mb`: the
figure then covers the interpreter, numpy and the library, and none of the
benchmark's own checks.
"""

from __future__ import annotations

import json
import sys

import run

EXPLAIN_ROWS = 10


def main(argv: list[str]) -> int:
    fields, path = argv
    wl = run.Workload(**json.loads(fields))
    tb = run.import_library()
    ds = run.workload_data(tb, wl)
    model = tb.train_adaboost(ds, K=wl.K, max_depth=wl.depth)
    tb.save_model(model, path)
    model = tb.load_model(path)
    eps = tb.EpsilonPolicy(mode="range_scaled", value=0.01)
    spec = tb.cli.parse_prune_spec(wl.prune)
    for i in range(EXPLAIN_ROWS):
        kp = run.select_kprime(tb, model, spec, i)
        tb.explain(model, ds.rows[i], eps, norm="L2_std", k_prime=kp)
    print(peak_rss_kb() / 1024)
    return 0


def peak_rss_kb() -> float:
    """This process's own peak resident set. ru_maxrss would not do: Linux
    carries it across exec, so a process started by a larger one reports at
    least its parent's peak at the moment of the fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
