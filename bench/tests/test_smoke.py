"""Every workload runs clean at a tiny size, and reports what BENCHMARK.json names."""

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(name):
    wl = run.WORKLOADS[name]
    return dataclasses.replace(wl, n_rows=150, K=8,
                               depth=min(wl.depth, 3), rows=2, slices=2, saves=1,
                               cli_calls=1, acc_floor=0.0)


@pytest.fixture(scope="module")
def tb():
    return run.import_library()


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_clean(tb, name):
    result = run.run_workload(tb, tiny(name), seed=1, seconds=0, trace=False, min_rows=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


def test_traced_run_reports_every_layer_metric(tb):
    result = run.run_workload(tb, tiny("deep-pruned"), seed=2, seconds=0, trace=True,
                              min_rows=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    # the wrappers are gone again
    assert tb.tweak.distance.__module__ == "tweakboost.tweak"
    assert not hasattr(tb.tweak.distance, "__wrapped__")


def test_cf_distance_mean_does_not_depend_on_the_seed(tb):
    a, b = (run.run_workload(tb, tiny("explain-demo"), seed=s, seconds=0, trace=False,
                             min_rows=1)["metrics"]["cf_distance_mean"] for s in (1, 2))
    assert a == b
