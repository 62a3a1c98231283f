"""The benchmark's traced run wraps library functions by name; every name it
lists must exist, so removing one fails here and not only in a traced run."""

import importlib.util
from pathlib import Path

import tweakboost

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = {name: getattr(tweakboost, name) for name in tweakboost.__all__}
    tracer = tracing.Tracer()
    try:
        tracer.install(tweakboost)
        assert tweakboost.explain is not before["explain"]
    finally:
        tracer.uninstall()
    assert {name: getattr(tweakboost, name) for name in tweakboost.__all__} == before
