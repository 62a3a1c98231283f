"""Timing wrappers around tweakboost's public functions.

A Tracer replaces a function in every tweakboost module that holds it, so
calls made across module boundaries (tweak calling cart.enumerate_paths, the
CLI calling tweak.explain) are recorded too, and restores the originals on
exit. Each call becomes a span (name, start, end, parent, operation) kept in
flat arrays; the benchmark opens one operation span around each timed call,
and a layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np


def _count_len(key):
    return lambda tracer, args, result: tracer.count(key, len(result))


def _count_if(key, pred):
    return lambda tracer, args, result: tracer.count(key, 1 if pred(result) else 0)


def _keep_candidates(tracer, args, result):
    tracer.count("candidates", len(result))
    tracer.last_candidates = result


# (module, function, hook run on the result). Hooks count the work a call did.
TARGETS = [
    ("data", "make_demo_dataset", None),
    ("data", "load_csv", None),
    ("cart", "fit_tree", None),
    ("cart", "apply_tree", None),
    ("cart", "predict_tree", None),
    ("cart", "enumerate_paths", _count_len("paths")),
    ("cart", "path_to_box", _count_if("infeasible_boxes", lambda box: not box.feasible)),
    ("boost", "train_adaboost", None),
    ("boost", "update_weights", None),
    ("boost", "predict_ensemble", None),
    ("boost", "ensemble_margins",
     lambda tracer, args, result: tracer.count("margin_points", len(result))),
    ("boost", "model_to_dict", None),
    ("boost", "model_from_dict", None),
    ("boost", "save_model", None),
    ("boost", "load_model", None),
    ("prune", "select_kprime_alpha_mass", None),
    ("prune", "select_kprime_trajectory", None),
    ("prune", "combine_reports", None),
    ("prune", "margin_certificate", None),
    ("tweak", "explain", None),
    ("tweak", "generate_candidates", _keep_candidates),
    ("tweak", "epsilon_transform", _count_if("narrow_boxes", lambda res: res is None)),
    ("tweak", "distance", None),
    ("tweak", "oracle_grid", None),
    ("tweak", "brute_force_oracle",
     lambda tracer, args, result: tracer.count("oracle_points", result.n_candidates_evaluated)),
]


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_kinds: list[str] = []
        self._op = -1
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.last_candidates = None
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float) -> None:
        kind = self.op_kinds[self._op] if self._op >= 0 else "none"
        self.counts[(kind, key)] += n

    def _wrap(self, fn, name: str, hook):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every TARGETS function wherever a tweakboost module binds it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("data", "cart", "boost", "prune", "tweak", "cli")]
        for mod_name, fn_name, hook in TARGETS:
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            original = getattr(home, fn_name)
            wrapped = self._wrap(original, f"{mod_name}.{fn_name}", hook)
            for m in modules:
                if getattr(m, fn_name, None) is original:
                    self._saved.append((m, fn_name, original))
                    setattr(m, fn_name, wrapped)

    def uninstall(self) -> None:
        for m, fn_name, original in reversed(self._saved):
            setattr(m, fn_name, original)
        self._saved.clear()

    def begin(self, kind: str) -> int:
        """Open the root span of one timed operation."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        return self._open(self._id(f"op:{kind}"))

    def finish(self, span: int) -> None:
        self._close(span)
        self._op = -1

    def summary(self) -> dict[tuple[str, str], tuple[float, float, int]]:
        """(span name, operation kind) -> (total s, self s, calls)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=dur.size)
        kinds = sorted(set(self.op_kinds)) + ["none"]
        kind_of_op = np.array([kinds.index(k) for k in self.op_kinds] + [len(kinds) - 1])
        op_kind = kind_of_op[np.frombuffer(self.op, dtype=np.int32)]  # op -1 -> "none"
        key = np.frombuffer(self.name_id, dtype=np.int32) * len(kinds) + op_kind
        size = len(self.names) * len(kinds)
        totals = np.bincount(key, weights=dur, minlength=size)
        selfs = np.bincount(key, weights=self_time, minlength=size)
        calls = np.bincount(key, minlength=size)
        return {(self.names[k // len(kinds)], kinds[k % len(kinds)]):
                (float(totals[k]), float(selfs[k]), int(calls[k]))
                for k in np.nonzero(calls)[0]}

    def save(self, path: str, meta: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op_kinds=np.array(self.op_kinds),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(meta),
        )
