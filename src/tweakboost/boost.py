"""Adaptive boosting (SAMME) over weighted CART trees.

Records everything the pruning analysis needs: stage weights alpha_k, staged
per-tree predictions, and the full post-normalization sample-weight
trajectory matrix (row 0 is the uniform w_0). That matrix is almost all
of a model file, so neither direction holds it as one piece of text:
save_model writes it one row at a time, and load_model reads the file as
bytes and leaves the matrix undecoded, as offsets into those bytes, until
something reads it. A file that is not all ASCII (save_model escapes every
non-ASCII name, so it never writes one) takes the full parse instead.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cart import FlatTrees, Tree, flatten, grow_tree, tree_from_dict, tree_to_dict
from .data import DataError, Dataset, FeatureSchema, write_text_atomic

log = logging.getLogger(__name__)

__all__ = [
    "ERR_CLAMP",
    "MODEL_VERSION",
    "Ensemble",
    "alpha",
    "update_weights",
    "train_adaboost",
    "predict_ensemble",
    "ensemble_margins",
    "staged_predictions",
    "weight_trajectory",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

# err is clamped into [ERR_CLAMP, 1-ERR_CLAMP] before the stage-weight formula,
# which is singular at err in {0,1}; separable data then yields one dominant
# tree instead of an infinite weight.
ERR_CLAMP = 1e-10

MODEL_VERSION = "tweakboost-model/1"

# rows * trees per step of ensemble_margins: bounds its (trees, rows) arrays
_MARGIN_CELLS = 1 << 16

# how save_model writes the start of the trajectory member, and load_model finds it
_TRAJECTORY_MEMBER = ', "trajectories": '


@dataclass(frozen=True)
class _TrajectoryText:
    """A model file's trajectory block, still JSON text: data[begin:end] of
    the ASCII bytes load_model read, held as offsets so that the block is
    not copied out of the file."""

    data: bytes
    begin: int
    end: int

    def decode(self) -> str:
        return str(memoryview(self.data)[self.begin:self.end], "ascii")


@dataclass
class Ensemble:
    """Ordered trees T_1..T_K with stage weights and training trajectories.

    trajectories[k][i] is instance i's normalized weight after round k
    (trajectories[0] is uniform), so the matrix has len(trees)+1 rows.
    load_model leaves it undecoded: the first read of trajectories (or
    n_train) decodes and checks it, and raises DataError when it is bad.
    Immutable by convention after training; reads are concurrency-safe.
    """

    trees: list[Tree]
    alphas: np.ndarray
    trajectories: np.ndarray
    staged_errors: np.ndarray
    schema: list[FeatureSchema]
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        deferred = isinstance(self.trajectories, _TrajectoryText)
        if deferred:
            self._trajectory_text = vars(self).pop("trajectories")
        else:
            self.trajectories = np.asarray(self.trajectories, dtype=np.float64)
        self.staged_errors = np.asarray(self.staged_errors, dtype=np.float64)
        k = len(self.trees)
        if self.alphas.shape != (k,):
            raise ValueError(f"{k} trees but {self.alphas.shape[0]} alphas")
        if self.staged_errors.shape != (k,):
            raise ValueError(f"{k} trees but {self.staged_errors.shape[0]} staged errors")
        if not deferred:
            self._check_trajectories(self.trajectories)
        if not np.all(np.isfinite(self.alphas) & (self.alphas > 0)):
            raise ValueError("alphas must be finite and positive")
        if not np.all((self.staged_errors >= 0) & (self.staged_errors < 0.5)):  # NaN fails too
            raise ValueError("staged errors must lie in [0, 0.5)")

    def _check_trajectories(self, trajectories: np.ndarray) -> None:
        k = len(self.trees)
        if trajectories.ndim != 2 or trajectories.shape[0] != k + 1:
            raise ValueError(
                f"trajectories must have K+1={k + 1} rows, got {trajectories.shape}"
            )
        if not np.all(np.abs(trajectories.sum(axis=1) - 1.0) <= 1e-9):
            raise ValueError("every trajectory row must sum to 1")

    def __getattr__(self, name):
        # Reached only when normal lookup fails: for trajectories, that is
        # until a loaded model's block is first read and stored.
        pending = vars(self).get("_trajectory_text")
        if name != "trajectories" or pending is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if isinstance(pending, _TrajectoryText):
            # to text, letting go of the file's bytes: the parse's floats are the larger peak
            pending = self._trajectory_text = pending.decode()
        try:
            trajectories = np.asarray(json.loads(pending), dtype=np.float64)
            self._check_trajectories(trajectories)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise DataError(f"cannot read the model's trajectory block: {exc}")
        self.trajectories = trajectories
        vars(self).pop("_trajectory_text", None)
        return trajectories

    @functools.cached_property
    def flat(self) -> FlatTrees:
        """The trees compiled into flat arrays, which every evaluation
        reads. Built on first use, not at load, and cached, so the trees
        must not change after that."""
        return flatten(self.trees, self.n_features)

    @property
    def k(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return len(self.schema)

    @property
    def n_train(self) -> int:
        return self.trajectories.shape[1]

    def check_arity(self, values: np.ndarray) -> None:
        if values.shape != (self.n_features,):
            raise ValueError(
                f"instance has shape {values.shape}, model expects ({self.n_features},)"
            )


def alpha(err_k: float, n_classes: int = 2) -> float:
    """Stage weight log((1-err)/err) + log(n_classes-1); err is clamped into
    [ERR_CLAMP, 1-ERR_CLAMP] first (clamping is logged). For binary
    classification the second term is log(1) = 0."""
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    e = min(max(err_k, ERR_CLAMP), 1.0 - ERR_CLAMP)
    if e != err_k:
        log.warning("stage error %r clamped to %r before weight formula", err_k, e)
    return math.log((1.0 - e) / e) + math.log(n_classes - 1)


def update_weights(w, miss, alpha_k: float) -> np.ndarray:
    """Multiply every missed instance's weight by e^{alpha_k}, then
    renormalize to sum 1. The renormalization is what downweights the
    correctly classified instances."""
    w = np.asarray(w, dtype=np.float64)
    miss = np.asarray(miss, dtype=bool)
    if w.shape != miss.shape:
        raise ValueError(f"weights shape {w.shape} != miss shape {miss.shape}")
    u = w * np.exp(alpha_k * miss)
    total = u.sum()
    if total <= 0:
        raise ValueError("degenerate weights: renormalization impossible")
    return u / total


def train_adaboost(ds: Dataset, K: int, max_depth: int, seed: int = 0) -> Ensemble:
    """SAMME loop: fit tree on current weights, measure weighted error,
    weight the tree, upweight its mistakes, repeat.

    Halts early on a perfect round (err 0 after clamp: tree kept, weight
    huge) or a worse-than-chance round (alpha <= 0: tree discarded). The
    seed is recorded in the config for provenance; the loop itself is
    deterministic and consumes no randomness.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    for cls in (-1, 1):
        if not np.any(ds.labels == cls):
            raise ValueError(f"class {cls:+d} absent from training data")

    n = ds.n_rows
    w = np.full(n, 1.0 / n)
    trees: list[Tree] = []
    alphas: list[float] = []
    errors: list[float] = []
    rows = [w.copy()]

    for k in range(1, K + 1):
        tree, signs = grow_tree(ds, w, max_depth=max_depth)
        miss = signs != ds.labels
        err = float(w[miss].sum())
        if err >= 0.5:
            log.warning(
                "round %d: weighted error %.6f >= 0.5 (stage weight <= 0); "
                "tree discarded, training halted", k, err,
            )
            break
        a = alpha(err, n_classes=2)
        trees.append(tree)
        alphas.append(a)
        errors.append(err)
        w = update_weights(w, miss, a)
        rows.append(w.copy())
        if err == 0.0:
            log.warning("round %d: perfect separation, training halted early", k)
            break

    return Ensemble(
        trees=trees,
        alphas=np.array(alphas),
        trajectories=np.array(rows),
        staged_errors=np.array(errors),
        schema=list(ds.schema),
        config={"K": K, "max_depth": max_depth, "seed": seed},
    )


def predict_ensemble(e: Ensemble, x, upto: int | None = None) -> tuple[int, float]:
    """Weighted-vote prediction and its margin sum(alpha_k * h_k(x)).

    A zero margin resolves to -1 (documented tie rule, mirroring the leaf
    rule). upto restricts the vote to the first `upto` trees.
    """
    values = np.asarray(x, dtype=np.float64)
    e.check_arity(values)
    if upto is None:
        upto = e.k
    elif not 1 <= upto <= e.k:
        raise ValueError(f"upto must be in [1, {e.k}], got {upto}")
    m = ensemble_margins(e, values[None, :], upto)[0]
    return (1 if m > 0 else -1), m


def ensemble_margins(e: Ensemble, X: np.ndarray, upto: int | None = None) -> np.ndarray:
    """Vectorized margins for a matrix of instances, summed in tree order
    from 0.0, over row blocks so that memory stays flat in the row count."""
    X = np.asarray(X, dtype=np.float64)
    if upto is None:
        upto = e.k
    m = np.zeros(X.shape[0])
    step = max(1, _MARGIN_CELLS // max(upto, 1))
    for start in range(0, X.shape[0], step):
        m[start:start + step] = vote_sum(e.alphas[:upto], e.flat.signs(X[start:start + step], upto))
    return m


def vote_sum(alphas: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sum_k alphas[k] * signs[k] over the tree axis of (k, n) signs, added
    in tree order. cumsum adds sequentially, so each margin is bit-identical
    to a loop from 0.0 (alphas @ signs is not: BLAS sums in another order)."""
    if not len(alphas):
        return np.zeros(signs.shape[1])
    return np.cumsum(alphas[:, None] * signs, axis=0)[-1]


def staged_predictions(e: Ensemble, x) -> np.ndarray:
    """Per-tree prediction h_k(x) for every round, length K."""
    values = np.asarray(x, dtype=np.float64)
    e.check_arity(values)
    return e.flat.signs(values[None, :])[:, 0]


def weight_trajectory(e: Ensemble, i: int) -> np.ndarray:
    """Training instance i's weight series w_0..w_K, the data behind the
    sample-weight evolution plots."""
    n = e.trajectories.shape[1]
    if not 0 <= i < n:
        raise IndexError(f"training instance {i} out of range [0, {n})")
    return e.trajectories[:, i].copy()


def model_to_dict(e: Ensemble) -> dict:
    """Single-document JSON form; key order fixed for byte-stable output."""
    return _model_doc(e, e.trajectories.tolist())


def _model_doc(e: Ensemble, trajectories) -> dict:
    """model_to_dict(e) with `trajectories` as its trajectory member."""
    return {
        "version": MODEL_VERSION,
        "schema": [
            {
                "name": f.name,
                "index": f.index,
                "kind": f.kind,
                "min": f.min,
                "max": f.max,
                "mean": f.mean,
                "stddev": f.stddev,
            }
            for f in e.schema
        ],
        "alphas": e.alphas.tolist(),
        "trees": [tree_to_dict(t) for t in e.trees],
        "trajectories": trajectories,
        "staged_errors": e.staged_errors.tolist(),
        "config": {
            "K": e.config.get("K"),
            "max_depth": e.config.get("max_depth"),
            "seed": e.config.get("seed"),
        },
    }


def model_from_dict(d: dict) -> Ensemble:
    """Inverse of model_to_dict. A malformed or inconsistent model (not a
    JSON object, no trees, tree nodes outside the schema's features,
    non-finite thresholds, leaf signs other than +-1, non-positive stage
    weights, staged errors outside [0, 0.5)) raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"model must be a JSON object, got {type(d).__name__}")
    version = d.get("version")
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version!r}, expected {MODEL_VERSION!r}")
    if not d["trees"]:
        raise ValueError("model has no trees")
    schema = [
        FeatureSchema(
            name=s["name"],
            index=int(s["index"]),
            kind=s.get("kind", "numeric"),
            min=float(s["min"]),
            max=float(s["max"]),
            mean=float(s["mean"]),
            stddev=float(s["stddev"]),
        )
        for s in d["schema"]
    ]
    return Ensemble(  # converts the arrays, but keeps load_model's _TrajectoryText as text
        trees=[tree_from_dict(t, len(schema)) for t in d["trees"]],
        alphas=d["alphas"],
        trajectories=d["trajectories"],
        staged_errors=d["staged_errors"],
        schema=schema,
        config=dict(d["config"]),
    )


def save_model(e: Ensemble, path: str | os.PathLike) -> None:
    """Atomic write (data.write_text_atomic) of json.dumps(model_to_dict(e)),
    streamed: the trajectory matrix is never held as one list or string."""
    write_text_atomic(path, _model_chunks(e))


def _model_chunks(e: Ensemble):
    """json.dumps(model_to_dict(e)) in pieces: the members before the
    trajectory member, its rows one by one, the members after it. The
    default separators are ", " and ": ", so the pieces join to those bytes."""
    doc = _model_doc(e, None)
    keys = list(doc)
    cut = keys.index("trajectories")
    yield json.dumps({key: doc[key] for key in keys[:cut]})[:-1] + _TRAJECTORY_MEMBER + "["
    for i, row in enumerate(e.trajectories):
        yield (", " if i else "") + json.dumps(row.tolist())
    yield "], " + json.dumps({key: doc[key] for key in keys[cut + 1:]})[1:]


def load_model(path: str | os.PathLike) -> Ensemble:
    """model_from_dict of the file's JSON, read as text mode reads it. Where
    the file is ASCII and keeps save_model's layout around the trajectory
    block, the block is left undecoded until first read (see Ensemble)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii():  # a whole-file check: slicing out the block to check it would copy it
        data = _universal_newlines(data)
        doc = _split_trajectories(data)
        if doc is not None:
            return model_from_dict(doc)
    # decoded first: json.loads of bytes would also take a UTF-8 BOM and UTF-16/32
    return model_from_dict(json.loads(_universal_newlines(data.decode("utf-8"))))


def _universal_newlines(s):
    """s (str or bytes) with each CR LF and lone CR made LF, as text mode
    reads a file: the positions in a parse error count in that text."""
    cr, lf = ("\r", "\n") if isinstance(s, str) else (b"\r", b"\n")
    return s.replace(cr + lf, lf).replace(cr, lf) if cr in s else s


def _split_trajectories(data: bytes) -> dict | None:
    """json.loads(data) with the top-level "trajectories" member kept as
    text, or None unless that provably gives what json.loads gives. The
    member, written as save_model writes it between two others, must hold
    no '"', '{', '}' or ':', so it ends at the ', "' before the next key;
    the text before it must parse as an object once '}' closes it, and the
    text after it once '{' opens it. The member then sits at the top level
    between two runs of whole members. Any other layout returns None."""
    member = _TRAJECTORY_MEMBER.encode()
    start = data.find(member)
    if start < 0:
        return None
    begin = start + len(member)
    end = data.find(b'"', begin)
    if end < 0 or data[end - 2:end] != b", " or any(data.find(c, begin, end) >= 0 for c in b"{}:"):
        return None
    try:  # parsed as str: json.loads would read bytes that start with a NUL as UTF-16/32
        doc = json.loads(data[:start].decode("ascii") + "}")
        after = json.loads("{" + data[end:].decode("ascii"))
    except (ValueError, RecursionError):
        return None
    # doc is {} when the member comes first, after a stray comma; a repeated
    # key would leave json.loads the last of its values
    if not doc or "trajectories" in doc or "trajectories" in after:
        return None
    doc.update(after)
    doc["trajectories"] = _TrajectoryText(data, begin, end - 2)
    return doc
