"""Adaptive boosting (SAMME) over weighted CART trees.

Records everything the pruning analysis needs: stage weights alpha_k, staged
per-tree predictions, and the full post-normalization sample-weight
trajectory matrix (row 0 is the uniform w_0). That matrix is almost all
of a model file, so neither direction holds it as one piece of text:
save_model writes every tree and every matrix row on its own, and
load_model reads the file as bytes and leaves the matrix undecoded, as a
view of those bytes, until something reads it. CR and LF are both JSON
whitespace, so that path translates no line ends. Any other file, such as
one that is not all ASCII (save_model escapes every non-ASCII name, so it
never writes one), is parsed whole from the stdlib's text mode over the
bytes read. load_model also compiles the trees straight from their JSON
into the flat form that every evaluation reads (cart.FlatTrees). Node
objects, flat trees and the trajectory matrix are Ensemble's three cached
forms, each seeded by its constructor when given and otherwise built on
first read.
"""

from __future__ import annotations

import functools
import io
import json
import logging
import math
import os
from collections.abc import Iterator

import numpy as np

from .cart import FlatTrees, Tree, _flatten_dicts, flatten, grow_tree, tree_to_dict
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

# the start of the trajectory member as save_model writes it, where load_model finds it
_TRAJECTORY_MEMBER = b', "trajectories": '


class Ensemble:
    """Ordered trees T_1..T_K with stage weights and training trajectories.

    trees, flat (the trees compiled into a cart.FlatTrees) and trajectories
    are cached properties, each seeded by the constructor with the form it
    is given, or else built on first read, once. trees is a list of node
    objects, or the trees' FlatTrees, as load_model passes them; nothing
    that evaluates the model reads trees.
    trajectories[k][i] is instance i's normalized weight after round k
    (trajectories[0] is uniform), so the matrix has K+1 rows. load_model
    passes it undecoded, as a memoryview: reads decode and check it until
    one succeeds, and each raises DataError while it is bad.
    Immutable by convention after training; reads are concurrency-safe.
    """

    def __init__(self, trees: list[Tree] | FlatTrees, alphas: np.ndarray,
                 trajectories: np.ndarray | memoryview, staged_errors: np.ndarray,
                 schema: list[FeatureSchema], config: dict | None = None):
        if isinstance(trees, FlatTrees):
            self.flat = trees
            self.k = len(trees.feature)
        else:
            self.trees = trees
            self.k = len(trees)
        self.alphas = np.asarray(alphas, dtype=np.float64)
        self.staged_errors = np.asarray(staged_errors, dtype=np.float64)
        self.schema = schema
        self.config = {} if config is None else config
        k = self.k
        if self.alphas.shape != (k,):
            raise ValueError(f"{k} trees but {self.alphas.shape[0]} alphas")
        if self.staged_errors.shape != (k,):
            raise ValueError(f"{k} trees but {self.staged_errors.shape[0]} staged errors")
        if isinstance(trajectories, memoryview):  # text is checked on first read
            self._trajectory_text = trajectories
        else:
            self.trajectories = np.asarray(trajectories, dtype=np.float64)
            self._check_trajectories(self.trajectories)
        if not np.all(np.isfinite(self.alphas) & (self.alphas > 0)):
            raise ValueError("alphas must be finite and positive")
        if not np.all((self.staged_errors >= 0) & (self.staged_errors < 0.5)):  # NaN fails too
            raise ValueError("staged errors must lie in [0, 0.5)")

    def _check_trajectories(self, trajectories: np.ndarray) -> None:
        k = self.k
        if trajectories.ndim != 2 or trajectories.shape[0] != k + 1:
            raise ValueError(
                f"trajectories must have K+1={k + 1} rows, got {trajectories.shape}"
            )
        if not np.all(np.abs(trajectories.sum(axis=1) - 1.0) <= 1e-9):
            raise ValueError("every trajectory row must sum to 1")

    @functools.cached_property
    def flat(self) -> FlatTrees:
        """The trees compiled into flat arrays, which every evaluation
        reads. A loaded model is given them; one built from node objects
        compiles them on first use, through their JSON form (cart.flatten),
        and caches them, so its trees must not change after that. A node a
        load would refuse raises its ValueError then."""
        return flatten(self.trees, self.n_features)

    @functools.cached_property
    def trees(self) -> list[Tree]:
        """The trees as node objects; a loaded model rebuilds them from flat."""
        return self.flat.to_trees()

    @functools.cached_property
    def trajectories(self) -> np.ndarray:
        """The weight trajectories; a loaded model decodes them from text."""
        pending = self._trajectory_text
        if isinstance(pending, memoryview):
            # to text, letting go of the file's bytes: the parse's floats are the larger peak
            pending = self._trajectory_text = str(pending, "ascii")
        try:
            trajectories = np.asarray(json.loads(pending), dtype=np.float64)
            self._check_trajectories(trajectories)
        except (ValueError, RecursionError, OverflowError) as exc:  # JSONDecodeError is a ValueError
            raise DataError(f"cannot read the model's trajectory block: {exc}")
        del self._trajectory_text
        return trajectories

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def instance(self, X) -> np.ndarray:
        """X as a float matrix of instances, one per row; DataError unless
        every row is a vector of the model's arity. One instance x is
        checked as [x]."""
        values = np.asarray(X, dtype=np.float64)
        if values.shape[1:] != (self.n_features,):
            raise DataError(f"instance has shape {values.shape[1:]}, model expects "
                            f"{self.n_features} features")
        return values

    def prefix(self, k: int | None) -> int:
        """The number of leading trees a vote truncated to k reads: all K
        when k is None. ValueError unless 1 <= k <= K."""
        if k is None:
            return self.k
        if not 1 <= k <= self.k:
            raise ValueError(f"k_prime must be in [1, {self.k}], got {k}")
        return k


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

    The verdict follows verdicts' tie rule. upto restricts the vote to the
    first `upto` trees.
    """
    m = ensemble_margins(e, [x], upto)[0]
    return int(verdicts(m)), m


def verdicts(margins) -> np.ndarray:
    """The ensemble's verdicts of margins: +1 where a margin is positive,
    -1 elsewhere, so a zero margin resolves to -1 (the tie rule, mirroring
    the leaf rule)."""
    return np.where(margins > 0, 1, -1)


def ensemble_margins(e: Ensemble, X: np.ndarray, upto: int | None = None) -> np.ndarray:
    """Vectorized margins for a matrix of instances, summed in tree order
    from 0.0, over row blocks so that memory stays flat in the row count.
    upto restricts the vote to the first `upto` trees (Ensemble.prefix).
    DataError unless X is a matrix of the model's arity (Ensemble.instance)."""
    X = e.instance(X)
    upto = e.prefix(upto)
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
    return e.flat.signs(e.instance([x]))[:, 0]


def weight_trajectory(e: Ensemble, i: int) -> np.ndarray:
    """Training instance i's weight series w_0..w_K, the data behind the
    sample-weight evolution plots. DataError unless i is a training row."""
    n = e.trajectories.shape[1]
    if not 0 <= i < n:
        raise DataError(f"training row {i} has no stored weight trajectory "
                        f"(model trained on {n} rows)")
    return e.trajectories[:, i].copy()


def model_to_dict(e: Ensemble) -> dict:
    """Single-document JSON form; key order fixed for byte-stable output."""
    return {key: list(value) if isinstance(value, Iterator) else value
            for key, value in _model_members(e)}


def _model_members(e: Ensemble) -> list[tuple[str, object]]:
    """The model document's members in file order. The trees and the
    trajectory rows are iterators over their JSON elements, so that
    save_model can write each one on its own."""
    return [
        ("version", MODEL_VERSION),
        ("schema", [
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
        ]),
        ("alphas", e.alphas.tolist()),
        ("trees", map(tree_to_dict, e.trees)),
        ("trajectories", map(np.ndarray.tolist, e.trajectories)),
        ("staged_errors", e.staged_errors.tolist()),
        ("config", {
            "K": e.config.get("K"),
            "max_depth": e.config.get("max_depth"),
            "seed": e.config.get("seed"),
        }),
    ]


def model_from_dict(d: dict) -> Ensemble:
    """Inverse of model_to_dict, with the trees compiled straight into
    FlatTrees (no node objects until Ensemble.trees is read). A malformed or
    inconsistent model (not a JSON object, no trees, tree nodes outside the
    schema's features, non-finite thresholds, leaf signs other than +-1,
    non-positive stage weights, staged errors outside [0, 0.5), numbers
    beyond float range) raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"model must be a JSON object, got {type(d).__name__}")
    version = d.get("version")
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version!r}, expected {MODEL_VERSION!r}")
    if not d["trees"]:
        raise ValueError("model has no trees")
    try:
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
        return Ensemble(  # converts the arrays, but keeps load_model's trajectory view as text
            trees=_flatten_dicts(d["trees"], len(schema)),
            alphas=d["alphas"],
            trajectories=d["trajectories"],
            staged_errors=d["staged_errors"],
            schema=schema,
            config=dict(d["config"]),
        )
    except OverflowError as exc:  # float() of a huge int, int() of an infinite float
        raise ValueError(str(exc)) from exc


def save_model(e: Ensemble, path: str | os.PathLike) -> None:
    """Atomic write (data.write_text_atomic) of json.dumps(model_to_dict(e)),
    streamed: the document, its tree list and its trajectory block are
    never held as one list or string."""
    write_text_atomic(path, _model_chunks(e))


def _model_chunks(e: Ensemble):
    """json.dumps of the document in pieces: each member's key and value,
    and an iterator's elements one by one. The default separators are ", "
    and ": ", so the pieces join to json.dumps(model_to_dict(e))."""
    for i, (key, value) in enumerate(_model_members(e)):
        yield ("{" if i == 0 else ", ") + json.dumps(key) + ": "
        if isinstance(value, Iterator):
            yield "["
            for j, item in enumerate(value):
                yield (", " if j else "") + json.dumps(item)
            yield "]"
        else:
            yield json.dumps(value)
    yield "}"


def load_model(path: str | os.PathLike) -> Ensemble:
    """model_from_dict of the file's JSON, read as text mode reads it. Where
    the file is ASCII and keeps save_model's layout around the trajectory
    block, the block is left undecoded until first read (see Ensemble)."""
    with open(path, "rb") as fh:
        data = fh.read()
    # a whole-file check: slicing out the block to check it would copy it
    doc = _split_trajectories(data) if data.isascii() else None
    if doc is None:  # text mode over the bytes read, so every error reads as open()'s would
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    return model_from_dict(doc)


def _split_trajectories(data: bytes) -> dict | None:
    """json.loads(data) with the top-level "trajectories" member kept as
    text, or None unless that provably gives what json.loads gives. The
    member, written as save_model writes it between two others, must hold
    no '"', '{', '}' or ':', so it ends at the ', "' before the next key;
    the text before it must parse as an object once '}' closes it, and the
    text after it once '{' opens it. The member then sits at the top level
    between two runs of whole members. Any other layout returns None."""
    start = data.find(_TRAJECTORY_MEMBER)
    if start < 0:
        return None
    begin = start + len(_TRAJECTORY_MEMBER)
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
    doc["trajectories"] = memoryview(data)[begin:end - 2]
    return doc
