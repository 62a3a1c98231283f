"""Counterfactual engine: epsilon-transformation over sign-opposite paths.

Given an instance and the ensemble's current verdict s, every tree that
agrees with s contributes its opposite-sign paths as flip candidates: each
violated threshold condition of such a path is tweaked to sit epsilon inside
the path's feasible interval, the FULL ensemble is evaluated on the tweaked
vector (truncation narrows the search, never the verdict), and the closest
flipping candidate is the counterfactual. Both symmetric cases are handled:
positive paths in negative-voting trees and negative paths in positive ones.

The search reads the ensemble's leaf-box table (cart.FlatTrees) and works
on all boxes at once: one epsilon step and one distance vector per
instance, kept as parallel arrays (Candidates). explain then scores the
candidates nearest-first in growing chunks and stops at the first chunk
that holds a flip, so the far candidates are seldom routed at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .boost import Ensemble, ensemble_margins, predict_ensemble, vote_sum
from .cart import FeasibleBox, Path, path_to_box
from .data import DataError, FeatureSchema

__all__ = [
    "GRID_GUARD",
    "NORMS",
    "GridGuardError",
    "EpsilonPolicy",
    "Candidate",
    "Candidates",
    "Counterfactual",
    "NotFound",
    "epsilon_transform",
    "generate_candidates",
    "distance",
    "explain",
    "brute_force_oracle",
    "oracle_grid",
]

GRID_GUARD = 10**6  # max enumerable grid points for the brute-force oracle

NORMS = ("L2_std", "L1_std", "L0")

_FIRST_CHUNK = 64  # candidates explain scores before doubling the chunk


class GridGuardError(DataError):
    """Oracle grid larger than the enumeration guard allows."""


@dataclass(frozen=True)
class EpsilonPolicy:
    """How far inside a threshold a tweaked value lands.

    range_scaled: per-feature eps = value * (max - min) from the training
    schema (constant features fall back to the raw value). absolute: the
    same eps for every feature.
    """

    mode: str = "range_scaled"
    value: float = 0.01

    def __post_init__(self):
        if self.mode not in ("absolute", "range_scaled"):
            raise ValueError(f"epsilon mode must be absolute|range_scaled, got {self.mode!r}")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"epsilon value must be finite and > 0, got {self.value}")

    def per_feature(self, schema: list[FeatureSchema]) -> np.ndarray:
        if self.mode == "absolute":
            return np.full(len(schema), self.value)
        eps = np.array([self.value * (f.max - f.min) for f in schema])
        eps[eps == 0.0] = self.value
        return eps


@dataclass(frozen=True)
class Candidate:
    """A tweaked instance satisfying one opposite-sign path, with provenance."""

    values: np.ndarray
    tree_index: int
    path_index: int
    tweaked_features: frozenset[int]
    ensemble_verdict: int
    distance: float


@dataclass(frozen=True, eq=False)
class Candidates:
    """All candidates of one instance as parallel arrays, one row each, in
    ascending (tree, path) order; len(), indexing and iteration give
    Candidate records, built on demand. verdict is the instance's own
    full-ensemble verdict, from the same routing that chose the trees.
    ensemble_verdict, every candidate's full-ensemble verdict, is computed
    on first access: explain scores only the candidates it needs."""

    values: np.ndarray  # (n, n_features) tweaked instances
    tree_index: np.ndarray
    path_index: np.ndarray
    tweaked: np.ndarray  # (n, n_features), True where a feature was moved
    distance: np.ndarray
    verdict: int
    ensemble: Ensemble = field(repr=False)

    @functools.cached_property
    def ensemble_verdict(self) -> np.ndarray:
        return _verdicts(self.ensemble, self.values)

    def __len__(self) -> int:
        return self.tree_index.shape[0]

    def __getitem__(self, i: int) -> Candidate:
        return Candidate(
            values=self.values[i],
            tree_index=int(self.tree_index[i]),
            path_index=int(self.path_index[i]),
            tweaked_features=frozenset(np.flatnonzero(self.tweaked[i]).tolist()),
            ensemble_verdict=int(self.ensemble_verdict[i]),
            distance=float(self.distance[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class Counterfactual:
    original: np.ndarray
    transformed: np.ndarray
    delta: dict[int, tuple[float, float]]  # feature -> (old, new)
    distance: float
    n_candidates_evaluated: int
    k_prime_used: int | None = None
    source_tree: int | None = None
    source_path: int | None = None


@dataclass(frozen=True)
class NotFound:
    """No candidate flipped the full ensemble. An ordinary outcome: single-path
    epsilon tweaks need not overturn a strong vote."""

    n_candidates_evaluated: int
    k_prime_used: int | None = None
    message: str = (
        "no candidate flipped the ensemble; consider raising epsilon, "
        "dropping the K' truncation, or both"
    )


def distance(x, x_cand, schema: list[FeatureSchema], norm: str = "L2_std"):
    """Distance between an instance and a candidate under training stats;
    for a matrix of candidates (one per row), the vector of their distances.

    L2_std: sqrt(sum ((dx/sigma)^2)); L1_std: sum |dx|/sigma; L0: count of
    changed features. Constant features are excluded throughout.
    """
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x_cand, dtype=np.float64)
    included = np.array([not f.constant for f in schema])
    sigma = np.array([f.stddev for f in schema])[included]
    # C order, so that each row sums exactly as a lone 1-D vector would
    d = np.ascontiguousarray(np.atleast_2d(b - a)[:, included])
    if norm == "L0":
        out = np.count_nonzero(d, axis=1).astype(np.float64)
    else:
        z = d / sigma
        out = np.abs(z).sum(axis=1) if norm == "L1_std" else np.sqrt((z**2).sum(axis=1))
    return float(out[0]) if b.ndim == 1 else out


def _epsilon_step(values: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                  eps_vec: np.ndarray):
    """The epsilon rule for a matrix of boxes (lower, upper], one per row.

    A feature already inside its interval keeps its value; a violated one
    moves to upper - eps when above it and to lower + eps when below it,
    or to the next float above lower when eps is below lower's resolution.
    Returns (tweaked values, violated mask, ok), where ok is False for a
    box some violated interval of which is too narrow (width <= eps).
    """
    inside = (lower < values) & (values <= upper)
    ok = ~np.any(~inside & (upper - lower <= eps_vec), axis=1)
    raised = lower + eps_vec
    raised = np.where(raised == lower, np.nextafter(lower, np.inf), raised)
    moved = np.where(values > upper, upper - eps_vec, raised)
    return np.where(inside, values, moved), ~inside, ok


def epsilon_transform(x, p: Path | FeasibleBox, eps_per_feature: np.ndarray,
                      n_features: int | None = None):
    """Minimal per-feature edit of x that satisfies one path: the epsilon
    rule of generate_candidates for a single box. Returns
    (values, tweaked_feature_set), or None when some required interval is
    too narrow (width <= eps) for an epsilon-inside point to exist.
    """
    values = np.asarray(x, dtype=np.float64)
    n = values.shape[0]
    box = path_to_box(p, n_features or n) if isinstance(p, Path) else p
    if n != box.lower.shape[0]:
        raise ValueError(f"instance arity {n} != box arity {box.lower.shape[0]}")
    if not box.feasible:
        raise ValueError(f"path is infeasible on features {box.infeasible_features}")
    moved, tweaked, ok = _epsilon_step(values, box.lower[None, :], box.upper[None, :],
                                       np.asarray(eps_per_feature, dtype=np.float64))
    if not ok[0]:
        return None
    return moved[0], frozenset(np.flatnonzero(tweaked[0]).tolist())


def _finite_instance(e: Ensemble, x) -> np.ndarray:
    """x as a float vector of the model's arity. Raises ValueError on a NaN
    or infinite value, which has no finite distance to move by."""
    values = np.asarray(x, dtype=np.float64)
    e.check_arity(values)
    if not np.all(np.isfinite(values)):
        bad = np.flatnonzero(~np.isfinite(values)).tolist()
        raise ValueError(f"instance values must be finite; features {bad} are not")
    return values


def generate_candidates(e: Ensemble, x, eps: EpsilonPolicy,
                        k_prime: int | None = None, norm: str = "L2_std") -> Candidates:
    """All epsilon-transform candidates from opposite-sign paths of trees
    that currently agree with the ensemble verdict, restricted to the first
    k_prime trees when given, with their distances. Every candidate's
    verdict comes from the FULL ensemble, computed when first read.
    Deterministic ascending (tree, path) order. Raises ValueError on a NaN
    or infinite instance value, which has no finite distance to move by.
    """
    values = _finite_instance(e, x)
    if k_prime is not None and not 1 <= k_prime <= e.k:
        raise ValueError(f"k_prime must be in [1, {e.k}], got {k_prime}")
    limit = e.k if k_prime is None else k_prime
    flat = e.flat
    votes = flat.signs(values[None, :])[:, 0]  # one routing gives the verdict and the agreeing trees
    s = 1 if vote_sum(e.alphas, votes[:, None])[0] > 0 else -1
    agrees = votes == s
    agrees[limit:] = False
    boxes = np.flatnonzero(agrees[flat.tree] & (flat.leaf_sign == -s) & flat.feasible)
    moved, tweaked, ok = _epsilon_step(values, flat.lower[boxes], flat.upper[boxes],
                                       eps.per_feature(e.schema))
    boxes, moved, tweaked = boxes[ok], moved[ok], tweaked[ok]
    return Candidates(values=moved, tree_index=flat.tree[boxes], path_index=flat.path_index[boxes],
                      tweaked=tweaked, distance=distance(values, moved, e.schema, norm),
                      verdict=s, ensemble=e)


def _verdicts(e: Ensemble, X: np.ndarray) -> np.ndarray:
    """Full-ensemble verdicts of the rows of X, never truncated."""
    return np.where(ensemble_margins(e, X) > 0, 1, -1)


def explain(e: Ensemble, x, eps: EpsilonPolicy | None = None,
            norm: str = "L2_std", k_prime: int | None = None,
            target: int | None = None, label: int | None = None,
            threads: int = 1) -> Counterfactual | NotFound:
    """Closest flipping candidate, ties broken by (lower tree, lower path).

    The candidates are ranked by (distance, tree, path) and scored against
    the full ensemble in that order, in chunks that double from 64, up to
    the first chunk holding a flip; its first flip is the answer.
    n_candidates_evaluated counts the candidates generated and ranked, not
    the ones scored. Raises ValueError on a non-finite instance.

    target, when given, must be the opposite of the current prediction.
    label, when given, asserts provenance: the instance must be correctly
    predicted (the classic setting explains true negatives / true positives).
    threads is accepted for compatibility and ignored.
    """
    eps = eps or EpsilonPolicy()
    values = np.asarray(x, dtype=np.float64)
    cands = generate_candidates(e, values, eps, k_prime=k_prime, norm=norm)
    pred = cands.verdict  # the routing that chose the trees also gave the verdict
    if target is not None and target == pred:
        raise ValueError(
            f"instance is already predicted {pred:+d}; the request must target the opposite class"
        )
    if label is not None and label != pred:
        raise ValueError(
            f"provenance assertion failed: label {label:+d} but prediction {pred:+d}"
        )
    # the candidates come in (tree, path) order, so a stable sort by distance
    # ranks them by (distance, tree, path); every margin is computed row by
    # row, so scoring a chunk gives each candidate the verdict a full pass would
    order = np.argsort(cands.distance, kind="stable")
    start, size = 0, _FIRST_CHUNK
    while start < order.size:
        chunk = order[start:start + size]
        flipped = np.flatnonzero(_verdicts(e, cands.values[chunk]) != pred)
        if flipped.size:
            best = chunk[flipped[0]]
            return _counterfactual(values, cands.values[best], float(cands.distance[best]),
                                   len(cands), k_prime_used=k_prime,
                                   source_tree=int(cands.tree_index[best]),
                                   source_path=int(cands.path_index[best]))
        start, size = start + size, 2 * size
    return NotFound(n_candidates_evaluated=len(cands), k_prime_used=k_prime)


def _counterfactual(values: np.ndarray, new: np.ndarray, dist: float, n_eval: int,
                    **provenance) -> Counterfactual:
    delta = {int(f): (float(values[f]), float(new[f])) for f in np.flatnonzero(new != values)}
    return Counterfactual(original=values.copy(), transformed=new.copy(), delta=delta,
                          distance=dist, n_candidates_evaluated=n_eval, **provenance)


def brute_force_oracle(e: Ensemble, x, grid: list[np.ndarray],
                       norm: str = "L2_std") -> Counterfactual | NotFound:
    """Independent verifier: exhaustively evaluate every grid point that
    differs from x and return the flipping point of minimum distance.
    Used only by tests and the verify command.

    A feature's split thresholds cut its axis into cells whose values take
    the same branch at every node (a value equal to a threshold goes left),
    so one representative per cell of the threshold lattice is routed and
    every grid point gets its cell's margin, bit for bit. Raises ValueError
    on a non-finite instance."""
    values = _finite_instance(e, x)
    if len(grid) != e.n_features:
        raise ValueError(f"grid has {len(grid)} axes, model expects {e.n_features}")
    if math.prod(len(axis) for axis in grid) > GRID_GUARD:
        raise GridGuardError(f"grid size exceeds the {GRID_GUARD} point guard")
    pred, _ = predict_ensemble(e, values)
    axes = [np.asarray(a, dtype=np.float64) for a in grid]
    pts = _product(axes)  # C order: the last axis varies fastest
    differs = np.any(pts != values, axis=1)
    pts = pts[differs]
    if pts.shape[0] == 0:
        return NotFound(n_candidates_evaluated=0)
    margins = _lattice_margins(e, axes)[differs]
    verdicts = np.where(margins > 0, 1, -1)
    flip = verdicts != pred
    n_eval = int(pts.shape[0])
    if not np.any(flip):
        return NotFound(n_candidates_evaluated=n_eval)
    flipping = pts[flip]
    dists = distance(values, flipping, e.schema, norm)
    i = int(np.argmin(dists))  # first minimum: deterministic in product order
    return _counterfactual(values, flipping[i], float(dists[i]), n_eval)


def _product(axes: list[np.ndarray]) -> np.ndarray:
    """Every point of the product grid of axes, one per row, in C order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _lattice_margins(e: Ensemble, axes: list[np.ndarray]) -> np.ndarray:
    """Margins of every point of the product grid of axes, in C order, from
    one routed representative per threshold-lattice cell: the first axis
    value in the cell."""
    flat = e.flat
    reps, cells = [], []
    for f, axis in enumerate(axes):
        cut, _, _ = _unique(flat.threshold[flat.feature == f])
        _, first, cell = _unique(np.searchsorted(cut, axis, side="left"))
        reps.append(axis[first])
        cells.append(cell)
    margins = ensemble_margins(e, _product(reps)).reshape([len(r) for r in reps])
    return margins[np.ix_(*cells)].ravel()


def _unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(a, return_index=True, return_inverse=True) of a 1-D array
    without NaNs, from one stable sort: the sorted distinct values, the
    index of each one's first occurrence, and each element's place among
    them. np.unique itself would import numpy.ma on its first call."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], order[starts], inverse


def oracle_grid(e: Ensemble, x, eps: EpsilonPolicy, resolution: int = 50) -> list[np.ndarray]:
    """Per-feature grids for the oracle that dominate the explain search:
    each axis carries the instance's own value and every epsilon-inside
    point of every threshold on that feature, padded with uniform fill over
    the training range up to `resolution` values. Raises ValueError on a
    non-finite instance."""
    values = _finite_instance(e, x)
    eps_vec = eps.per_feature(e.schema)
    feature, threshold = e.flat.feature, e.flat.threshold
    grid = []
    for f in range(e.n_features):
        thr = threshold[feature == f]
        pts = {float(values[f]), *(thr - eps_vec[f]).tolist(), *(thr + eps_vec[f]).tolist()}
        fill = max(0, resolution - len(pts))
        if fill:
            lo, hi = e.schema[f].min, e.schema[f].max
            if hi <= lo:
                hi = lo + 1.0
            pts.update(float(v) for v in np.linspace(lo, hi, fill))
        grid.append(np.array(sorted(pts)))
    return grid
