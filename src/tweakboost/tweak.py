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

from .boost import Ensemble, ensemble_margins, predict_ensemble, verdicts, vote_sum
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
    same eps for every feature. per_feature raises ValueError where value *
    (max - min) overflows, since no finite point lies eps inside there.
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
        bad = np.flatnonzero(np.isinf(eps)).tolist()
        if bad:
            raise ValueError(f"epsilon {self.value} times the feature range is not finite "
                             f"on features {bad}")
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
        return verdicts(ensemble_margins(self.ensemble, self.values))

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
    changed features. Constant features are excluded throughout. A distance
    too large for a float is inf, without a numpy warning; an L2_std row
    whose squares alone overflow is scaled by its largest |dx/sigma| first.
    """
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x_cand, dtype=np.float64)
    included = np.array([not f.constant for f in schema])
    sigma = np.array([f.stddev for f in schema])[included]
    with np.errstate(over="ignore"):
        # C order, so that each row sums exactly as a lone 1-D vector would
        d = np.ascontiguousarray(np.atleast_2d(b - a)[:, included])
        if norm == "L0":
            out = np.count_nonzero(d, axis=1).astype(np.float64)
        else:
            z = d / sigma
            out = np.abs(z).sum(axis=1) if norm == "L1_std" else np.sqrt((z**2).sum(axis=1))
            big = np.isinf(out) & (norm == "L2_std")  # squares alone may overflow: sum z / max|z|
            if big.any():  # every other row keeps the plain sum's bits
                big &= np.isfinite(z).all(axis=1)
                s = np.abs(z[big]).max(axis=1, keepdims=True)
                out[big] = s[:, 0] * np.sqrt(((z[big] / s)**2).sum(axis=1))
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
    moved = np.where(values > upper, upper - eps_vec, _above(lower, eps_vec))
    return np.where(inside, values, moved), ~inside, ok


def _above(lower, eps):
    """The point eps inside an open lower bound: lower + eps, or the next
    float above lower where eps is below lower's resolution and lower + eps
    rounds back to lower, which the interval excludes."""
    raised = lower + eps
    return np.where(raised == lower, np.nextafter(lower, np.inf), raised)


def epsilon_transform(x, p: Path | FeasibleBox, eps_per_feature: np.ndarray):
    """Minimal per-feature edit of x that satisfies one path: the epsilon
    rule of generate_candidates for a single box. Returns
    (values, tweaked_feature_set), or None when some required interval is
    too narrow (width <= eps) for an epsilon-inside point to exist.
    """
    values = np.asarray(x, dtype=np.float64)
    n = values.shape[0]
    box = path_to_box(p, n) if isinstance(p, Path) else p
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
    """x checked by e.instance as one instance, refused with DataError where
    a value is NaN or infinite: such a value has no finite distance to move by."""
    values = e.instance([x])[0]
    bad = np.flatnonzero(~np.isfinite(values)).tolist()
    if bad:
        raise DataError(f"instance values must be finite; features {bad} are not "
                        f"(non-finite {values[bad].tolist()})")
    return values


def generate_candidates(e: Ensemble, x, eps: EpsilonPolicy,
                        k_prime: int | None = None, norm: str = "L2_std") -> Candidates:
    """All epsilon-transform candidates from opposite-sign paths of trees
    that currently agree with the ensemble verdict, restricted to the first
    k_prime trees when given, with their distances. Every candidate's
    verdict comes from the FULL ensemble, computed when first read.
    Deterministic ascending (tree, path) order. A candidate whose distance
    is not finite is dropped. Raises DataError on a NaN or infinite
    instance value, which has no finite distance to move by.
    """
    values = _finite_instance(e, x)
    limit = e.prefix(k_prime)
    flat = e.flat
    votes = flat.signs(values[None, :])[:, 0]  # one routing gives the verdict and the agreeing trees
    s = int(verdicts(vote_sum(e.alphas, votes[:, None]))[0])
    agrees = votes == s
    agrees[limit:] = False
    boxes = np.flatnonzero(agrees[flat.tree] & (flat.leaf_sign == -s) & flat.feasible)
    moved, tweaked, ok = _epsilon_step(values, flat.lower[boxes], flat.upper[boxes],
                                       eps.per_feature(e.schema))
    dist = distance(values, moved, e.schema, norm)
    keep = ok & np.isfinite(dist)
    boxes = boxes[keep]
    return Candidates(values=moved[keep], tree_index=flat.tree[boxes],
                      path_index=flat.path_index[boxes], tweaked=tweaked[keep],
                      distance=dist[keep], verdict=s, ensemble=e)


def explain(e: Ensemble, x, eps: EpsilonPolicy | None = None,
            norm: str = "L2_std", k_prime: int | None = None,
            target: int | None = None, label: int | None = None,
            threads: int = 1) -> Counterfactual | NotFound:
    """Closest flipping candidate, ties broken by (lower tree, lower path).

    The candidates are ranked by (distance, tree, path) and scored against
    the full ensemble in that order, in chunks that double from 64, up to
    the first chunk holding a flip; its first flip is the answer.
    n_candidates_evaluated counts the candidates generated and ranked, not
    the ones scored. Raises DataError on a non-finite instance or one of
    another arity.

    target, when given, must be the opposite of the current prediction.
    label, when given, asserts provenance: the instance must be correctly
    predicted (the classic setting explains true negatives / true positives).
    A request that breaks either raises DataError.
    threads is accepted for compatibility and ignored.
    """
    eps = eps or EpsilonPolicy()
    values = np.asarray(x, dtype=np.float64)
    cands = generate_candidates(e, values, eps, k_prime=k_prime, norm=norm)
    pred = cands.verdict  # the routing that chose the trees also gave the verdict
    if target is not None and target == pred:
        raise DataError(
            f"instance is already predicted {pred:+d}; the request must target the opposite class"
        )
    if label is not None and label != pred:
        raise DataError(
            f"provenance assertion failed: label {label:+d} but prediction {pred:+d}"
        )
    # the candidates come in (tree, path) order, so a stable sort by distance
    # ranks them by (distance, tree, path); every margin is computed row by
    # row, so scoring a chunk gives each candidate the verdict a full pass would
    order = np.argsort(cands.distance, kind="stable")
    start, size = 0, _FIRST_CHUNK
    while start < order.size:
        chunk = order[start:start + size]
        flipped = np.flatnonzero(verdicts(ensemble_margins(e, cands.values[chunk])) != pred)
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

    No grid point is routed through the trees: every point gets its margin
    from the leaf boxes painted onto the threshold lattice
    (_lattice_margins), and only the flipping points are built, in C order
    (the last axis varies fastest), so of equally distant flips the first
    in that order wins; a flip whose distance is not finite is never
    returned. Raises DataError on a non-finite instance, ValueError on a NaN
    grid value; an infinite grid value is a point like any other."""
    values = _finite_instance(e, x)
    if len(grid) != e.n_features:
        raise ValueError(f"grid has {len(grid)} axes, model expects {e.n_features}")
    if math.prod(len(axis) for axis in grid) > GRID_GUARD:
        raise GridGuardError(f"grid size exceeds the {GRID_GUARD} point guard")
    axes = [np.asarray(a, dtype=np.float64) for a in grid]
    bad = [f for f, axis in enumerate(axes) if np.isnan(axis).any()]
    if bad:
        raise ValueError(f"grid values must not be NaN; axes {bad} hold NaN")
    pred, _ = predict_ensemble(e, values)
    same = np.zeros([len(axis) for axis in axes], dtype=bool)  # the points equal to x
    same[np.ix_(*[np.flatnonzero(axis == v) for axis, v in zip(axes, values)])] = True
    n_eval = same.size - int(np.count_nonzero(same))
    if n_eval == 0:
        return NotFound(n_candidates_evaluated=0)
    flip = (verdicts(_lattice_margins(e, axes)) != pred) & ~same
    flipping = np.stack([axis[i] for axis, i in zip(axes, np.nonzero(flip))], axis=1)
    dists = distance(values, flipping, e.schema, norm)  # never NaN: x and the grid hold none
    if not np.isfinite(dists).any():  # no flip, or none at a finite distance
        return NotFound(n_candidates_evaluated=n_eval)
    i = int(np.argmin(dists))  # first minimum: deterministic in product order
    return _counterfactual(values, flipping[i], float(dists[i]), n_eval)


def _lattice_margins(e: Ensemble, axes: list[np.ndarray]) -> np.ndarray:
    """Margins of every point of the product grid of axes, in the grid's
    shape, painted from the leaf-box table instead of routed.

    A feature's sorted distinct thresholds cut its axis into cells
    (cut[c-1], cut[c]] whose values take the same branch at every node; a
    value equal to a threshold goes left. A leaf box (lower, upper] covers the
    cells searchsorted(cut, lower, "right") to searchsorted(cut, upper,
    "left"), so on the lattice of the cells the grid holds it is a block.
    Each tree's leaves partition that lattice, so adding alphas[tree] *
    leaf_sign over every leaf's block, leaves in tree order, gives each cell
    one addition per tree in tree order: vote_sum's margins, bit for bit."""
    flat = e.flat
    starts, stops, cells, shape = [], [], [], []
    for f, axis in enumerate(axes):
        cut, _ = _unique(flat.threshold[flat.feature == f])
        present, cell = _unique(np.searchsorted(cut, axis, side="left"))
        cells.append(cell)
        shape.append(len(present))
        # each leaf's first and last cell, then its run among the cells present
        first = np.searchsorted(cut, flat.lower[:, f], side="right")
        last = np.searchsorted(cut, flat.upper[:, f], side="left")
        starts.append(np.searchsorted(present, first, side="left"))
        stops.append(np.searchsorted(present, last, side="right"))
    starts, stops = np.stack(starts, axis=1), np.stack(stops, axis=1)
    painted = np.flatnonzero(np.all(starts < stops, axis=1))  # in tree order
    votes = e.alphas[flat.tree[painted]] * flat.leaf_sign[painted]
    margins = np.zeros(shape)
    for vote, start, stop in zip(votes.tolist(), starts[painted].tolist(), stops[painted].tolist()):
        margins[tuple(map(slice, start, stop))] += vote
    return margins[np.ix_(*cells)]


def _unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(a, return_inverse=True) of a 1-D array without NaNs, from
    one sort: the sorted distinct values and each element's place among
    them. np.unique itself would import numpy.ma on its first call."""
    order = np.argsort(a)
    ordered = a[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def oracle_grid(e: Ensemble, x, eps: EpsilonPolicy, resolution: int = 50) -> list[np.ndarray]:
    """Per-feature grids for the oracle that dominate the explain search:
    each axis carries the instance's own value and every epsilon-inside
    point of every threshold on that feature (above a threshold, the next
    float when eps is below its resolution, as explain's step takes),
    padded with uniform fill over the training range up to `resolution`
    values. Raises DataError on a non-finite instance, and GridGuardError
    before any fill when the axes' least sizes already multiply past
    GRID_GUARD."""
    values = _finite_instance(e, x)
    eps_vec = eps.per_feature(e.schema)
    feature, threshold = e.flat.feature, e.flat.threshold
    axes = []
    for f in range(e.n_features):
        thr = threshold[feature == f]
        axes.append({float(values[f]), *(thr - eps_vec[f]).tolist(), *_above(thr, eps_vec[f]).tolist()})
    # an axis holds its points and its distinct fill values, at least the larger count
    if math.prod(max(len(pts), resolution - len(pts)) for pts in axes) > GRID_GUARD:
        raise GridGuardError(f"grid size exceeds the {GRID_GUARD} point guard")
    grid = []
    for f, pts in enumerate(axes):
        fill = max(0, resolution - len(pts))
        if fill:
            lo, hi = e.schema[f].min, e.schema[f].max
            if hi <= lo:
                hi = lo + 1.0
            pts.update(float(v) for v in np.linspace(lo, hi, fill))
        grid.append(np.array(sorted(pts)))
    return grid
