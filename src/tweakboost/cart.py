"""Weighted binary CART trees, and their flat form.

Routing rule (fixed, global): an instance goes LEFT iff value <= threshold.
Candidate thresholds are midpoints between consecutive distinct sorted
feature values; impurity ties break toward (lower feature index, lower
threshold); a leaf with equal weighted class mass predicts -1. The split
search sorts each feature once per dataset, not per node.

fit_tree builds node objects, which the JSON form round-trips. Every
evaluation reads the flat form instead (flatten): padded per-tree node
arrays that route many rows through many trees in depth numpy steps, and a
leaf-box table that holds each leaf's root-to-leaf path as per-feature
intervals. predict_tree, enumerate_paths and path_to_box walk the node
objects and serve as references for the flat form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset

__all__ = [
    "Leaf",
    "Internal",
    "Tree",
    "PathCondition",
    "Path",
    "FeasibleBox",
    "FlatTrees",
    "fit_tree",
    "flatten",
    "predict_tree",
    "apply_tree",
    "enumerate_paths",
    "path_to_box",
    "tree_to_dict",
    "tree_from_dict",
]

MIN_LEAF_WEIGHT = 1e-6  # of the unit total; avoids zero-mass leaves under skewed boosting weights

OP_LE = "<="
OP_GT = ">"


@dataclass(frozen=True)
class Leaf:
    sign: int
    purity: float  # weighted majority fraction in [0,1]


@dataclass(frozen=True)
class Internal:
    feature: int
    threshold: float
    left: "Node"
    right: "Node"


Node = Leaf | Internal


@dataclass(frozen=True)
class Tree:
    root: Node
    depth: int
    n_leaves: int


@dataclass(frozen=True)
class PathCondition:
    feature: int
    op: str  # "<=" or ">"
    threshold: float

    def __post_init__(self):
        if self.op not in (OP_LE, OP_GT):
            raise ValueError(f"op must be '<=' or '>', got {self.op!r}")

    def holds(self, values: np.ndarray) -> bool:
        v = values[self.feature]
        return v <= self.threshold if self.op == OP_LE else v > self.threshold


@dataclass(frozen=True)
class Path:
    """One root-to-leaf walk: the conjunction of its threshold conditions is
    satisfied exactly by the instances this tree routes to leaf_sign."""

    conditions: tuple[PathCondition, ...]
    leaf_sign: int
    tree_index: int = 0
    path_index: int = 0

    def satisfied_by(self, values: np.ndarray) -> bool:
        return all(c.holds(values) for c in self.conditions)


@dataclass(frozen=True)
class FeasibleBox:
    """Interval form of a Path: per feature the interval (lower, upper]
    (lower bounds come from '>' so they are open; upper bounds from '<=' so
    they are closed). Unconstrained features are (-inf, +inf)."""

    lower: np.ndarray
    upper: np.ndarray
    feasible: bool = True
    infeasible_features: tuple[int, ...] = field(default=())

    def contains(self, values: np.ndarray) -> bool:
        return bool(np.all(values > self.lower) and np.all(values <= self.upper))


def _leaf(pos: float, neg: float) -> Leaf:
    total = pos + neg
    sign = 1 if pos > neg else -1  # tie -> -1
    purity = (max(pos, neg) / total) if total > 0 else 1.0
    return Leaf(sign=sign, purity=float(purity))


def _best_split(X: np.ndarray, wp: np.ndarray, wn: np.ndarray, order: np.ndarray,
                min_leaf_weight: float):
    """Score every (feature, midpoint) candidate of a node in one pass over
    its (n_features, m) row order (each feature's rows by ascending value);
    return (children_impurity, feature, threshold) of the best or None. The
    first minimum in (feature, cut) order wins, so exact ties resolve to the
    lowest feature index / lowest threshold."""
    vs = X[order, np.arange(X.shape[1])[:, None]]
    cp = np.cumsum(wp[order], axis=1)
    cn = np.cumsum(wn[order], axis=1)
    pl, nl = cp[:, :-1], cn[:, :-1]
    pr, nr = cp[:, -1:] - pl, cn[:, -1:] - nl
    tl, tr = pl + nl, pr + nr
    ok = (vs[:, :-1] < vs[:, 1:]) & (tl >= min_leaf_weight) & (tr >= min_leaf_weight) \
        & (tl > 0) & (tr > 0)  # cuts between distinct values, no light child
    with np.errstate(divide="ignore", invalid="ignore"):
        imp = np.where(ok, (tl - (pl**2 + nl**2) / tl) + (tr - (pr**2 + nr**2) / tr), np.inf)
    f, i = np.unravel_index(np.argmin(imp), imp.shape)
    if imp[f, i] == np.inf:
        return None
    return float(imp[f, i]), int(f), float(0.5 * (vs[f, i] + vs[f, i + 1]))


def fit_tree(ds: Dataset, sample_weights, max_depth: int,
             min_leaf_weight: float = MIN_LEAF_WEIGHT) -> Tree:
    """Greedy weighted-Gini CART fit.

    Splitting stops when the depth limit is reached, the node is pure, no
    split reduces impurity, or a child would carry weight < min_leaf_weight.
    Nodes partition Dataset.feature_order, sorted once per dataset.
    """
    w = np.asarray(sample_weights, dtype=np.float64)
    if ds.n_rows == 0:
        raise ValueError("empty dataset")
    if w.shape != (ds.n_rows,):
        raise ValueError(f"weights length {w.shape} != {ds.n_rows} rows")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")

    X, y = ds.rows, ds.labels
    wp, wn = np.where(y == 1, w, 0.0), np.where(y == 1, 0.0, w)
    stats = {"depth": 0, "leaves": 0}

    def build(node: np.ndarray, order: np.ndarray, depth: int) -> Node:
        pos = float(w[node & (y == 1)].sum())
        neg = float(w[node & (y == -1)].sum())
        total = pos + neg
        stats["depth"] = max(stats["depth"], depth)
        if depth >= max_depth or pos == 0.0 or neg == 0.0:
            stats["leaves"] += 1
            return _leaf(pos, neg)
        found = _best_split(X, wp, wn, order, min_leaf_weight)
        if found is None:
            stats["leaves"] += 1
            return _leaf(pos, neg)
        imp_children, f, thr = found
        imp_parent = total - (pos**2 + neg**2) / total if total > 0 else 0.0
        if not imp_children < imp_parent:
            stats["leaves"] += 1
            return _leaf(pos, neg)

        def child(side: np.ndarray) -> Node:  # the side's rows keep their sorted order
            return build(node & side, order[side[order]].reshape(len(order), -1), depth + 1)

        go_left = X[:, f] <= thr
        return Internal(feature=f, threshold=thr, left=child(go_left), right=child(~go_left))

    root = build(np.ones(ds.n_rows, dtype=bool), ds.feature_order, 0)
    return Tree(root=root, depth=stats["depth"], n_leaves=stats["leaves"])


def predict_tree(t: Tree, x) -> int:
    """Route one instance to its leaf sign. Boundary values go LEFT."""
    v = np.asarray(x, dtype=np.float64)
    node = t.root
    while isinstance(node, Internal):
        node = node.left if v[node.feature] <= node.threshold else node.right
    return node.sign


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """Trees as flat arrays.

    Node arrays are (K, W), padded to the widest tree; left/right hold
    tree-local node ids. A leaf has feature -1, threshold NaN (so routing
    goes right) and itself as both children, so extra routing steps stay
    put. sign is the leaf sign, 0 at internal nodes.

    The leaf-box table has one row per leaf, in tree order and left-to-right
    leaf order within a tree: the leaf's path as the box (lower, upper] per
    feature, its sign, tree, feasibility (lower < upper everywhere) and
    path_index, its index among the tree's leaves of the same sign.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray
    depth: int
    lower: np.ndarray
    upper: np.ndarray
    leaf_sign: np.ndarray
    tree: np.ndarray
    feasible: np.ndarray
    path_index: np.ndarray

    def signs(self, X: np.ndarray, upto: int | None = None) -> np.ndarray:
        """(upto, n) leaf signs of the first `upto` trees (all by default)
        for the n rows of X, in `depth` steps over all trees at once."""
        k = self.feature.shape[0] if upto is None else upto
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        left, right = self.left.ravel(), self.right.ravel()
        rows = np.arange(X.shape[0])
        base = np.arange(k)[:, None] * self.feature.shape[1]
        node = np.zeros((k, X.shape[0]), dtype=np.int64)
        for _ in range(self.depth):
            at = base + node
            node = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
        return self.sign.ravel()[base + node]


def flatten(trees: list[Tree], n_features: int) -> FlatTrees:
    """Compile trees into FlatTrees, one iterative preorder walk per tree."""
    nodes, boxes, depth = [], [], 0
    for k, t in enumerate(trees):
        feat, thr, left, right, sign = cols = ([], [], [], [], [])
        n_paths = {-1: 0, 1: 0}
        stack = [(t.root, None, 0, np.full(n_features, -np.inf), np.full(n_features, np.inf), 0)]
        while stack:  # the left child is popped first, so leaves come left to right
            node, side, parent, lo, hi, d = stack.pop()
            j = len(feat)
            if side is not None:
                side[parent] = j
            left.append(j)
            right.append(j)
            depth = max(depth, d)
            if isinstance(node, Leaf):
                feat.append(-1)
                thr.append(math.nan)
                sign.append(node.sign)
                boxes.append((lo, hi, node.sign, k, not np.any(lo >= hi), n_paths[node.sign]))
                n_paths[node.sign] += 1
                continue
            f = node.feature
            feat.append(f)
            thr.append(node.threshold)
            sign.append(0)
            lo_right, hi_left = lo.copy(), hi.copy()
            lo_right[f] = max(lo[f], node.threshold)
            hi_left[f] = min(hi[f], node.threshold)
            stack.append((node.right, right, j, lo_right, hi, d + 1))
            stack.append((node.left, left, j, lo, hi_left, d + 1))
        nodes.append(cols)
    width = max((len(cols[0]) for cols in nodes), default=1)
    arrays = [np.full((len(trees), width), fill, dtype=type(fill))
              for fill in (-1, math.nan, 0, 0, 0)]
    for k, cols in enumerate(nodes):
        for a, col in zip(arrays, cols):
            a[k, :len(col)] = col
    lo, hi, leaf_sign, tree, feasible, path = zip(*boxes) if boxes else ((),) * 6
    return FlatTrees(
        *arrays, depth,
        lower=np.array(lo, dtype=np.float64).reshape(len(boxes), n_features),
        upper=np.array(hi, dtype=np.float64).reshape(len(boxes), n_features),
        leaf_sign=np.array(leaf_sign, dtype=np.int64),
        tree=np.array(tree, dtype=np.int64),
        feasible=np.array(feasible, dtype=bool),
        path_index=np.array(path, dtype=np.int64),
    )


def apply_tree(t: Tree, X: np.ndarray) -> np.ndarray:
    """Vectorized predict_tree over a matrix of instances: the one-tree case
    of the flat form."""
    X = np.asarray(X, dtype=np.float64)
    return flatten([t], X.shape[1]).signs(X)[0]


def enumerate_paths(t: Tree, sign: int, tree_index: int = 0) -> list[Path]:
    """All root->leaf walks ending in a leaf of the given sign, in
    deterministic left-to-right leaf order; path_index assigned in that
    order (per sign)."""
    paths: list[Path] = []

    def walk(node: Node, conds: list[PathCondition]):
        if isinstance(node, Leaf):
            if node.sign == sign:
                paths.append(
                    Path(
                        conditions=tuple(conds),
                        leaf_sign=node.sign,
                        tree_index=tree_index,
                        path_index=len(paths),
                    )
                )
            return
        conds.append(PathCondition(node.feature, OP_LE, node.threshold))
        walk(node.left, conds)
        conds.pop()
        conds.append(PathCondition(node.feature, OP_GT, node.threshold))
        walk(node.right, conds)
        conds.pop()

    walk(t.root, [])
    return paths


def path_to_box(p: Path, n_features: int) -> FeasibleBox:
    """Intersect all conditions of a path into per-feature intervals.

    (f, <=, t) contributes a closed upper bound t; (f, >, t) an open lower
    bound t; the tightest bounds win. lower >= upper marks the path
    infeasible (flagged in the returned box, never silently dropped).
    """
    lower = np.full(n_features, -np.inf)
    upper = np.full(n_features, np.inf)
    for c in p.conditions:
        if c.op == OP_LE:
            upper[c.feature] = min(upper[c.feature], c.threshold)
        else:
            lower[c.feature] = max(lower[c.feature], c.threshold)
    bad = tuple(int(f) for f in np.nonzero(lower >= upper)[0])
    return FeasibleBox(lower=lower, upper=upper, feasible=not bad, infeasible_features=bad)


def tree_to_dict(t: Tree) -> dict:
    """Nested JSON form; field order fixed for byte-stable output."""

    def conv(node: Node) -> dict:
        if isinstance(node, Leaf):
            return {"sign": node.sign, "purity": node.purity}
        return {
            "feature": node.feature,
            "threshold": node.threshold,
            "left": conv(node.left),
            "right": conv(node.right),
        }

    return conv(t.root)


def tree_from_dict(d: dict, n_features: int) -> Tree:
    """Inverse of tree_to_dict. Rejects, with ValueError, a leaf sign other
    than -1/+1, a non-finite threshold and a feature index outside
    [0, n_features)."""
    stats = {"depth": 0, "leaves": 0}

    def conv(obj: dict, depth: int) -> Node:
        stats["depth"] = max(stats["depth"], depth)
        if "sign" in obj:
            stats["leaves"] += 1
            sign = int(obj["sign"])
            if sign not in (-1, 1):
                raise ValueError(f"leaf sign must be -1 or +1, got {obj['sign']!r}")
            return Leaf(sign=sign, purity=float(obj["purity"]))
        feature, threshold = int(obj["feature"]), float(obj["threshold"])
        if not 0 <= feature < n_features:
            raise ValueError(f"split feature {feature} outside [0, {n_features})")
        if not math.isfinite(threshold):
            raise ValueError(f"split threshold {threshold!r} is not finite")
        return Internal(
            feature=feature,
            threshold=threshold,
            left=conv(obj["left"], depth + 1),
            right=conv(obj["right"], depth + 1),
        )

    root = conv(d, 0)
    return Tree(root=root, depth=stats["depth"], n_leaves=stats["leaves"])
