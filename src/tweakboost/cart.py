"""Weighted binary CART trees, and their flat form.

Routing rule (fixed, global): an instance goes LEFT iff value <= threshold.
Candidate thresholds are midpoints between consecutive distinct sorted
feature values; impurity ties break toward (lower feature index, lower
threshold); a leaf with equal weighted class mass predicts -1. The split
search sorts each feature once per dataset, not per node.

Trees grow level by level (grow_tree; SLIQ's breadth-first growth): one
gather and one elementwise pass score the (feature, cut) pairs of every
open node of a depth. Three steps stay per node, because their level-wide
forms change the model's bits: the prefix sums (a level-wide cumsum minus
each node's offset rounds differently), the argmin (ties go to the first
minimum in the node's own (feature, cut) order) and the class sums (numpy's
pairwise sum over the node's weights of one class, in ascending row order,
groups differently over any other array). The grower also returns every
training row's leaf sign, so boosting routes nothing.

fit_tree builds node objects, which the JSON form round-trips. Every
evaluation reads the flat form instead (flatten): padded per-tree node
arrays in paired-slot layout (a node's two children in adjacent slots, so
one child-slot array and one comparison route a row a level down) that
route many rows through many trees in depth numpy steps, and a leaf-box
table that holds each leaf's root-to-leaf path as per-feature intervals.
predict_tree, enumerate_paths and path_to_box walk the node objects and
serve as references for the flat form.
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


def fit_tree(ds: Dataset, sample_weights, max_depth: int,
             min_leaf_weight: float = MIN_LEAF_WEIGHT) -> Tree:
    """Greedy weighted-Gini CART fit (grow_tree without the training rows'
    leaf signs).

    Splitting stops when the depth limit is reached, the node is pure, no
    split reduces impurity, or a child would carry weight < min_leaf_weight.
    """
    return grow_tree(ds, sample_weights, max_depth, min_leaf_weight)[0]


def grow_tree(ds: Dataset, sample_weights, max_depth: int,
              min_leaf_weight: float = MIN_LEAF_WEIGHT) -> tuple[Tree, np.ndarray]:
    """fit_tree's tree and every training row's leaf sign, the (n_rows,)
    array apply_tree would give for ds.rows, grown one level at a time.

    A level's open rows sit in one (n_features + 1, m) array: row f holds
    each open node's rows by ascending feature f (Dataset.feature_order,
    partitioned), the last row holds them by ascending index, and each node
    owns a contiguous block of columns. One gather and one elementwise pass
    score every (feature, cut) pair of the level; the prefix sums, the
    argmin and the class sums stay per node, so a node's numbers do not
    depend on the other nodes of its level.
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
    n = ds.n_rows
    wpn = np.stack([np.where(y == 1, w, 0.0), np.where(y == 1, 0.0, w)])
    values, offsets = X.T.ravel(), np.arange(ds.n_features)[:, None] * n  # X[i, f] is values[f * n + i]
    signs = np.empty(n, dtype=np.int64)
    nodes: list = [None]  # a Leaf, or (feature, threshold, left id, right id) until built
    # the level's new nodes: ids, rows (ascending within each node), sizes
    ids, rows, sizes = [0], np.arange(n), [n]
    order, left, right = np.vstack([ds.feature_order, rows]), None, None
    depth = 0
    while True:
        # class sums: numpy's pairwise sum over the node's weights of one class
        # in ascending row order (summing zero-filled weights rounds differently)
        is_pos = y[rows] == 1
        w_pos, w_neg = w[rows[is_pos]], w[rows[~is_pos]]
        ends = np.cumsum(sizes)
        n_pos = np.concatenate(([0], np.cumsum(is_pos)))
        bounds = zip(ids, (ends - sizes).tolist(), ends.tolist(),
                     n_pos[ends - sizes].tolist(), n_pos[ends].tolist())
        is_open, open_ids, open_sums, open_sizes = [], [], [], []
        for i, s, e, a, b in bounds:
            pos, neg = float(np.add.reduce(w_pos[a:b])), float(np.add.reduce(w_neg[s - a:e - b]))
            if depth >= max_depth or pos == 0.0 or neg == 0.0:
                nodes[i] = _leaf(pos, neg)
                signs[rows[s:e]] = nodes[i].sign
            is_open.append(nodes[i] is None)
            if is_open[-1]:
                open_ids.append(i)
                open_sums.append((pos, neg))
                open_sizes.append(e - s)
        if not open_ids:
            break
        if left is not None:  # the previous level's open rows -> the open children's
            alive = np.zeros(n, dtype=bool)
            alive[rows[np.repeat(is_open, sizes)]] = True
            order = np.concatenate(
                [order[side.take(order)].reshape(len(order), -1) for side in (left & alive, right & alive)],
                axis=1)

        # score every (feature, cut) pair of the level; column j cuts between
        # columns j and j + 1 of its node
        ends = np.cumsum(open_sizes)
        starts = ends - open_sizes
        vs = values.take(order[:-1] + offsets)
        wc = np.take(wpn, order[:-1], axis=1)
        c = np.empty_like(wc)
        for s, e in zip(starts.tolist(), ends.tolist()):  # prefix sums restart at every node
            np.add.accumulate(wc[:, :, s:e], axis=2, out=c[:, :, s:e])
        totals = c.take(np.repeat(ends - 1, open_sizes)[:-1], axis=2)  # at each node's last column
        pl, nl = c[0, :, :-1], c[1, :, :-1]
        pr, nr = totals[0] - pl, totals[1] - nl
        tl, tr = pl + nl, pr + nr
        # cuts between distinct values, no light child; a node's last column
        # has tr == 0, so it is never a cut
        ok = (vs[:, :-1] < vs[:, 1:]) & (tl >= min_leaf_weight) & (tr >= min_leaf_weight) \
            & (tl > 0) & (tr > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            imp = np.where(ok, (tl - (pl**2 + nl**2) / tl) + (tr - (pr**2 + nr**2) / tr), np.inf)

        feature, threshold, parents = [0] * len(open_ids), [0.0] * len(open_ids), []
        for j, (i, (pos, neg), s, e) in enumerate(zip(open_ids, open_sums, starts.tolist(),
                                                      ends.tolist())):
            block = imp[:, s:e - 1]  # the first minimum in (feature, cut) order wins
            f, cut = divmod(int(block.argmin()), e - 1 - s)
            imp_children = float(block[f, cut])
            total = pos + neg
            if imp_children < total - (pos**2 + neg**2) / total:  # inf never is
                feature[j], threshold[j] = f, float(0.5 * (vs[f, s + cut] + vs[f, s + cut + 1]))
                parents.append(j)
            else:
                nodes[i] = _leaf(pos, neg)
                signs[order[-1, s:e]] = nodes[i].sign
        if not parents:
            break

        # route the split nodes' rows; their children are the next level's
        # new nodes, all left children first
        first, n_split = len(nodes), len(parents)
        for k, j in enumerate(parents):
            nodes[open_ids[j]] = (feature[j], threshold[j], first + k, first + n_split + k)
        ids = list(range(first, first + 2 * n_split))
        nodes += [None] * len(ids)
        is_split = np.zeros(len(open_ids), dtype=bool)
        is_split[parents] = True
        rows = order[-1]
        routed = np.repeat(is_split, open_sizes)
        goes_left = X[rows, np.repeat(feature, open_sizes)] <= np.repeat(threshold, open_sizes)
        to_left, to_right = routed & goes_left, routed & ~goes_left
        left, right = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        left[rows], right[rows] = to_left, to_right
        n_left = np.add.reduceat(to_left, starts, dtype=np.int64)[parents]
        rows = np.concatenate([rows[to_left], rows[to_right]])
        sizes = n_left.tolist() + (np.asarray(open_sizes)[parents] - n_left).tolist()
        depth += 1

    # children have higher ids than their parents, so build from the last id
    for i in range(len(nodes) - 1, -1, -1):
        if not isinstance(nodes[i], Leaf):
            f, t, lid, rid = nodes[i]
            nodes[i] = Internal(feature=f, threshold=t, left=nodes[lid], right=nodes[rid])
    n_leaves = sum(isinstance(node, Leaf) for node in nodes)
    return Tree(root=nodes[0], depth=depth, n_leaves=n_leaves), signs


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

    Node arrays are (K, W), padded to the widest tree, in paired-slot
    layout: the root is slot 0 and the two children of an internal node sit
    in adjacent slots, first[j] (left) and first[j] + 1 (right), tree-local.
    A routing step is then at = first[at] + (not value <= threshold[at]). A
    leaf or padding slot j has feature -1, threshold NaN and first j - 1, so
    its comparison fails and the step leaves it at j; a NaN input goes right
    the same way. sign is the leaf sign, 0 at internal and padding slots.

    The leaf-box table has one row per leaf, in tree order and left-to-right
    leaf order within a tree: the leaf's path as the box (lower, upper] per
    feature, its sign, tree, feasibility (lower < upper everywhere) and
    path_index, its index among the tree's leaves of the same sign.
    """

    feature: np.ndarray
    threshold: np.ndarray
    first: np.ndarray
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
        feature, threshold, first = self.feature.ravel(), self.threshold.ravel(), self.first.ravel()
        values, rows = X.ravel(), np.arange(X.shape[0]) * X.shape[1]  # X[i, f] is values[rows[i] + f]
        base = np.arange(k)[:, None] * self.feature.shape[1]
        at = np.broadcast_to(base, (k, X.shape[0]))
        for _ in range(self.depth):  # take, not [], which is slower on these small gathers
            at = base + first.take(at) + ~(values.take(rows + feature.take(at)) <= threshold.take(at))
        return self.sign.take(at)


def flatten(trees: list[Tree], n_features: int) -> FlatTrees:
    """Compile trees into FlatTrees.

    One depth-first walk per tree lays out the slots (each internal node
    claims the next two free slots for its children) and lists the leaves
    left to right. The leaf-box table is then built with numpy, one
    ancestor level per step for all leaves of all trees at once.
    """
    feature, threshold, first, size, leaves, leaf_sign, path_index = [], [], [], [], [], [], []
    for t in trees:
        start = len(feature)
        feature.append(-1)
        threshold.append(math.nan)
        first.append(0)
        n_paths = {-1: 0, 1: 0}
        stack = [(t.root, 0)]
        while stack:  # the left child is popped first, so leaves come left to right
            node, j = stack.pop()
            if isinstance(node, Leaf):
                leaves.append(start + j)
                leaf_sign.append(node.sign)
                path_index.append(n_paths[node.sign])
                n_paths[node.sign] += 1
                continue
            c = len(feature) - start
            feature[start + j] = node.feature
            threshold[start + j] = node.threshold
            first[start + j] = c
            feature += (-1, -1)
            threshold += (math.nan, math.nan)
            first += (0, 0)
            stack.append((node.right, c + 1))
            stack.append((node.left, c))
        size.append(len(feature) - start)
    k, width = len(trees), max(size, default=1)
    size = np.array(size, dtype=np.int64)
    # slot i of the concatenated trees -> its padded index tree * width + local slot
    padded = np.arange(len(feature)) + np.repeat(np.arange(k) * width - (np.cumsum(size) - size), size)
    leaf = padded[np.array(leaves, dtype=np.int64)]
    leaf_sign = np.array(leaf_sign, dtype=np.int64)
    feat, thr, fst, sgn = (np.full(k * width, fill, dtype=type(fill)) for fill in (-1, math.nan, 0, 0))
    feat[padded], thr[padded], fst[padded], sgn[leaf] = feature, threshold, first, leaf_sign
    idle = feat < 0  # leaves and padding route to themselves
    fst[idle] = np.flatnonzero(idle) % width - 1

    # the leaf-box table: walk every leaf up to its root, one level per step
    inner = np.flatnonzero(~idle)
    parent = np.full(k * width, -1)
    parent[inner - inner % width + fst[inner]] = inner
    parent[inner - inner % width + fst[inner] + 1] = inner
    lower = np.full((leaf.size, n_features), -np.inf)
    upper = np.full((leaf.size, n_features), np.inf)
    box, node, depth = np.arange(leaf.size), leaf, 0
    while True:
        up = parent[node]
        live = up >= 0
        if not live.any():
            break
        depth += 1
        box, node, up = box[live], node[live], up[live]
        f, t = feat[up], thr[up]
        left = node % width == fst[up]  # went left: value <= t, else value > t
        for bound, side, tighter in ((upper, left, np.minimum), (lower, ~left, np.maximum)):
            b, fs = box[side], f[side]
            bound[b, fs] = tighter(bound[b, fs], t[side])
        node = up
    return FlatTrees(
        *(a.reshape(k, width) for a in (feat, thr, fst, sgn)), depth,
        lower=lower,
        upper=upper,
        leaf_sign=leaf_sign,
        tree=leaf // width,
        feasible=~np.any(lower >= upper, axis=1),
        path_index=np.array(path_index, dtype=np.int64),
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
