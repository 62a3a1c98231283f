"""Weighted binary CART trees, and their flat form.

Routing rule (fixed, global): an instance goes LEFT iff value <= threshold.
Candidate thresholds are midpoints between consecutive distinct sorted
feature values; impurity ties break toward (lower feature index, lower
threshold); a leaf with equal weighted class mass predicts -1. The split
search sorts each feature once per dataset, not per node.

Trees grow level by level (grow_tree; SLIQ's breadth-first growth): one
lean pass scores the (feature, cut) pairs of every open node of a depth: one
gather each of the class weights and of the values, and the impurity
computed in place over the prefix sums. Three steps stay per node, because
their level-wide forms change the model's bits: the prefix sums (a
level-wide cumsum minus each node's offset rounds differently), the argmin
(ties go to the first minimum in the node's own (feature, cut) order) and
the class sums (numpy's pairwise sum over the node's weights of one class,
in ascending row order, groups differently over any other array). The
grower also returns every training row's leaf sign, so boosting routes
nothing.

fit_tree builds node objects, and tree_to_dict writes them in the JSON
form. Every evaluation reads the flat form instead (FlatTrees): padded
per-tree node arrays in paired-slot layout (a node's two children in
adjacent slots, so one child-slot array and one comparison route a row a
level down) that route many rows through many trees in depth numpy steps,
and a leaf-box table that holds each leaf's root-to-leaf path as
per-feature intervals. One compiler (_compile) lays the flat form out from
the trees' nodes in depth-first order, which one walker gives it:
_flatten_dicts, over the JSON form, checking each node. A model load builds
no node objects on the way; flatten compiles node objects by way of
tree_to_dict, so they pass the same checks. FlatTrees.to_trees builds node
objects on request.
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
    owns a contiguous block of columns. One pass scores every (feature, cut)
    pair of the level: a gather each of the class weights and of the values,
    and the impurity computed in place, with each float's operations in the
    order the formula gives them. The prefix sums, the argmin and the class
    sums stay per node, so a node's numbers do not depend on the other nodes
    of its level. The partition takes one destination code per row (left
    child, right child, closed) through the previous level's array and
    compresses it twice.
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
    # a weight sum is never negative, so a child is light iff it fails one test
    if min_leaf_weight <= 0:
        heavy, floor = np.greater, 0.0
    else:  # tl >= min_leaf_weight > 0 implies tl > 0, and a NaN floor passes nothing
        heavy, floor = np.greater_equal, min_leaf_weight
    signs = np.empty(n, dtype=np.int64)
    nodes: list = [None]  # a Leaf, or (feature, threshold, left id, right id) until built
    # the level's new nodes: ids, rows (ascending within each node), sizes
    ids, rows, sizes = [0], np.arange(n), [n]
    order = np.vstack([ds.feature_order, rows])
    depth = 0
    while True:
        # class sums: numpy's pairwise sum over the node's weights of one class
        # in ascending row order (summing zero-filled weights rounds differently)
        is_pos = y.take(rows) == 1
        w_pos, w_neg = w.take(np.compress(is_pos, rows)), w.take(np.compress(~is_pos, rows))
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
        if depth:  # the previous level's open rows -> the open children's
            dest = np.full(n, 2, dtype=np.int8)  # 0 left, 1 right, 2 closed
            half = len(ids) // 2  # the new nodes are all left children first
            dest[rows] = np.repeat(np.where(is_open, np.arange(len(ids)) // half, 2), sizes)
            to = dest.take(order).ravel()
            # compress, which is faster than a boolean index
            order = np.concatenate([np.compress(to == side, order).reshape(len(order), -1)
                                    for side in (0, 1)], axis=1)

        # score every (feature, cut) pair of the level; column j cuts between
        # columns j and j + 1 of its node. c holds the prefix sums, which
        # restart at every node: the left child's class sums (pl, nl). r holds
        # the right child's (pr, nr); a node's last column gets exactly 0 on
        # the right, so it is never a cut
        m = order.shape[1]
        ends = np.cumsum(open_sizes)
        starts = ends - open_sizes
        c = np.take(wpn, order[:-1], axis=1)
        r = np.empty_like(c[:, :, :-1])
        for s, e in zip(starts.tolist(), ends.tolist()):
            np.add.accumulate(c[:, :, s:e], axis=2, out=c[:, :, s:e])
            stop = min(e, m - 1)
            np.subtract(c[:, :, e - 1:e], c[:, :, s:stop], out=r[:, :, s:stop])
        tl, tr = c[0, :, :-1] + c[1, :, :-1], r[0] + r[1]
        vs = values.take(order[:-1] + offsets)
        ok = vs[:, :-1] < vs[:, 1:]  # cuts between distinct values, no light child
        ok &= heavy(tl, floor)
        ok &= heavy(tr, floor)
        # imp = (tl - (pl**2 + nl**2) / tl) + (tr - (pr**2 + nr**2) / tr), in
        # that order of operations: each child's term is computed in place over
        # its class sums and lands in its weight's array
        with np.errstate(divide="ignore", invalid="ignore"):
            for sums, weight in ((c[:, :, :-1], tl), (r, tr)):
                np.square(sums, out=sums)
                term = sums[0]
                term += sums[1]
                term /= weight
                np.subtract(weight, term, out=weight)
            imp = tl
            imp += tr
        imp[~ok] = np.inf

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
        goes_left = values.take(np.repeat(feature, open_sizes) * n + rows) \
            <= np.repeat(threshold, open_sizes)
        to_left, to_right = routed & goes_left, routed & ~goes_left
        n_left = np.add.reduceat(to_left, starts, dtype=np.int64)[parents]
        rows = np.concatenate([np.compress(to_left, rows), np.compress(to_right, rows)])
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
    """Trees as flat arrays, holding all that their node objects hold.

    Node arrays are (K, W), padded to the widest tree, in paired-slot
    layout: the root is slot 0 and the two children of an internal node sit
    in adjacent slots, first[j] (left) and first[j] + 1 (right), tree-local.
    A routing step is then at = first[at] + (not value <= threshold[at]). A
    leaf or padding slot j has feature -1, threshold NaN and first j - 1, so
    its comparison fails and the step leaves it at j; a NaN input goes right
    the same way. sign and purity are the leaf's, 0 and NaN at internal and
    padding slots.

    The leaf-box table has one row per leaf, in tree order and left-to-right
    leaf order within a tree: the leaf's path as the box (lower, upper] per
    feature, its sign, tree, feasibility (lower < upper everywhere) and
    path_index, its index among the tree's leaves of the same sign.
    """

    feature: np.ndarray
    threshold: np.ndarray
    first: np.ndarray
    sign: np.ndarray
    purity: np.ndarray
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

    def to_trees(self) -> list[Tree]:
        """The trees as node objects with Python int and float values: the
        inverse of flatten."""
        trees = []
        columns = (self.feature, self.threshold, self.first, self.sign, self.purity)
        for feature, threshold, first, sign, purity in zip(*(a.tolist() for a in columns)):
            nodes, depth = [None] * len(feature), [0] * len(feature)
            for j in range(len(feature) - 1, -1, -1):  # children sit in later slots than their parent
                if feature[j] >= 0:
                    c = first[j]
                    nodes[j] = Internal(feature[j], threshold[j], nodes[c], nodes[c + 1])
                    depth[j] = 1 + max(depth[c], depth[c + 1])
                elif sign[j]:
                    nodes[j] = Leaf(sign[j], purity[j])
            trees.append(Tree(root=nodes[0], depth=depth[0], n_leaves=len(sign) - sign.count(0)))
        return trees


def flatten(trees: list[Tree], n_features: int) -> FlatTrees:
    """Compile trees into FlatTrees through their JSON form (tree_to_dict),
    so node objects get the checks and messages of a model load
    (_flatten_dicts)."""
    return _flatten_dicts([tree_to_dict(t) for t in trees], n_features)


def _flatten_dicts(docs: list, n_features: int) -> FlatTrees:
    """Compile trees in tree_to_dict's JSON form into FlatTrees, from one
    depth-first walk over the dicts (see _compile). Each value is converted
    with int() or float(); a leaf sign other than -1/+1, a non-finite
    threshold or a feature index outside [0, n_features) raises ValueError."""
    feature, threshold, sign, purity, sizes = [], [], [], [], []
    for doc in docs:
        start = len(feature)
        stack = [doc]
        while stack:  # the left child is popped first: pre-order
            obj = stack.pop()
            if "sign" in obj:
                s = int(obj["sign"])
                if s != 1 and s != -1:
                    raise ValueError(f"leaf sign must be -1 or +1, got {obj['sign']!r}")
                feature.append(-1)
                threshold.append(math.nan)
                sign.append(s)
                purity.append(float(obj["purity"]))
                continue
            f, t = int(obj["feature"]), float(obj["threshold"])
            if not 0 <= f < n_features:
                raise ValueError(f"split feature {f} outside [0, {n_features})")
            if not math.isfinite(t):
                raise ValueError(f"split threshold {t!r} is not finite")
            feature.append(f)
            threshold.append(t)
            sign.append(0)
            purity.append(math.nan)
            left, right = obj["left"], obj["right"]
            stack += (right, left)
        sizes.append(len(feature) - start)
    return _compile(feature, threshold, sign, purity, sizes, n_features)


def _compile(feature: list, threshold: list, sign: list, purity: list, sizes: list[int],
             n_features: int) -> FlatTrees:
    """FlatTrees of trees given node by node in depth-first pre-order, left
    subtree first: each node's feature and threshold (-1 and NaN at a leaf)
    and sign and purity (0 and NaN at an internal node), and each tree's
    node count in sizes.

    The slots follow from that order. The m-th internal node of a tree has
    its children in slots 2m + 1 and 2m + 2: the left child is the next
    node, and the right child the first later node at the parent's level,
    where a node's level counts +1 per internal node and -1 per leaf before
    it. The leaves come left to right, and fill the leaf-box table in that
    order; the boxes are built with numpy, one ancestor level per step for
    all leaves of all trees at once.
    """
    feature, sizes = np.array(feature, dtype=np.int64), np.array(sizes, dtype=np.int64)
    k, width = sizes.size, int(sizes.max(initial=1))
    is_inner = feature >= 0
    step = np.where(is_inner, 1, -1)
    by_level = np.argsort(np.cumsum(step) - step, kind="stable")
    after = np.empty(feature.size, dtype=np.int64)  # the next node at the same level
    after[by_level[:-1]] = by_level[1:]
    node_tree = np.repeat(np.arange(k), sizes)
    rank = np.cumsum(is_inner) - is_inner  # internal nodes before each node
    rank -= rank[np.cumsum(sizes) - sizes][node_tree]  # ... within its tree
    inner = np.flatnonzero(is_inner)
    slot = np.zeros(feature.size, dtype=np.int64)  # the roots stay in slot 0
    slot[inner + 1] = 2 * rank[inner] + 1
    slot[after[inner]] = 2 * rank[inner] + 2
    padded = node_tree * width + slot  # each node's index tree * width + slot

    feat, thr, fst, sgn, pur = (np.full(k * width, fill, dtype=type(fill))
                                for fill in (-1, math.nan, 0, 0, math.nan))
    feat[padded], thr[padded], sgn[padded], pur[padded] = feature, threshold, sign, purity
    fst[padded[inner]] = slot[inner + 1]
    idle = feat < 0  # leaves and padding route to themselves
    fst[idle] = np.flatnonzero(idle) % width - 1

    leaf = padded[~is_inner]
    leaf_sign, leaf_tree = sgn[leaf], leaf // width
    first_leaf = np.searchsorted(leaf_tree, leaf_tree)  # of each leaf's tree
    path_index = np.empty(leaf.size, dtype=np.int64)
    for s in (-1, 1):  # a leaf's count of earlier same-sign leaves in its tree
        is_s = leaf_sign == s
        before = np.cumsum(is_s) - is_s
        path_index[is_s] = (before - before[first_leaf])[is_s]

    # the leaf-box table: walk every leaf up to its root, one level per step
    parent = np.full(k * width, -1)
    parent[padded[inner + 1]] = parent[padded[after[inner]]] = padded[inner]
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
        *(a.reshape(k, width) for a in (feat, thr, fst, sgn, pur)), depth,
        lower=lower,
        upper=upper,
        leaf_sign=leaf_sign,
        tree=leaf_tree,
        feasible=~np.any(lower >= upper, axis=1),
        path_index=path_index,
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
