import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweakboost import (
    Ensemble,
    alpha,
    make_dataset,
    make_demo_dataset,
    model_to_dict,
    train_adaboost,
    update_weights,
)
from tweakboost.cart import (
    MIN_LEAF_WEIGHT,
    Internal,
    Leaf,
    Path,
    PathCondition,
    Tree,
    apply_tree,
    enumerate_paths,
    fit_tree,
    flatten,
    grow_tree,
    path_to_box,
    predict_tree,
    tree_from_dict,
    tree_to_dict,
)

from conftest import desk_ensemble, random_learnable_dataset, stump


# -------------------------------------------------- split oracle

def oracle_best_split(X, y, w):
    """Exhaustive weighted-Gini scan, written independently of the library:
    probability-form impurity over every (feature, midpoint) pair, ties to
    the lower feature then lower threshold. Returns None when nothing splits.
    """
    best = None
    n, d = X.shape
    for f in range(d):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left = X[:, f] <= thr
            wl, wr = w[left].sum(), w[~left].sum()
            if wl < MIN_LEAF_WEIGHT or wr < MIN_LEAF_WEIGHT:
                continue
            imp = 0.0
            for side, wt in ((left, wl), (~left, wr)):
                pp = w[side & (y == 1)].sum() / wt
                pn = w[side & (y == -1)].sum() / wt
                imp += wt * (1.0 - pp * pp - pn * pn)
            if best is None or imp < best[0] - 1e-15:
                best = (imp, f, thr)
    return best


def test_root_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = rng.integers(4, 13)
        d = rng.integers(1, 4)
        X = np.round(rng.uniform(0, 10, size=(n, d)), 2)
        y = rng.choice([-1, 1], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        ds = make_dataset(X, y, [f"f{i}" for i in range(d)])
        t = fit_tree(ds, w, max_depth=1)
        expected = oracle_best_split(X, y, w)
        if expected is None:
            assert isinstance(t.root, Leaf)
            continue
        imp_min, f, thr = expected
        parent = 1.0 - (w[y == 1].sum()) ** 2 - (w[y == -1].sum()) ** 2
        if not imp_min < parent - 1e-15:
            # no strict gain: library is allowed to stop at a leaf
            if isinstance(t.root, Leaf):
                continue
        assert isinstance(t.root, Internal), (trial, expected)
        got = oracle_impurity_of(X, y, w, t.root.feature, t.root.threshold)
        assert got <= imp_min + 1e-9, (trial, got, expected)


def oracle_impurity_of(X, y, w, f, thr):
    left = X[:, f] <= thr
    wl, wr = w[left].sum(), w[~left].sum()
    imp = 0.0
    for side, wt in ((left, wl), (~left, wr)):
        pp = w[side & (y == 1)].sum() / wt
        pn = w[side & (y == -1)].sum() / wt
        imp += wt * (1.0 - pp * pp - pn * pn)
    return imp


# -------------------------------------------------- reference fit

def reference_best_split(X, y, w, idx, min_leaf_weight):
    """The split search as it was before the per-dataset sort: each node
    re-sorts every feature (stable, over its ascending row indices) and
    scans the features one by one. First strict improvement wins."""
    best = None
    pos_mask = y[idx] == 1
    wp = np.where(pos_mask, w[idx], 0.0)
    wn = np.where(pos_mask, 0.0, w[idx])
    for f in range(X.shape[1]):
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        if vs[0] == vs[-1]:
            continue  # constant within node
        cp = np.cumsum(wp[order])
        cn = np.cumsum(wn[order])
        cut = np.nonzero(vs[:-1] < vs[1:])[0]
        pl, nl = cp[cut], cn[cut]
        pr, nr = cp[-1] - pl, cn[-1] - nl
        tl, tr = pl + nl, pr + nr
        ok = (tl >= min_leaf_weight) & (tr >= min_leaf_weight) & (tl > 0) & (tr > 0)
        if not np.any(ok):
            continue
        imp = np.full(cut.shape, np.inf)
        imp[ok] = (tl[ok] - (pl[ok] ** 2 + nl[ok] ** 2) / tl[ok]) + (
            tr[ok] - (pr[ok] ** 2 + nr[ok] ** 2) / tr[ok]
        )
        i = int(np.argmin(imp))  # first minimum -> lowest threshold
        if best is None or imp[i] < best[0]:
            best = (float(imp[i]), f, float(0.5 * (vs[cut[i]] + vs[cut[i] + 1])))
    return best


def reference_fit_tree(ds, sample_weights, max_depth, min_leaf_weight=MIN_LEAF_WEIGHT):
    """fit_tree on top of reference_best_split. Only the nodes are built;
    depth and n_leaves, which tree_to_dict does not read, stay 0."""
    w = np.asarray(sample_weights, dtype=np.float64)
    X, y = ds.rows, ds.labels

    def leaf(pos, neg):
        total = pos + neg
        return Leaf(1 if pos > neg else -1, float(max(pos, neg) / total) if total > 0 else 1.0)

    def build(idx, depth):
        pos = float(w[idx][y[idx] == 1].sum())
        neg = float(w[idx][y[idx] == -1].sum())
        total = pos + neg
        if depth >= max_depth or pos == 0.0 or neg == 0.0:
            return leaf(pos, neg)
        found = reference_best_split(X, y, w, idx, min_leaf_weight)
        if found is None:
            return leaf(pos, neg)
        imp_children, f, thr = found
        if not imp_children < total - (pos**2 + neg**2) / total:
            return leaf(pos, neg)
        go_left = X[idx, f] <= thr
        return Internal(f, thr, build(idx[go_left], depth + 1), build(idx[~go_left], depth + 1))

    return Tree(root=build(np.arange(ds.n_rows), 0), depth=0, n_leaves=0)


def reference_train(ds, K, max_depth):
    """train_adaboost's SAMME loop on reference_fit_tree, routing the training
    rows with apply_tree."""
    n = ds.n_rows
    w = np.full(n, 1.0 / n)
    trees, alphas, errors, rows = [], [], [], [w.copy()]
    for _ in range(K):
        tree = reference_fit_tree(ds, w, max_depth)
        miss = apply_tree(tree, ds.rows) != ds.labels
        err = float(w[miss].sum())
        if err >= 0.5:
            break
        a = alpha(err)
        trees.append(tree)
        alphas.append(a)
        errors.append(err)
        w = update_weights(w, miss, a)
        rows.append(w.copy())
        if err == 0.0:
            break
    return Ensemble(trees=trees, alphas=np.array(alphas), trajectories=np.array(rows),
                    staged_errors=np.array(errors), schema=list(ds.schema),
                    config={"K": K, "max_depth": max_depth, "seed": 0})


def tree_shape(node, depth=0):
    """(depth, n_leaves) of a node tree, counted by walking it."""
    if isinstance(node, Leaf):
        return depth, 1
    (dl, nl), (dr, nr) = tree_shape(node.left, depth + 1), tree_shape(node.right, depth + 1)
    return max(dl, dr), nl + nr


def test_fit_tree_matches_reference_fit():
    rng = np.random.default_rng(2024)
    for trial in range(150):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        X = rng.integers(0, rng.integers(1, 6), size=(n, d)).astype(float)  # many duplicates
        X[:, rng.integers(0, d)] = 3.0  # a constant column
        if rng.random() < 0.5:
            X = X + np.round(rng.normal(size=(n, d)), 1)
        y = rng.choice([-1, 1], size=n)
        w = rng.pareto(1.0, size=n) + 1e-12  # skewed
        w /= w.sum()
        mlw = float(rng.choice([MIN_LEAF_WEIGHT, 0.05, 0.2, 0.45]))
        ds = make_dataset(X, y, [f"f{i}" for i in range(d)])
        for depth in (1, 3, 8):
            got, signs = grow_tree(ds, w, max_depth=depth, min_leaf_weight=mlw)
            want = reference_fit_tree(ds, w, depth, mlw)
            assert tree_to_dict(got) == tree_to_dict(want), (trial, depth, mlw)
            assert (got.depth, got.n_leaves) == tree_shape(got.root), (trial, depth, mlw)
            assert np.array_equal(signs, apply_tree(got, X)), (trial, depth, mlw)
            assert tree_to_dict(fit_tree(ds, w, depth, mlw)) == tree_to_dict(got)


@pytest.mark.parametrize("depth, K", [(4, 30), (6, 20), (8, 10)])
def test_boosted_models_match_reference_fit(depth, K):
    ds = make_demo_dataset()
    got = model_to_dict(train_adaboost(ds, K=K, max_depth=depth))
    assert got == model_to_dict(reference_train(ds, K, depth))


def test_boosted_model_on_16000_rows_matches_reference_fit():
    # a class sum over more elements than numpy's 8192-element buffer
    ds = make_demo_dataset(n_rows=16000)
    assert max(np.sum(ds.labels == 1), np.sum(ds.labels == -1)) > 8192
    got = model_to_dict(train_adaboost(ds, K=3, max_depth=6))
    assert got == model_to_dict(reference_train(ds, 3, 6))


def test_split_tie_breaks_to_lower_feature_and_threshold():
    # both features separate perfectly; expect feature 0
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    ds = make_dataset(X, [-1, 1], ["a", "b"])
    t = fit_tree(ds, np.array([0.5, 0.5]), max_depth=1)
    assert isinstance(t.root, Internal)
    assert t.root.feature == 0
    assert t.root.threshold == 0.5


def test_thresholds_are_midpoints(tiny_ds):
    w = np.full(tiny_ds.n_rows, 1.0 / tiny_ds.n_rows)
    t = fit_tree(tiny_ds, w, max_depth=3)

    def check(node):
        if isinstance(node, Internal):
            col = np.unique(tiny_ds.rows[:, node.feature])
            mids = (col[:-1] + col[1:]) / 2.0
            assert node.threshold in mids
            check(node.left)
            check(node.right)

    check(t.root)


def test_boundary_value_routes_left():
    t = stump(0, 3.0, -1, 1)
    assert predict_tree(t, np.array([3.0])) == -1
    assert predict_tree(t, np.array([3.0000001])) == 1


def test_pure_node_stops():
    X = np.array([[1.0], [2.0], [3.0]])
    ds = make_dataset(X, [1, 1, 1], ["a"])
    t = fit_tree(ds, np.full(3, 1 / 3), max_depth=4)
    assert isinstance(t.root, Leaf)
    assert t.root.sign == 1
    assert t.depth == 0 and t.n_leaves == 1


def test_constant_features_stop():
    X = np.array([[5.0], [5.0]])
    ds = make_dataset(X, [1, -1], ["a"])
    t = fit_tree(ds, np.array([0.5, 0.5]), max_depth=3)
    assert isinstance(t.root, Leaf)


def test_leaf_sign_tie_is_negative():
    X = np.array([[5.0], [5.0]])
    ds = make_dataset(X, [1, -1], ["a"])
    t = fit_tree(ds, np.array([0.5, 0.5]), max_depth=2)
    assert isinstance(t.root, Leaf)
    assert t.root.sign == -1


def test_max_depth_respected():
    rng = np.random.default_rng(7)
    ds = random_learnable_dataset(rng, 60, 4)
    w = np.full(60, 1 / 60)
    for depth in (1, 2, 3):
        t = fit_tree(ds, w, max_depth=depth)
        assert t.depth <= depth

        def measure(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        assert measure(t.root) == t.depth


def test_fit_tree_validates_weights(tiny_ds):
    n = tiny_ds.n_rows
    with pytest.raises(ValueError, match="sum"):
        fit_tree(tiny_ds, np.full(n, 1.0), max_depth=1)
    with pytest.raises(ValueError, match="negative"):
        fit_tree(tiny_ds, np.array([1.5, -0.5, 0, 0, 0, 0]), max_depth=1)
    with pytest.raises(ValueError, match="finite"):  # NaN slips past both checks above
        fit_tree(tiny_ds, np.array([np.nan, 0.2, 0.2, 0.2, 0.2, 0.2]), max_depth=2)
    with pytest.raises(ValueError, match="length"):
        fit_tree(tiny_ds, np.full(n + 1, 1 / (n + 1)), max_depth=1)
    with pytest.raises(ValueError, match="max_depth"):
        fit_tree(tiny_ds, np.full(n, 1 / n), max_depth=0)


def test_apply_tree_matches_predict_tree():
    rng = np.random.default_rng(5)
    ds = random_learnable_dataset(rng, 120, 5)
    w = rng.uniform(0.2, 1.0, 120)
    w /= w.sum()
    t = fit_tree(ds, w, max_depth=4)
    batch = apply_tree(t, ds.rows)
    single = np.array([predict_tree(t, x) for x in ds.rows])
    assert np.array_equal(batch, single)


def test_flat_routing_of_uneven_trees_matches_predict_tree():
    # a bare leaf, a stump and a lopsided tree share one padded node table
    lopsided = Tree(
        root=Internal(0, 1.0, Leaf(-1, 1.0),
                      Internal(1, 2.0, Internal(0, 3.0, Leaf(1, 1.0), Leaf(-1, 1.0)),
                               Leaf(1, 1.0))),
        depth=3, n_leaves=4,
    )
    trees = [Tree(root=Leaf(1, 1.0), depth=0, n_leaves=1), stump(1, 0.5, 1, -1), lopsided]
    values = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 9.0, np.nan)  # NaN fails every <= and goes right
    X = np.array([[x0, x1] for x0 in values for x1 in values])
    # all three together (the bare leaf and the stump padded to the lopsided
    # tree's width), and each alone (K=1)
    for group in [trees] + [[t] for t in trees]:
        signs = flatten(group, 2).signs(X)
        assert np.array_equal(signs, [[predict_tree(t, x) for x in X] for t in group])


def test_flat_layout_pairs_children_and_parks_leaves():
    lopsided = Tree(
        root=Internal(0, 1.0, Leaf(-1, 1.0),
                      Internal(1, 2.0, Leaf(1, 1.0), Leaf(-1, 1.0))),
        depth=2, n_leaves=3,
    )
    flat = flatten([Tree(root=Leaf(1, 1.0), depth=0, n_leaves=1), lopsided], 2)
    slots = np.arange(5)
    # bare leaf: its root parks on itself, the other four slots are padding
    assert np.array_equal(flat.feature[0], [-1] * 5)
    assert np.array_equal(flat.first[0], slots - 1)
    assert np.array_equal(flat.sign[0], [1, 0, 0, 0, 0])
    # lopsided: root's children in slots 1-2, the right child's in 3-4
    assert np.array_equal(flat.feature[1], [0, -1, 1, -1, -1])
    assert np.array_equal(flat.first[1], [1, 0, 3, 2, 3])
    assert np.array_equal(flat.sign[1], [0, -1, 0, 1, -1])
    assert np.array_equal(np.isnan(flat.threshold), flat.feature < 0)
    assert flat.depth == 2


def test_leaf_box_table_matches_enumerate_paths(demo_model, deep_demo_model):
    for model in (demo_model, deep_demo_model):
        flat = model.flat
        for k, t in enumerate(model.trees):
            for sign in (-1, 1):
                rows = np.flatnonzero((flat.tree == k) & (flat.leaf_sign == sign))
                paths = enumerate_paths(t, sign, tree_index=k)
                assert len(rows) == len(paths)
                for r, p in zip(rows, paths):
                    box = path_to_box(p, model.n_features)
                    assert flat.path_index[r] == p.path_index
                    assert np.array_equal(flat.lower[r], box.lower)
                    assert np.array_equal(flat.upper[r], box.upper)
                    assert flat.feasible[r] == box.feasible
        assert np.array_equal(flat.tree, np.sort(flat.tree))  # tree order
        assert flat.depth == max(t.depth for t in model.trees)


# -------------------------------------------------- path enumeration

def test_paths_partition_leaves():
    rng = np.random.default_rng(13)
    ds = random_learnable_dataset(rng, 80, 3)
    w = np.full(80, 1 / 80)
    t = fit_tree(ds, w, max_depth=3)
    pos = enumerate_paths(t, 1)
    neg = enumerate_paths(t, -1)
    assert len(pos) + len(neg) == t.n_leaves
    assert [p.path_index for p in pos] == list(range(len(pos)))
    assert [p.path_index for p in neg] == list(range(len(neg)))
    assert all(p.leaf_sign == 1 for p in pos)
    assert all(p.leaf_sign == -1 for p in neg)


def test_path_interior_point_routes_to_its_leaf():
    rng = np.random.default_rng(29)
    for _ in range(10):
        ds = random_learnable_dataset(rng, 60, 3)
        w = np.full(60, 1 / 60)
        t = fit_tree(ds, w, max_depth=3)
        for sign in (-1, 1):
            for p in enumerate_paths(t, sign):
                box = path_to_box(p, 3)
                assert box.feasible
                lo = np.where(np.isneginf(box.lower), -100.0, box.lower)
                hi = np.where(np.isposinf(box.upper), 100.0, box.upper)
                mid = (lo + hi) / 2.0
                assert p.satisfied_by(mid)
                assert box.contains(mid)
                assert predict_tree(t, mid) == sign


def test_path_to_box_half_open_semantics():
    p = Path(
        conditions=(PathCondition(0, ">", 1.0), PathCondition(0, "<=", 4.0)),
        leaf_sign=1,
    )
    box = path_to_box(p, 1)
    assert box.feasible
    assert not box.contains(np.array([1.0]))   # lower end open
    assert box.contains(np.array([4.0]))       # upper end closed
    assert box.contains(np.array([2.5]))
    assert not box.contains(np.array([4.1]))


def test_path_to_box_flags_contradiction():
    p = Path(
        conditions=(PathCondition(0, ">", 5.0), PathCondition(0, "<=", 3.0)),
        leaf_sign=1,
    )
    box = path_to_box(p, 1)
    assert not box.feasible
    assert 0 in box.infeasible_features


def test_tightest_bound_wins():
    p = Path(
        conditions=(
            PathCondition(0, "<=", 7.0),
            PathCondition(0, "<=", 4.0),
            PathCondition(0, ">", 1.0),
            PathCondition(0, ">", 2.0),
        ),
        leaf_sign=-1,
    )
    box = path_to_box(p, 1)
    assert box.lower[0] == 2.0
    assert box.upper[0] == 4.0


# -------------------------------------------------- serialization

def test_tree_dict_round_trip():
    rng = np.random.default_rng(3)
    ds = random_learnable_dataset(rng, 50, 3)
    t = fit_tree(ds, np.full(50, 0.02), max_depth=3)
    d = tree_to_dict(t)
    back = tree_from_dict(d, 3)
    assert back == t
    assert tree_to_dict(back) == d


def test_tree_from_dict_rejects_bad_nodes():
    good = tree_to_dict(stump(1, 2.5, -1, 1))
    assert tree_from_dict(good, n_features=2) == stump(1, 2.5, -1, 1)
    bad_leaf = {"sign": 0, "purity": 1.0}
    for key, value, match in (("feature", 2, "feature"), ("feature", -1, "feature"),
                              ("threshold", float("nan"), "threshold"),
                              ("threshold", float("inf"), "threshold"),
                              ("left", bad_leaf, "sign")):
        with pytest.raises(ValueError, match=match):
            tree_from_dict({**good, key: value}, n_features=2)


def test_tree_dict_key_order():
    t = stump(0, 2.5, -1, 1)
    d = tree_to_dict(t)
    assert list(d.keys()) == ["feature", "threshold", "left", "right"]
    assert list(d["left"].keys()) == ["sign", "purity"]


# -------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(
    thr=st.floats(-100, 100, allow_nan=False),
    x=st.floats(-100, 100, allow_nan=False),
)
def test_stump_routing_is_total_and_boundary_left(thr, x):
    t = stump(0, thr, -1, 1)
    got = predict_tree(t, np.array([x]))
    assert got == (-1 if x <= thr else 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_instance_lands_on_exactly_one_path(seed):
    rng = np.random.default_rng(seed)
    ds = random_learnable_dataset(rng, 40, 2)
    t = fit_tree(ds, np.full(40, 1 / 40), max_depth=2)
    x = rng.uniform(-5, 15, size=2)
    hits = [
        p
        for sign in (-1, 1)
        for p in enumerate_paths(t, sign)
        if p.satisfied_by(x)
    ]
    assert len(hits) == 1
    assert hits[0].leaf_sign == predict_tree(t, x)
