import itertools
import operator

import numpy as np
import pytest

from tweakboost import (
    Counterfactual,
    EpsilonPolicy,
    FeatureSchema,
    GridGuardError,
    NotFound,
    brute_force_oracle,
    distance,
    ensemble_margins,
    explain,
    generate_candidates,
    make_dataset,
    make_demo_dataset,
    oracle_grid,
    predict_ensemble,
    save_csv,
    save_model,
    select_kprime_alpha_mass,
    train_adaboost,
)
from tweakboost.cart import (Internal, Leaf, Path, PathCondition, Tree, enumerate_paths,
                             path_to_box, predict_tree)
from tweakboost import cart, cli, tweak
from tweakboost.tweak import _FIRST_CHUNK, NORMS, epsilon_transform

from conftest import desk_ensemble, leaf_tree, make_schema, random_learnable_dataset, stump

EPS_ABS = EpsilonPolicy(mode="absolute", value=0.1)


def three_stump_ensemble(**schema_range):
    return desk_ensemble(
        [stump(0, 2.5, -1, 1), stump(1, 1.0, -1, 1), stump(0, 4.0, 1, -1)],
        [0.9, 0.5, 0.4], **schema_range,
    )


# -------------------------------------------------- epsilon policy

def test_epsilon_policy_validation():
    with pytest.raises(ValueError):
        EpsilonPolicy(mode="relative", value=0.1)
    with pytest.raises(ValueError):
        EpsilonPolicy(value=0.0)
    with pytest.raises(ValueError):
        EpsilonPolicy(value=-1.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            EpsilonPolicy(mode="absolute", value=bad)


def test_epsilon_per_feature_scaling():
    schema = make_schema(2, 0.0, 10.0)
    np.testing.assert_allclose(EpsilonPolicy().per_feature(schema), [0.1, 0.1])
    np.testing.assert_allclose(EPS_ABS.per_feature(schema), [0.1, 0.1])
    const = [FeatureSchema(name="c", index=0, min=5.0, max=5.0, mean=5.0, stddev=0.0)]
    np.testing.assert_allclose(EpsilonPolicy(value=0.03).per_feature(const), [0.03])


def test_epsilon_that_overflows_on_a_feature_is_refused():
    # 1e308 times a range of 10 is past the largest float; feature 1 has range 0
    schema = [*make_schema(1), FeatureSchema(name="c", index=1, min=5.0, max=5.0, mean=5.0,
                                             stddev=0.0)]
    with pytest.raises(ValueError, match=r"not finite on features \[0\]"):
        EpsilonPolicy(value=1e308).per_feature(schema)
    np.testing.assert_array_equal(
        EpsilonPolicy(mode="absolute", value=1e308).per_feature(schema), [1e308, 1e308])


# -------------------------------------------------- the transform

def test_transform_moves_to_epsilon_inside_upper():
    p = Path(conditions=(PathCondition(0, "<=", 3.0),), leaf_sign=1)
    values, tweaked = epsilon_transform(np.array([5.0]), p, np.array([0.1]))
    np.testing.assert_allclose(values, [2.9])
    assert tweaked == {0}


def test_transform_leaves_satisfied_features_alone():
    p = Path(conditions=(PathCondition(0, ">", 3.0),), leaf_sign=1)
    values, tweaked = epsilon_transform(np.array([5.0]), p, np.array([0.1]))
    np.testing.assert_allclose(values, [5.0])
    assert tweaked == frozenset()


def test_transform_moves_to_epsilon_inside_lower():
    p = Path(conditions=(PathCondition(0, ">", 3.0),), leaf_sign=1)
    values, tweaked = epsilon_transform(np.array([1.0]), p, np.array([0.1]))
    np.testing.assert_allclose(values, [3.1])
    assert tweaked == {0}


def test_transform_narrow_box_is_infeasible():
    p = Path(
        conditions=(PathCondition(0, ">", 1.0), PathCondition(0, "<=", 1.05)),
        leaf_sign=1,
    )
    assert epsilon_transform(np.array([0.0]), p, np.array([0.1])) is None


def test_transform_rejects_contradictory_path():
    p = Path(
        conditions=(PathCondition(0, ">", 5.0), PathCondition(0, "<=", 3.0)),
        leaf_sign=1,
    )
    with pytest.raises(ValueError, match="infeasible"):
        epsilon_transform(np.array([0.0]), p, np.array([0.1]))


def test_transform_checks_arity():
    p = Path(conditions=(PathCondition(0, "<=", 3.0),), leaf_sign=1)
    box = path_to_box(p, 2)
    with pytest.raises(ValueError, match="arity"):
        epsilon_transform(np.array([1.0]), box, np.array([0.1, 0.1]))


# -------------------------------------------------- distance

def test_distance_identity_is_zero():
    schema = make_schema(3)
    x = np.array([1.0, 2.0, 3.0])
    for norm in ("L2_std", "L1_std", "L0"):
        assert distance(x, x, schema, norm) == 0.0


def test_distance_one_sigma_change():
    schema = make_schema(2)
    sigma = schema[0].stddev
    x = np.array([5.0, 5.0])
    moved = np.array([5.0 + sigma, 5.0])
    assert distance(x, moved, schema, "L2_std") == pytest.approx(1.0)
    assert distance(x, moved, schema, "L1_std") == pytest.approx(1.0)
    assert distance(x, moved, schema, "L0") == 1.0


def test_distance_two_sigma_changes():
    schema = make_schema(2)
    sigma = schema[0].stddev
    x = np.array([5.0, 5.0])
    moved = x + sigma
    assert distance(x, moved, schema, "L2_std") == pytest.approx(np.sqrt(2.0))
    assert distance(x, moved, schema, "L0") == 2.0


def test_distance_excludes_constant_features():
    schema = [
        FeatureSchema(name="a", index=0, min=0.0, max=10.0, mean=5.0, stddev=2.0),
        FeatureSchema(name="c", index=1, min=7.0, max=7.0, mean=7.0, stddev=0.0),
    ]
    x = np.array([5.0, 7.0])
    moved = np.array([5.0, 9.0])  # only the constant feature changed
    assert distance(x, moved, schema, "L2_std") == 0.0
    assert distance(x, moved, schema, "L0") == 0.0


def test_distance_of_a_matrix_is_its_rows_distances():
    # more than 8 features: the row sums must match lone 1-D sums bit for bit
    rng = np.random.default_rng(3)
    schema = make_schema(11)
    x = rng.uniform(0, 10, 11)
    cands = rng.uniform(0, 10, (40, 11))
    for norm in ("L2_std", "L1_std", "L0"):
        many = distance(x, cands, schema, norm)
        assert many.shape == (40,)
        assert [distance(x, c, schema, norm) for c in cands] == many.tolist()


def test_distance_that_overflows_is_inf_without_a_warning():
    # pyproject turns a RuntimeWarning into an error
    schema = make_schema(2)  # sigma about 2.9
    x, far = np.array([-1e308, 0.0]), np.array([[1e308, 0.0], [-1e308, 1e300]])
    # the difference overflows; the square of a finite 1e300 / sigma overflows
    # too, but L2_std then sums the row over its largest term, so it fits
    for norm in ("L2_std", "L1_std"):
        got = distance(x, far, schema, norm)
        assert got[0] == np.inf and got[1] == 1e300 / schema[1].stddev
        assert distance(x, far[1], schema, norm) == got[1]
    np.testing.assert_array_equal(distance(x, far, schema, "L0"), [1.0, 1.0])
    # sigma about 0.29: finite dx / sigma of about 1.7e308 whose L2 norm is beyond float
    # range, and a dx of 1e308 whose dx / sigma is; both read inf
    narrow, origin = make_schema(2, 0.0, 1.0), np.zeros(2)
    beyond = np.array([[5e307, 5e307], [1e308, 0.0]])
    assert np.all(np.isfinite(beyond[0] / [f.stddev for f in narrow]))
    for norm in ("L2_std", "L1_std"):
        np.testing.assert_array_equal(distance(origin, beyond, narrow, norm), [np.inf, np.inf])
    # a row that does not overflow keeps the plain sum's bits
    z = np.array([3.0, 4.0]) / [f.stddev for f in schema]
    assert distance(np.zeros(2), [3.0, 4.0], schema, "L2_std") == np.sqrt((z**2).sum())


def test_distance_rejects_unknown_norm():
    with pytest.raises(ValueError, match="norm"):
        distance(np.array([1.0]), np.array([1.0]), make_schema(1), "L3")


# -------------------------------------------------- candidate generation

def tree_order_margin(alphas, trees, z):
    """The vote summed tree by tree from 0.0 with the reference walk."""
    total = 0.0
    for a, t in zip(alphas, trees):
        total += a * predict_tree(t, z)
    return total


def leaf_walk_oracle(e, x, eps_vec, k_prime=None):
    """Independent enumeration: walk every leaf of every agreeing tree among
    the first k_prime and apply the tweak rules directly. A lower bound that
    eps cannot move (lo + eps == lo) is crossed by one ulp instead. Returns
    [(k, j, values, full-ensemble verdict, L2_std distance)]."""
    trees = e.flat.to_trees()
    s = 1 if tree_order_margin(e.alphas, trees, x) > 0 else -1
    sigma = np.array([f.stddev for f in e.schema])
    used = sigma != 0.0
    out = []
    for k, t in enumerate(trees[:k_prime]):
        if predict_tree(t, x) != s:
            continue
        j = -1
        for p in enumerate_paths(t, -s, tree_index=k):
            j += 1
            box = path_to_box(p, e.n_features)
            if not box.feasible:
                continue
            vals = x.copy()
            ok = True
            for f in range(e.n_features):
                lo, hi = box.lower[f], box.upper[f]
                if lo < vals[f] <= hi:
                    continue
                if hi - lo <= eps_vec[f]:
                    ok = False
                    break
                if vals[f] > hi:
                    vals[f] = hi - eps_vec[f]
                elif lo + eps_vec[f] != lo:
                    vals[f] = lo + eps_vec[f]
                else:
                    vals[f] = np.nextafter(lo, np.inf)
            if ok:
                verdict = 1 if tree_order_margin(e.alphas, trees, vals) > 0 else -1
                z = (vals - x)[used] / sigma[used]
                out.append((k, j, vals, verdict, float(np.sqrt((z**2).sum()))))
    return out


def assert_candidates_equal_leaf_walk(e, rows, eps=EpsilonPolicy(), k_prime=None):
    for x in rows:
        cands = generate_candidates(e, x, eps, k_prime=k_prime)
        expected = leaf_walk_oracle(e, x, eps.per_feature(e.schema), k_prime)
        assert [(c.tree_index, c.path_index) for c in cands] == \
            [(k, j) for k, j, *_ in expected]
        for c, (_, _, vals, verdict, dist) in zip(cands, expected):
            np.testing.assert_array_equal(c.values, vals)
            assert c.ensemble_verdict == verdict
            assert c.distance == dist


def test_desk_candidates_match_leaf_walk():
    assert_candidates_equal_leaf_walk(three_stump_ensemble(), [np.array([2.0, 0.5])], EPS_ABS)


def test_candidates_equal_leaf_walk_on_demo_model(demo_model, demo_ds):
    assert_candidates_equal_leaf_walk(demo_model, demo_ds.rows[::60])


def test_candidates_equal_leaf_walk_on_deep_prefix(deep_demo_model, demo_ds):
    k_prime = select_kprime_alpha_mass(deep_demo_model, 0.8).k_prime
    assert k_prime < deep_demo_model.k
    assert_candidates_equal_leaf_walk(deep_demo_model, demo_ds.rows[5::100], k_prime=k_prime)


def test_desk_candidate_values_and_verdicts():
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])
    assert predict_ensemble(e, x)[0] == -1
    cands = generate_candidates(e, x, EPS_ABS)
    # the tree voting +1 disagrees with the ensemble and contributes nothing
    assert [(c.tree_index, c.path_index) for c in cands] == [(0, 0), (1, 0)]
    np.testing.assert_allclose(cands[0].values, [2.6, 0.5])
    np.testing.assert_allclose(cands[1].values, [2.0, 1.1])
    assert cands[0].ensemble_verdict == 1   # margin 0.9-0.5+0.4 = +0.8
    assert cands[1].ensemble_verdict == -1  # margin exactly 0 resolves to -1
    assert cands[0].tweaked_features == {0}
    assert cands[1].tweaked_features == {1}


def test_candidates_untweaked_features_equal_original():
    rng = np.random.default_rng(77)
    ds = random_learnable_dataset(rng, 60, 4)
    e = train_adaboost(ds, K=6, max_depth=2)
    x = ds.rows[5]
    for c in generate_candidates(e, x, EpsilonPolicy()):
        same = [f for f in range(4) if f not in c.tweaked_features]
        np.testing.assert_array_equal(c.values[same], x[same])


def test_candidates_route_to_opposite_leaf():
    rng = np.random.default_rng(78)
    for seed in range(8):
        ds = random_learnable_dataset(np.random.default_rng(seed), 60, 3)
        e = train_adaboost(ds, K=7, max_depth=3)
        if e.k == 0:
            continue
        x = ds.rows[int(rng.integers(0, 60))]
        s = predict_ensemble(e, x)[0]
        trees = e.flat.to_trees()
        for c in generate_candidates(e, x, EpsilonPolicy()):
            assert predict_tree(trees[c.tree_index], c.values) == -s


def test_candidate_tweaks_are_minimal():
    """Reverting any single tweaked feature must break the source path."""
    rng = np.random.default_rng(79)
    ds = random_learnable_dataset(rng, 60, 3)
    e = train_adaboost(ds, K=6, max_depth=3)
    x = ds.rows[0]
    s = predict_ensemble(e, x)[0]
    checked, trees = 0, e.flat.to_trees()
    for c in generate_candidates(e, x, EpsilonPolicy()):
        paths = enumerate_paths(trees[c.tree_index], -s, tree_index=c.tree_index)
        path = paths[c.path_index]
        assert path.satisfied_by(c.values)
        for f in c.tweaked_features:
            reverted = c.values.copy()
            reverted[f] = x[f]
            assert not path.satisfied_by(reverted)
            checked += 1
    assert checked > 0


def test_truncated_candidates_are_a_subset():
    rng = np.random.default_rng(80)
    ds = random_learnable_dataset(rng, 80, 4)
    e = train_adaboost(ds, K=10, max_depth=2)
    assert e.k >= 4
    x = ds.rows[2]
    eps = EpsilonPolicy()
    full = {(c.tree_index, c.path_index) for c in generate_candidates(e, x, eps)}
    part = {(c.tree_index, c.path_index)
            for c in generate_candidates(e, x, eps, k_prime=e.k // 2)}
    assert part <= full


def test_generate_candidates_validates_k_prime():
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])
    for bad in (0, 4, -1):
        with pytest.raises(ValueError, match="k_prime"):
            generate_candidates(e, x, EPS_ABS, k_prime=bad)


# -------------------------------------------------- explain

def test_explain_desk_case():
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])
    res = explain(e, x, EPS_ABS)
    assert isinstance(res, Counterfactual)
    np.testing.assert_allclose(res.transformed, [2.6, 0.5])
    assert res.delta == {0: (2.0, 2.6)}
    sigma = e.schema[0].stddev
    assert res.distance == pytest.approx(0.6 / sigma)
    assert res.n_candidates_evaluated == 2
    assert res.k_prime_used is None
    assert (res.source_tree, res.source_path) == (0, 0)
    # the counterfactual actually flips
    assert predict_ensemble(e, res.transformed)[0] == 1


def test_explain_single_stump():
    e = desk_ensemble([stump(0, 2.5, -1, 1)], [1.0])
    res = explain(e, np.array([1.0, 9.0]), EPS_ABS)
    assert isinstance(res, Counterfactual)
    np.testing.assert_allclose(res.transformed, [2.6, 9.0])
    assert res.delta == {0: (1.0, 2.6)}


def test_explain_returns_not_found_with_diagnostics():
    # candidates exist but a heavy constant voter can't be outvoted
    e = desk_ensemble(
        [stump(0, 5.0, -1, 1), stump(0, 5.0, -1, 1), leaf_tree(-1)],
        [0.5, 0.5, 2.0],
    )
    res = explain(e, np.array([1.0, 1.0]), EPS_ABS)
    assert isinstance(res, NotFound)
    assert res.n_candidates_evaluated == 2
    assert res.k_prime_used is None
    assert "epsilon" in res.message


def test_explain_not_found_when_no_opposite_paths():
    e = desk_ensemble([leaf_tree(-1)], [1.0])
    res = explain(e, np.array([1.0, 1.0]), EPS_ABS)
    assert isinstance(res, NotFound)
    assert res.n_candidates_evaluated == 0


def test_explain_rejects_same_class_target():
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])  # predicted -1
    with pytest.raises(ValueError, match="opposite"):
        explain(e, x, EPS_ABS, target=-1)
    assert isinstance(explain(e, x, EPS_ABS, target=1), Counterfactual)


def test_explain_checks_label_provenance():
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])  # predicted -1
    with pytest.raises(ValueError, match="provenance"):
        explain(e, x, EPS_ABS, label=1)
    assert isinstance(explain(e, x, EPS_ABS, label=-1), Counterfactual)


def test_candidate_at_an_infinite_distance_is_dropped():
    # the epsilon step puts every candidate 1e300 from x: its squares overflow, but
    # L2_std sums them over the largest, so every norm keeps every candidate
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])
    huge = EpsilonPolicy(mode="absolute", value=1e300)
    n = len(generate_candidates(e, x, huge, norm="L0"))
    assert n > 0
    for norm in ("L2_std", "L1_std"):
        cands = generate_candidates(e, x, huge, norm=norm)
        assert len(cands) == n and np.all(np.isfinite(cands.distance))
    # with sigma below 1, an epsilon of 1e308 puts every candidate beyond float
    # range under L2_std and L1_std: each is dropped; the L0 count stays finite
    narrow = three_stump_ensemble(lo=0.0, hi=1.0)
    beyond = EpsilonPolicy(mode="absolute", value=1e308)
    assert len(generate_candidates(narrow, x, beyond, norm="L0")) == n
    for norm in ("L2_std", "L1_std"):
        assert len(generate_candidates(narrow, x, beyond, norm=norm)) == 0
        res = explain(narrow, x, beyond, norm=norm)
        assert isinstance(res, NotFound) and res.n_candidates_evaluated == 0


def test_oracle_never_returns_an_infinite_distance():
    e = desk_ensemble([stump(0, 5.0, -1, 1)], [1.0])
    x = np.array([1.0, 1.0])  # predicted -1; only feature 0 above 5 flips
    grid = [np.array([1.0, 1e300]), np.array([1.0])]
    for norm in ("L2_std", "L1_std"):  # (1e300 / sigma)**2 overflows, the distance does not
        assert brute_force_oracle(e, x, grid, norm=norm).transformed[0] == 1e300
    # with sigma below 1, the point at 1e308 lies beyond float range under either norm
    narrow = desk_ensemble([stump(0, 5.0, -1, 1)], [1.0], lo=0.0, hi=1.0)
    grid[0] = np.array([1.0, 1e308])
    for norm in ("L2_std", "L1_std"):
        assert brute_force_oracle(narrow, x, grid, norm=norm) == NotFound(n_candidates_evaluated=1)
    grid[0] = np.array([1.0, 6.0, 1e308])
    res = brute_force_oracle(narrow, x, grid)
    assert res.transformed[0] == 6.0 and res.n_candidates_evaluated == 2


def test_epsilon_below_float_resolution_crosses_the_threshold():
    # 1e6 + 1e-12 == 1e6, so the open lower bound is crossed by one ulp
    e = desk_ensemble([stump(0, 1e6, -1, 1)], [1.0], lo=0.0, hi=2e6)
    eps = EpsilonPolicy(mode="absolute", value=1e-12)
    x = np.array([999999.0, 5.0])
    res = explain(e, x, eps)
    assert isinstance(res, Counterfactual)
    assert res.transformed[0] == np.nextafter(1e6, np.inf)
    assert predict_ensemble(e, res.transformed)[0] == 1
    p = Path(conditions=(PathCondition(0, ">", 1e6),), leaf_sign=1)
    values, tweaked = epsilon_transform(x, p, eps.per_feature(e.schema))
    np.testing.assert_array_equal(values, res.transformed)
    assert tweaked == {0}


def test_explain_tie_breaks_by_tree_then_path():
    # two identical stumps produce identical candidates; the earlier tree wins
    e = desk_ensemble([stump(0, 2.5, -1, 1), stump(0, 2.5, -1, 1)], [0.6, 0.6])
    res = explain(e, np.array([2.0, 0.0]), EPS_ABS)
    assert isinstance(res, Counterfactual)
    assert (res.source_tree, res.source_path) == (0, 0)


def reference_explain(e, x, eps, k_prime=None, norm="L2_std"):
    """The closest flip by (distance, tree, path), over Candidate records,
    its rank among all candidates in that order, and the candidate count."""
    pred = predict_ensemble(e, x)[0]
    cands = list(generate_candidates(e, x, eps, k_prime=k_prime, norm=norm))
    key = operator.attrgetter("distance", "tree_index", "path_index")
    best = min((c for c in cands if c.ensemble_verdict != pred), key=key, default=None)
    rank = None if best is None else sum(key(c) < key(best) for c in cands)
    return best, rank, len(cands)


def assert_explain_is_reference_minimum(e, rows, eps, k_prime=None, norm="L2_std"):
    """Returns the number of rows whose closest flip lies beyond the first
    chunk explain scores."""
    deep = 0
    for x in rows:
        res = explain(e, x, eps, k_prime=k_prime, norm=norm)
        want, rank, n = reference_explain(e, x, eps, k_prime, norm)
        assert res.n_candidates_evaluated == n
        if want is None:
            assert isinstance(res, NotFound)
            continue
        assert (res.source_tree, res.source_path) == (want.tree_index, want.path_index)
        assert res.distance == want.distance
        np.testing.assert_array_equal(res.transformed, want.values)
        deep += rank >= _FIRST_CHUNK
    return deep


def test_explain_matches_reference_minimum_on_demo_models(demo_model, deep_demo_model, demo_ds):
    # L0's integer distances tie heavily, so they exercise the (tree, path) tie-break
    eps = EpsilonPolicy()
    k_prime = select_kprime_alpha_mass(deep_demo_model, 0.8).k_prime
    for norm in NORMS:
        assert_explain_is_reference_minimum(demo_model, demo_ds.rows[::20], eps, norm=norm)
        deep = assert_explain_is_reference_minimum(deep_demo_model, demo_ds.rows[3::20], eps,
                                                   norm=norm)
        deep += assert_explain_is_reference_minimum(deep_demo_model, demo_ds.rows[7::20], eps,
                                                    k_prime, norm)
        assert deep > 0, norm  # some closest flips rank beyond the first chunk


def counting_margins(monkeypatch):
    """Record the number of rows of each tweak.ensemble_margins call."""
    calls = []

    def counted(e, X, *args, **kwargs):
        calls.append(len(X))
        return ensemble_margins(e, X, *args, **kwargs)

    monkeypatch.setattr(tweak, "ensemble_margins", counted)
    return calls


def test_explain_not_found_scores_every_chunk(monkeypatch):
    # 200 stumps each give one candidate; the constant voter outweighs them all
    n = 200
    stumps = [stump(0, 1.0 + 8.0 * i / n, -1, 1) for i in range(n)]
    e = desk_ensemble(stumps + [leaf_tree(-1)], [0.1] * n + [100.0])
    calls = counting_margins(monkeypatch)
    res = explain(e, np.array([0.5, 0.5]), EPS_ABS)
    assert isinstance(res, NotFound)
    assert res.n_candidates_evaluated == n
    assert calls == [_FIRST_CHUNK, 2 * _FIRST_CHUNK, n - 3 * _FIRST_CHUNK]


def test_explain_scores_fewer_rows_than_candidates(deep_demo_model, demo_ds, monkeypatch):
    x = demo_ds.rows[3]
    n = len(generate_candidates(deep_demo_model, x, EpsilonPolicy()))
    calls = counting_margins(monkeypatch)
    res = explain(deep_demo_model, x, EpsilonPolicy())
    assert isinstance(res, Counterfactual) and res.n_candidates_evaluated == n
    assert 0 < sum(calls) < n


def test_candidate_verdicts_are_computed_on_first_access(deep_demo_model, demo_ds, monkeypatch):
    e, x = deep_demo_model, demo_ds.rows[3]
    calls = counting_margins(monkeypatch)
    cands = generate_candidates(e, x, EpsilonPolicy())
    assert calls == []
    np.testing.assert_array_equal(cands.ensemble_verdict,
                                  np.where(ensemble_margins(e, cands.values) > 0, 1, -1))
    assert calls == [len(cands)]
    assert cands.ensemble_verdict is cands.ensemble_verdict


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_instance_is_rejected(demo_model, demo_ds, bad):
    x = demo_ds.rows[3].copy()
    x[2] = bad
    for call in (generate_candidates, explain):
        with pytest.raises(ValueError, match="finite"):
            call(demo_model, x, EpsilonPolicy())


def test_explain_exact_distance_tie_goes_to_the_lower_tree():
    # two flips at exactly the same distance on different features
    e = desk_ensemble([stump(0, 5.0, -1, 1), stump(1, 5.0, -1, 1), leaf_tree(1)],
                      [0.5, 0.5, 0.4])
    x = np.array([4.0, 4.0])
    cands = generate_candidates(e, x, EPS_ABS)
    assert cands.distance[0] == cands.distance[1]
    assert list(cands.ensemble_verdict) == [1, 1]
    res = explain(e, x, EPS_ABS)
    assert (res.source_tree, res.source_path) == (0, 0)
    np.testing.assert_array_equal(res.transformed, [5.1, 4.0])
    assert_explain_is_reference_minimum(e, [x], EPS_ABS)


def test_explain_distance_never_improves_under_truncation():
    rng = np.random.default_rng(90)
    eps = EpsilonPolicy()
    compared = 0
    for seed in range(12):
        ds = random_learnable_dataset(np.random.default_rng(seed), 70, 3)
        e = train_adaboost(ds, K=12, max_depth=2)
        if e.k < 4:
            continue
        x = ds.rows[int(rng.integers(0, 70))]
        full = explain(e, x, eps)
        part = explain(e, x, eps, k_prime=e.k // 2)
        if isinstance(part, Counterfactual):
            assert isinstance(full, Counterfactual)
            assert part.distance >= full.distance - 1e-12
            compared += 1
    assert compared > 0


def test_explain_flip_soundness_sample():
    rng = np.random.default_rng(91)
    eps = EpsilonPolicy()
    found = 0
    for seed in range(10):
        ds = random_learnable_dataset(np.random.default_rng(100 + seed), 60, 3)
        e = train_adaboost(ds, K=8, max_depth=2)
        if e.k == 0:
            continue
        for _ in range(5):
            x = rng.uniform(0, 10, size=3)
            res = explain(e, x, eps)
            if isinstance(res, Counterfactual):
                found += 1
                assert predict_ensemble(e, res.transformed)[0] != predict_ensemble(e, x)[0]
    assert found > 0


def test_explain_is_deterministic():
    rng = np.random.default_rng(92)
    ds = random_learnable_dataset(rng, 70, 4)
    e = train_adaboost(ds, K=9, max_depth=3)
    x = ds.rows[11]
    a = explain(e, x, EpsilonPolicy())
    b = explain(e, x, EpsilonPolicy())
    assert isinstance(a, Counterfactual)
    np.testing.assert_array_equal(a.transformed, b.transformed)
    assert a.distance == b.distance
    assert (a.source_tree, a.source_path) == (b.source_tree, b.source_path)


# -------------------------------------------------- oracle

def test_oracle_grid_with_x_only_is_not_found():
    e = desk_ensemble([stump(0, 2.5, -1, 1)], [1.0])
    x = np.array([1.0, 1.0])
    for grid in ([np.array([1.0]), np.array([1.0])], [np.array([1.0, 1.0]), np.array([1.0])]):
        res = brute_force_oracle(e, x, grid)
        assert isinstance(res, NotFound)
        assert res.n_candidates_evaluated == 0
        assert_oracle_matches_reference(e, x, grid)


def test_oracle_matches_explain_on_single_stump():
    e = desk_ensemble([stump(0, 2.5, -1, 1)], [1.0])
    x = np.array([1.0, 1.0])
    res = explain(e, x, EPS_ABS)
    grid = [np.array([1.0, 2.4, 2.6]), np.array([1.0])]  # epsilon-inside corners
    oracle = brute_force_oracle(e, x, grid)
    assert isinstance(oracle, Counterfactual)
    assert oracle.distance == pytest.approx(res.distance)
    np.testing.assert_allclose(oracle.transformed, res.transformed)


def test_oracle_never_beaten_by_explain_on_its_grid():
    rng = np.random.default_rng(93)
    eps = EpsilonPolicy()
    for seed in range(6):
        ds = random_learnable_dataset(np.random.default_rng(seed), 60, 2)
        e = train_adaboost(ds, K=3, max_depth=2)
        if e.k == 0:
            continue
        x = rng.uniform(0, 10, size=2)
        res = explain(e, x, eps)
        oracle = brute_force_oracle(e, x, oracle_grid(e, x, eps))
        if isinstance(res, Counterfactual):
            assert isinstance(oracle, Counterfactual)
            assert oracle.distance <= res.distance + 1e-9


def test_oracle_grid_holds_explains_point_below_float_resolution():
    # 5.0 + 1e-300 == 5.0, which routes left: the grid must carry the next float up, as explain does
    e = desk_ensemble([stump(0, 5.0, -1, 1)], [1.0])
    x = np.array([4.0, 5.0])
    eps = EpsilonPolicy(mode="absolute", value=1e-300)
    res = explain(e, x, eps)
    assert res.transformed[0] == np.nextafter(5.0, np.inf)
    oracle = brute_force_oracle(e, x, oracle_grid(e, x, eps, resolution=3))
    assert isinstance(oracle, Counterfactual)
    assert oracle.distance == res.distance
    np.testing.assert_array_equal(oracle.transformed, res.transformed)


def test_oracle_grid_guard():
    e = desk_ensemble([stump(0, 2.5, -1, 1)], [1.0], n_features=3)
    axes = [np.linspace(0, 10, 101)] * 3
    with pytest.raises(GridGuardError):
        brute_force_oracle(e, np.array([1.0, 1.0, 1.0]), axes)


def test_oracle_grid_refuses_an_oversized_resolution_before_filling():
    # 10**13 fill values per axis would be 80 TB: the guard fires before any is made
    e = desk_ensemble([stump(0, 2.5, -1, 1)], [1.0])
    with pytest.raises(GridGuardError, match="point guard"):
        oracle_grid(e, np.array([1.0, 1.0]), EpsilonPolicy(), resolution=10**13)


def test_oracle_validates_grid_arity():
    e = desk_ensemble([stump(0, 2.5, -1, 1)], [1.0])
    with pytest.raises(ValueError, match="axes"):
        brute_force_oracle(e, np.array([1.0, 1.0]), [np.array([1.0])])


def reference_brute_force_oracle(e, x, grid):
    """The point-wise oracle: every product-grid point that differs from x
    through every tree, then its result under each norm. The reshape gives
    an empty axis an empty grid; a bare np.array of the empty product has no
    feature axis."""
    values = np.asarray(x, dtype=np.float64)
    pred, _ = predict_ensemble(e, values)
    pts = np.array(list(itertools.product(*[np.asarray(a, dtype=np.float64) for a in grid])),
                   dtype=np.float64).reshape(-1, len(grid))
    pts = pts[np.any(pts != values, axis=1)]
    n_eval = int(pts.shape[0])
    flipping = pts[np.where(ensemble_margins(e, pts) > 0, 1, -1) != pred]
    results = {}
    for norm in NORMS:
        if not flipping.shape[0]:
            results[norm] = NotFound(n_candidates_evaluated=n_eval)
            continue
        dists = distance(values, flipping, e.schema, norm)
        i = int(np.argmin(dists))
        results[norm] = Counterfactual(original=values, transformed=flipping[i], delta={},
                                       distance=float(dists[i]), n_candidates_evaluated=n_eval)
    return results


def assert_oracle_matches_reference(e, x, grid):
    for norm, want in reference_brute_force_oracle(e, x, grid).items():
        got = brute_force_oracle(e, x, grid, norm=norm)
        assert type(got) is type(want)
        assert got.n_candidates_evaluated == want.n_candidates_evaluated
        if isinstance(want, Counterfactual):
            np.testing.assert_array_equal(got.transformed, want.transformed)
            assert got.distance == want.distance


def two_feature_data():
    """Columns f0 and f3 of the demo generator under a smooth rule with 10%
    label noise."""
    demo = make_demo_dataset(n_rows=400, n_features=5, seed=7)
    X = demo.rows[:, [0, 3]]
    rule = np.tanh((X[:, 0] - 50.0) / 10.0) + 0.8 * np.sin(X[:, 1]) - 0.1 > 0
    flip = np.random.default_rng(7).random(400) < 0.1
    return make_dataset(X, np.where(rule != flip, 1, -1), ["f0", "f3"])


@pytest.fixture(scope="module")
def two_feature_model():
    """two_feature_data boosted to K=50 at depth 3."""
    ds = two_feature_data()
    return train_adaboost(ds, K=50, max_depth=3), ds


@pytest.fixture(scope="module")
def deep_two_feature_model():
    """two_feature_data boosted to K=100 at depth 6: thousands of leaf boxes
    over a few hundred thresholds per feature."""
    ds = two_feature_data()
    return train_adaboost(ds, K=100, max_depth=6), ds


def test_oracle_matches_pointwise_reference_on_two_feature_model(two_feature_model):
    e, ds = two_feature_model
    assert e.k == 50 and e.n_features == 2
    eps = EpsilonPolicy()
    for i in range(0, ds.n_rows, 16):
        x = ds.rows[i]
        assert_oracle_matches_reference(e, x, oracle_grid(e, x, eps, resolution=50))


def test_oracle_matches_pointwise_reference_on_hand_built_grids():
    deep = Tree(root=Internal(0, 2.5, Internal(1, 1.0, Leaf(-1, 1.0), Leaf(1, 1.0)),
                              Internal(0, 4.0, Leaf(1, 1.0), Leaf(-1, 1.0))),
                depth=2, n_leaves=4)
    other = Tree(root=Internal(1, 1.0, Leaf(1, 1.0), Internal(0, 2.5, Leaf(-1, 1.0), Leaf(1, 1.0))),
                 depth=2, n_leaves=3)
    # the same thresholds recur across trees; feature 2 splits at 0.0 only
    e = desk_ensemble([deep, other, stump(0, 4.0, 1, -1), stump(2, 0.0, -1, 1)],
                      [0.8, 0.6, 0.5, 0.45], n_features=3)
    up, down = np.nextafter(2.5, np.inf), np.nextafter(4.0, -np.inf)
    grid = [  # unsorted, duplicated, on and beside thresholds, infinite, beyond every threshold
        np.array([3.0, 2.5, np.inf, 2.5, -np.inf, 7.0, 1.0, 100.0, up, down, 4.0, -3.0]),
        np.array([1.0, 0.0, np.inf, 1.0, -5.0, np.nextafter(1.0, np.inf), 50.0]),
        np.array([0.0, -np.inf, 5.0, 0.0, -0.0, np.nextafter(0.0, -np.inf)]),
    ]
    for x in ([1.0, 0.5, 0.0], [3.0, 1.0, 0.0], [2.5, 1.0, -1.0], [4.0, 2.0, 1.0],
              [100.0, -5.0, 0.0], [2.5, 1.0, 0.0]):
        assert_oracle_matches_reference(e, np.array(x), grid)


def test_oracle_matches_pointwise_reference_on_one_feature_models():
    e = desk_ensemble([stump(0, 2.5, -1, 1), stump(0, 4.0, 1, -1), stump(0, 2.5, -1, 1)],
                      [0.5, 0.9, 0.7], n_features=1)
    for x in (1.0, 2.5, 3.0, 4.0, 9.0):
        assert_oracle_matches_reference(e, np.array([x]),
                                        [np.array([4.0, 2.5, 3.0, -np.inf, 2.5, np.inf, 9.0])])
    ds = random_learnable_dataset(np.random.default_rng(3), 80, 1)
    e = train_adaboost(ds, K=12, max_depth=3)
    for i in range(0, 80, 9):
        x = ds.rows[i]
        assert_oracle_matches_reference(e, x, oracle_grid(e, x, EpsilonPolicy(), resolution=30))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracle_rejects_a_non_finite_instance(two_feature_model, bad):
    e, ds = two_feature_model
    x = ds.rows[3].copy()
    grid = oracle_grid(e, x, EpsilonPolicy(), resolution=20)
    x[1] = bad
    message = r"instance values must be finite; features \[1\] are not"
    with pytest.raises(ValueError, match=message):
        brute_force_oracle(e, x, grid)
    with pytest.raises(ValueError, match=message):
        oracle_grid(e, x, EpsilonPolicy(), resolution=20)
    with pytest.raises(ValueError, match=message):
        generate_candidates(e, x, EpsilonPolicy())


def test_oracle_rejects_a_nan_grid_value(two_feature_model):
    e, ds = two_feature_model
    x = ds.rows[3]
    grid = oracle_grid(e, x, EpsilonPolicy(), resolution=20)
    grid[0] = np.append(grid[0], np.nan)
    with pytest.raises(ValueError, match=r"grid values must not be NaN; axes \[0\] hold NaN"):
        brute_force_oracle(e, x, grid)
    grid[0] = np.append(grid[0][:-1], [np.inf, -np.inf])  # infinite points are fine
    assert_oracle_matches_reference(e, x, grid)


def threshold_axis(e, f, rng, n_thresholds=None):
    """A shuffled test axis for feature f: n_thresholds of its distinct
    thresholds (all by default), every third of them twice, each one's
    float neighbours, +-inf, 0.0, -0.0 and NaN."""
    thr = np.unique(e.flat.threshold[e.flat.feature == f])
    if n_thresholds is not None:
        thr = np.sort(rng.choice(thr, size=min(n_thresholds, thr.size), replace=False))
    return rng.permutation(np.concatenate([
        thr, thr[::3], np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf),
        [np.inf, -np.inf, 0.0, -0.0, np.nan]]))


def assert_painted_margins_are_routed_margins(e, axes):
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    painted = tweak._lattice_margins(e, axes)
    assert painted.shape == tuple(len(axis) for axis in axes)
    np.testing.assert_array_equal(painted.ravel(), ensemble_margins(e, pts))


def test_painted_lattice_margins_equal_routed_margins_on_a_deep_model(deep_two_feature_model):
    e, _ = deep_two_feature_model
    assert e.k == 100 and e.flat.depth == 6
    rng = np.random.default_rng(17)
    # every threshold of one feature against a sample of the other's, both ways round
    for full in range(2):
        axes = [threshold_axis(e, f, rng, None if f == full else 25) for f in range(2)]
        assert_painted_margins_are_routed_margins(e, axes)


def test_painted_lattice_margins_equal_routed_margins_on_small_models():
    rng = np.random.default_rng(23)
    for seed, (n_features, depth) in enumerate([(1, 1), (2, 3), (3, 3), (1, 8)]):
        ds = random_learnable_dataset(np.random.default_rng(seed), 80, n_features)
        e = train_adaboost(ds, K=20, max_depth=depth)
        axes = [threshold_axis(e, f, rng, 12) for f in range(n_features)]
        assert_painted_margins_are_routed_margins(e, axes)
    # a grid that misses every cell some leaves cover, and an empty axis
    e = three_stump_ensemble()
    assert_painted_margins_are_routed_margins(e, [np.array([3.0, 1.0]), np.array([5.0])])
    assert tweak._lattice_margins(e, [np.array([]), np.array([0.5, 3.0])]).shape == (0, 2)


def test_oracle_routes_only_the_instance(deep_two_feature_model, tmp_path, monkeypatch):
    """Every routing goes through FlatTrees.signs; the oracle routes the
    instance for its verdict and no grid point, on its own and in verify,
    where explain's scored rows are routed outside the oracle."""
    e, ds = deep_two_feature_model
    routed, inside = [], [False]
    signs = cart.FlatTrees.signs

    def counting_signs(self, X, upto=None):
        routed.append((inside[0], X.shape[0]))
        return signs(self, X, upto)

    def oracle(*args, **kwargs):
        inside[0] = True
        try:
            return brute_force_oracle(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(cart.FlatTrees, "signs", counting_signs)
    for i in (0, 5, 9):
        x = ds.rows[i]
        grid = oracle_grid(e, x, EpsilonPolicy(), resolution=50)
        routed.clear()
        assert isinstance(brute_force_oracle(e, x, grid), Counterfactual)
        assert routed == [(False, 1)]

    model, csv = tmp_path / "model.json", tmp_path / "data.csv"
    save_model(e, model)
    save_csv(ds, csv)
    monkeypatch.setattr(cli, "brute_force_oracle", oracle)
    routed.clear()
    assert cli.main(["verify", "--model", str(model), "--data", str(csv),
                     "--n-instances", "3"]) == 0
    assert [n for within, n in routed if within] == [1, 1, 1]
    assert sum(n for within, n in routed if not within) > 3  # explain's rows


def test_oracle_empty_axis_grid_is_not_found():
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])
    for grid in ([np.array([]), np.array([0.5, 3.0])], [np.array([1.0, 3.0]), np.array([])]):
        assert_oracle_matches_reference(e, x, grid)
        assert brute_force_oracle(e, x, grid).n_candidates_evaluated == 0


def test_oracle_grid_contains_instance_and_threshold_offsets():
    e = three_stump_ensemble()
    x = np.array([2.0, 0.5])
    grid = oracle_grid(e, x, EPS_ABS, resolution=50)
    assert len(grid) == 2
    f0, f1 = grid
    for v in (2.0, 2.4, 2.6, 3.9, 4.1):   # x plus both stumps' offsets on f0
        assert np.any(np.isclose(f0, v))
    for v in (0.5, 0.9, 1.1):
        assert np.any(np.isclose(f1, v))
    for axis in grid:
        assert np.all(np.diff(axis) > 0)  # sorted, unique
        assert len(axis) >= 50
