import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from tweakboost import (
    MODEL_VERSION,
    DataError,
    EpsilonPolicy,
    agreement_rate,
    alpha,
    brute_force_oracle,
    ensemble_margins,
    explain,
    generate_candidates,
    load_model,
    margin_certificate,
    model_from_dict,
    model_to_dict,
    oracle_grid,
    predict_ensemble,
    save_model,
    staged_predictions,
    train_adaboost,
    update_weights,
    weight_trajectory,
)
from tweakboost import boost, cart, cli, make_dataset, make_demo_dataset, save_csv
from tweakboost.cart import FlatTrees, Internal, Leaf, Tree, fit_tree, predict_tree, tree_to_dict
from tweakboost.prune import select_kprime

from conftest import (BAD_NODES, MALFORMED_MODELS, desk_ensemble, leaf_tree, random_learnable_dataset,
                      stump)


# -------------------------------------------------- stage weight

def test_alpha_matches_closed_form_on_grid():
    for i in range(1, 100):
        err = i / 100.0
        want = math.log((1.0 - err) / err)
        assert abs(alpha(err) - want) <= 1e-12
        assert abs(alpha(err, n_classes=3) - (want + math.log(2.0))) <= 1e-12


def test_alpha_known_points():
    assert alpha(0.25) == pytest.approx(math.log(3.0), abs=1e-15)
    assert alpha(0.5) == 0.0
    assert alpha(0.75) == pytest.approx(-math.log(3.0), abs=1e-15)


def test_alpha_clamps_instead_of_blowing_up():
    hi = alpha(0.0)
    assert math.isfinite(hi)
    assert hi == pytest.approx(math.log((1 - 1e-10) / 1e-10))
    lo = alpha(1.0)
    assert math.isfinite(lo) and lo < 0
    assert alpha(1e-300) == hi


# -------------------------------------------------- reweighting

def test_update_weights_worked_example():
    w = np.full(4, 0.25)
    miss = np.array([True, False, False, False])
    out = update_weights(w, miss, math.log(3.0))
    want = np.array([0.5, 1 / 6, 1 / 6, 1 / 6])
    assert np.allclose(out, want, rtol=0, atol=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_update_weights_pre_normalization_factor():
    """Missed weights scale by exactly e^alpha before normalization: the
    library output times the independently computed normalizer must equal
    w_i * e^(alpha*miss_i)."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        w = rng.uniform(0.01, 1.0, n)
        w /= w.sum()
        miss = rng.random(n) < 0.4
        if not miss.any() or miss.all():
            continue
        a = float(rng.uniform(0.05, 2.5))
        out = update_weights(w, miss, a)
        z = float((w * np.exp(a * miss)).sum())  # oracle normalizer
        np.testing.assert_allclose(out * z, w * np.exp(a * miss), rtol=1e-12)


def test_update_weights_directional_law():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        w = rng.uniform(0.01, 1.0, n)
        w /= w.sum()
        miss = rng.random(n) < rng.uniform(0.1, 0.6)
        if not miss.any() or miss.all():
            continue
        a = float(rng.uniform(1e-3, 3.0))
        out = update_weights(w, miss, a)
        assert np.all(out[miss] > w[miss])
        assert np.all(out[~miss] < w[~miss])
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_update_weights_half_mass_identity():
    """With alpha from the observed error, the just-missed set always holds
    exactly half the normalized mass afterwards."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(4, 50))
        w = rng.uniform(0.01, 1.0, n)
        w /= w.sum()
        miss = rng.random(n) < 0.3
        if not miss.any() or miss.all():
            continue
        err = float(w[miss].sum())
        if err >= 0.5:
            continue
        out = update_weights(w, miss, alpha(err))
        assert out[miss].sum() == pytest.approx(0.5, abs=1e-9)


# -------------------------------------------------- training loop

def test_train_is_deterministic(tiny_ds):
    e1 = train_adaboost(tiny_ds, K=5, max_depth=2)
    e2 = train_adaboost(tiny_ds, K=5, max_depth=2)
    assert model_to_dict(e1) == model_to_dict(e2)


def test_train_tracks_trajectories_and_errors():
    rng = np.random.default_rng(2)
    ds = random_learnable_dataset(rng, 80, 3)
    e = train_adaboost(ds, K=10, max_depth=2)
    assert e.trajectories.shape == (e.k + 1, 80)
    np.testing.assert_allclose(e.trajectories.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(e.trajectories[0], 1 / 80)
    assert all(0 <= err < 0.5 for err in e.staged_errors)
    assert len(e.alphas) == len(e.trees) == len(e.staged_errors) == e.k
    assert e.config == {"K": 10, "max_depth": 2, "seed": 0}


def test_train_halts_and_keeps_on_perfect_round(tiny_ds):
    e = train_adaboost(tiny_ds, K=10, max_depth=3)
    # tiny_ds separates cleanly, so the first round is perfect and kept
    assert e.k == 1
    assert e.staged_errors[0] == 0.0
    assert e.alphas[0] > 20  # clamped error, huge but finite stage weight
    assert math.isfinite(e.alphas[0])


def test_train_halts_and_discards_on_chance_round():
    # XOR: no depth-1 stump beats 0.5 weighted error
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1, -1, 1, 1])
    ds = make_dataset(X, y, ["a", "b"])
    e = train_adaboost(ds, K=5, max_depth=1)
    assert e.k == 0
    assert e.trajectories.shape == (1, 4)


def test_train_validates_inputs(tiny_ds):
    with pytest.raises(ValueError, match="K must be"):
        train_adaboost(tiny_ds, K=0, max_depth=2)
    X = np.array([[1.0], [2.0]])
    one_class = make_dataset(X, [1, 1], ["a"])
    with pytest.raises(ValueError, match="absent"):
        train_adaboost(one_class, K=3, max_depth=1)


def test_weight_trajectory_rounds(tiny_ds):
    rng = np.random.default_rng(4)
    ds = random_learnable_dataset(rng, 30, 2)
    e = train_adaboost(ds, K=6, max_depth=2)
    w = weight_trajectory(e, 3)
    assert w.shape == (e.k + 1,)
    assert w[0] == pytest.approx(1 / 30)
    with pytest.raises(DataError):
        weight_trajectory(e, 30)
    with pytest.raises(DataError):
        weight_trajectory(e, -1)


# -------------------------------------------------- voting

def test_predict_ensemble_margin_is_weighted_vote():
    e = desk_ensemble([stump(0, 5.0, -1, 1), stump(1, 3.0, 1, -1)], [0.8, 0.3])
    x = np.array([7.0, 1.0])
    # tree0 votes +1, tree1 votes +1
    pred, m = predict_ensemble(e, x)
    assert pred == 1
    assert m == pytest.approx(1.1)
    pred1, m1 = predict_ensemble(e, x, upto=1)
    assert (pred1, m1) == (1, pytest.approx(0.8))


def test_zero_margin_resolves_negative():
    e = desk_ensemble([stump(0, 5.0, -1, 1), stump(0, 5.0, 1, -1)], [0.7, 0.7])
    pred, m = predict_ensemble(e, np.array([1.0, 1.0]))
    assert m == 0.0
    assert pred == -1


def test_predict_ensemble_validates_upto():
    e = desk_ensemble([stump(0, 5.0, -1, 1)], [1.0])
    with pytest.raises(ValueError):
        predict_ensemble(e, np.array([1.0, 1.0]), upto=0)
    with pytest.raises(ValueError):
        predict_ensemble(e, np.array([1.0, 1.0]), upto=2)


ENTRY_POINTS = {
    "predict_ensemble": predict_ensemble,
    "staged_predictions": staged_predictions,
    "margin_certificate": lambda e, x: margin_certificate(e, x, 1),
    "generate_candidates": lambda e, x: generate_candidates(e, x, EpsilonPolicy()),
    "explain": explain,
    "brute_force_oracle": lambda e, x: brute_force_oracle(e, x, [np.array([1.0])] * 3),
    "oracle_grid": lambda e, x: oracle_grid(e, x, EpsilonPolicy()),
}


def agreement_on_rows(e, X):
    names = [f"f{j}" for j in range(X.shape[1])]
    return agreement_rate(e, 1, make_dataset(X, np.ones(len(X), dtype=int), names))


# (entry point, input, the shape the error names) for the matrix entry points
MATRIX_CASES = {
    "ensemble_margins-narrow": (ensemble_margins, np.ones((4, 1)), "(1,)"),
    "ensemble_margins-wide": (ensemble_margins, np.ones((4, 3)), "(3,)"),
    "ensemble_margins-1d": (ensemble_margins, np.ones(2), "()"),
    "agreement_rate-narrow": (agreement_on_rows, np.ones((4, 1)), "(1,)"),
    "agreement_rate-wide": (agreement_on_rows, np.ones((4, 3)), "(3,)"),
}
ARITY_CASES = {**{name: (call, np.array([1.0, 2.0, 3.0]), "(3,)")
                  for name, call in ENTRY_POINTS.items()},
               **{f"{name}-matrix": (call, np.ones((1, 2)), "(1, 2)")
                  for name, call in ENTRY_POINTS.items()}, **MATRIX_CASES}


@pytest.mark.parametrize("call, x, shape", ARITY_CASES.values(), ids=ARITY_CASES.keys())
def test_predict_ensemble_checks_arity(call, x, shape):
    # every entry point takes the instance, or each row, through Ensemble.instance
    e = desk_ensemble([stump(0, 5.0, -1, 1)], [1.0])
    with pytest.raises(DataError, match=rf"shape {re.escape(shape)}, model expects 2 features"):
        call(e, x)


def test_ensemble_margins_matches_scalar_path():
    rng = np.random.default_rng(8)
    ds = random_learnable_dataset(rng, 50, 4)
    e = train_adaboost(ds, K=8, max_depth=3)
    batch = ensemble_margins(e, ds.rows)
    single = np.array([predict_ensemble(e, x)[1] for x in ds.rows])
    np.testing.assert_allclose(batch, single, atol=1e-12)
    batch5 = ensemble_margins(e, ds.rows, upto=min(5, e.k))
    single5 = np.array([predict_ensemble(e, x, upto=min(5, e.k))[1] for x in ds.rows])
    np.testing.assert_allclose(batch5, single5, atol=1e-12)


def test_ensemble_margins_equal_tree_order_sum(demo_model, deep_demo_model, demo_ds):
    # the depth-6 rows span several row blocks of ensemble_margins at the
    # prefixes 100 and 37 (a block holds 65536 // upto rows)
    deep_rows = np.vstack([demo_ds.rows + shift for shift in (0.0, 0.05, -0.05)])
    for model, X in ((demo_model, demo_ds.rows[::4]), (deep_demo_model, deep_rows)):
        votes = [np.array([predict_tree(t, x) for x in X]) for t in model.trees]
        for upto in (None, 100, 37, 1):
            want = np.zeros(X.shape[0])
            for a, h in zip(model.alphas[:upto], votes[:upto]):
                want += a * h
            assert np.array_equal(ensemble_margins(model, X, upto=upto), want)


def test_staged_predictions_shape(tiny_ds):
    rng = np.random.default_rng(9)
    ds = random_learnable_dataset(rng, 40, 2)
    e = train_adaboost(ds, K=7, max_depth=2)
    sp = staged_predictions(e, ds.rows[0])
    assert sp.shape == (e.k,)
    assert set(np.unique(sp)) <= {-1, 1}


# -------------------------------------------------- serialization

def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    ds = random_learnable_dataset(rng, 60, 3)
    e = train_adaboost(ds, K=6, max_depth=2, seed=11)
    path = tmp_path / "m.json"
    save_model(e, path)
    back = load_model(path)
    assert model_to_dict(back) == model_to_dict(e)
    # byte-stable rewrite
    save_model(back, tmp_path / "m2.json")
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_model_dict_key_order(tiny_ds):
    e = train_adaboost(tiny_ds, K=2, max_depth=1)
    d = model_to_dict(e)
    assert list(d.keys()) == [
        "version", "schema", "alphas", "trees", "trajectories",
        "staged_errors", "config",
    ]
    assert d["version"] == MODEL_VERSION
    assert list(d["config"].keys()) == ["K", "max_depth", "seed"]


def test_model_version_check(tmp_path, tiny_ds):
    e = train_adaboost(tiny_ds, K=2, max_depth=1)
    d = model_to_dict(e)
    d["version"] = "tweakboost-model/2"
    with pytest.raises(ValueError, match="version"):
        model_from_dict(d)


def test_model_from_dict_rejects_invalid_models(tiny_ds):
    d = model_to_dict(train_adaboost(tiny_ds, K=2, max_depth=1))  # separable: one tree
    bad_tree = json.loads(json.dumps(d))
    bad_tree["trees"][0]["feature"] = 99
    bad_alpha = {**d, "alphas": [-1.0]}
    nan_alpha = {**d, "alphas": [float("nan")]}
    no_trees = {**d, "trees": [], "alphas": [], "staged_errors": [], "trajectories": [[1.0]]}
    bad_errors = [{**d, "staged_errors": [err]} for err in (float("nan"), float("inf"), -0.1, 0.5, 2.0)]
    for doc, match in ((bad_tree, "feature"), (bad_alpha, "positive"), (nan_alpha, "finite"),
                       (no_trees, "no trees"), *((doc, "staged errors") for doc in bad_errors),
                       ([], "JSON object"), (None, "JSON object"), ("model", "JSON object")):
        with pytest.raises(ValueError, match=match):
            model_from_dict(doc)
    assert model_from_dict({**d, "staged_errors": [0.0]}).staged_errors[0] == 0.0  # a perfect round


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_model_from_dict_reads_missing_keys_and_wrong_types_as_value_error(case):
    edit, message = MALFORMED_MODELS[case]
    with pytest.raises(ValueError) as info:
        model_from_dict(edit(model_to_dict(desk_ensemble([stump(1, 2.5, -1, 1)], [1.0]))))
    assert info.type is ValueError  # not the KeyError or TypeError it stands for
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, (KeyError, TypeError))


@pytest.mark.parametrize("stat,value", [("stddev", float("nan")), ("stddev", float("inf")),
                                        ("min", float("-inf")), ("max", float("inf")),
                                        ("mean", float("nan"))])
def test_load_model_rejects_a_non_finite_schema_stat(tmp_path, tiny_ds, stat, value):
    path = tmp_path / "m.json"
    save_model(train_adaboost(tiny_ds, K=2, max_depth=1), path)
    doc = json.loads(path.read_text())
    doc["schema"][1][stat] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"feature 'f1': non-finite {stat} {value}"):
        load_model(path)


def test_flat_form_is_compiled_on_first_use_only(tiny_ds):
    # an ensemble of node objects compiles its flat form when first evaluated
    e = train_adaboost(tiny_ds, K=3, max_depth=2)
    assert "flat" not in vars(e)
    predict_ensemble(e, tiny_ds.rows[0])
    assert e.flat is e.flat


def test_model_from_dict_round_trips_trees():
    rng = np.random.default_rng(3)
    ds = random_learnable_dataset(rng, 50, 3)
    t = fit_tree(ds, np.full(50, 0.02), max_depth=3)
    back = model_from_dict(model_to_dict(desk_ensemble([t], [1.0], n_features=3)))
    assert back.trees == [t]
    assert tree_to_dict(back.trees[0]) == tree_to_dict(t)


def test_model_from_dict_rejects_bad_nodes():
    d = model_to_dict(desk_ensemble([stump(1, 2.5, -1, 1)], [1.0]))
    assert model_from_dict(d).trees == [stump(1, 2.5, -1, 1)]
    good, root = d["trees"][0], stump(1, 2.5, -1, 1).root
    for key, value, message in BAD_NODES:
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_dict({**d, "trees": [{**good, key: value}]})
        # the same fault in node objects fails the same way on first evaluation
        bad = dataclasses.replace(root, **{key: Leaf(**value) if key == "left" else value})
        e = desk_ensemble([Tree(root=bad, depth=1, n_leaves=2)], [1.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            predict_ensemble(e, [1.0, 1.0])


def desk_and_trained_ensembles():
    """Ensembles whose trees have every shape the flat form handles: bare
    leaves, stumps and lopsided trees of desk models, and trained trees of
    depth 1 to 6."""
    lopsided = Tree(root=Internal(0, 1.0, Leaf(-1, 0.75),
                                  Internal(1, 2.0, Internal(0, 3.0, Leaf(1, 1.0), Leaf(-1, 0.5)),
                                           Leaf(1, 0.625))),
                    depth=3, n_leaves=4)
    yield desk_ensemble([leaf_tree(1)], [1.0])
    yield desk_ensemble([leaf_tree(-1), stump(1, 0.5, 1, -1), lopsided, stump(0, 4.0, -1, 1)],
                        [0.5, 1.0, 2.0, 0.25])
    ds = random_learnable_dataset(np.random.default_rng(8), 200, 4)
    for depth in range(1, 7):
        yield train_adaboost(ds, K=12, max_depth=depth)


def test_a_loaded_model_is_compiled_as_its_trees_are(tmp_path):
    path = tmp_path / "m.json"
    for e in desk_and_trained_ensembles():
        save_model(e, path)
        loaded = load_model(path)
        assert "flat" in vars(loaded) and "trees" not in vars(loaded)
        for f in dataclasses.fields(FlatTrees):
            got, want = getattr(loaded.flat, f.name), getattr(e.flat, f.name)
            assert np.array_equal(got, want, equal_nan=np.asarray(want).dtype.kind == "f"), f.name
            assert np.asarray(got).dtype == np.asarray(want).dtype, f.name
        assert loaded.k == e.k
        assert loaded.trees == e.trees
        assert json.dumps(model_to_dict(loaded)) == path.read_text()


def test_a_loaded_model_builds_node_objects_only_when_asked(tmp_path, monkeypatch):
    ds = random_learnable_dataset(np.random.default_rng(5), 60, 2)
    path, data = tmp_path / "m.json", tmp_path / "d.csv"
    save_model(train_adaboost(ds, K=10, max_depth=3), path)
    save_csv(ds, data)
    to_trees, calls = FlatTrees.to_trees, []
    flatten, flattened = boost.flatten, []

    def counting_to_trees(self):
        calls.append(self)
        return to_trees(self)

    def counting_flatten(trees, n_features):
        flattened.append(trees)
        return flatten(trees, n_features)

    monkeypatch.setattr(cart.FlatTrees, "to_trees", counting_to_trees)
    monkeypatch.setattr(boost, "flatten", counting_flatten)
    e = load_model(path)
    eps = EpsilonPolicy("range_scaled", 0.01)
    for i in range(3):
        x = ds.rows[i]
        k_prime, _ = select_kprime(e, "both", {"mass_fraction": 0.8, "window": 3, "rel_tol": 0.5},
                                   i, x, int(ds.labels[i]))
        explain(e, x, eps, k_prime=k_prime)
        margin_certificate(e, x, k_prime)
        brute_force_oracle(e, x, oracle_grid(e, x, eps, resolution=5))
    agreement_rate(e, 3, ds)
    assert cli.main(["verify", "--model", str(path), "--data", str(data), "--n-instances", "3",
                     "--resolution", "5", "--out", str(tmp_path / "v.csv")]) == 0
    assert cli.main(["report-alphas", "--model", str(path), "--out", str(tmp_path / "a.csv")]) == 0
    assert calls == []
    assert e.trees is e.trees
    assert calls == [e.flat]
    assert flattened == []  # a loaded model is given its flat form

    # an ensemble built from node objects compiles them once and never rebuilds them
    for built in (desk_ensemble([stump(0, 0.5, -1, 1), leaf_tree(1), stump(1, 0.25, 1, -1)],
                                [1.0, 0.25, 0.5]),
                  train_adaboost(ds, K=10, max_depth=3)):
        calls.clear()
        assert built.k == len(built.trees)
        for i in range(3):
            explain(built, ds.rows[i], eps)
        save_model(built, tmp_path / "built.json")
        assert calls == [] and flattened == [built.trees]
        flattened.clear()


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory, demo_model, deep_demo_model):
    """Saved K=100 models, each with its parsed JSON: the demo data at depth
    4 and 6, and 6000 demo rows at depth 4."""
    big = train_adaboost(make_demo_dataset(n_rows=6000), K=100, max_depth=4)
    out = tmp_path_factory.mktemp("models")
    saved = []
    for name, e in (("depth4", demo_model), ("depth6", deep_demo_model), ("rows6000", big)):
        path = out / f"{name}.json"
        save_model(e, path)
        saved.append((path, json.loads(path.read_text())))
    return saved


def full_parse(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def test_trajectories_are_decoded_on_first_read_only(saved_models):
    for path, doc in saved_models:
        e = load_model(path)
        assert "trajectories" not in vars(e)  # loading decodes no trajectory
        want = model_from_dict(doc).trajectories
        assert e.trajectories.shape[1] == want.shape[1]
        assert "trajectories" in vars(e)
        assert np.array_equal(e.trajectories, want)
        assert e.trajectories is e.trajectories
        assert json.dumps(model_to_dict(load_model(path))) == path.read_text()


@pytest.mark.parametrize("layout", ["indent", "sort_keys", "nested_copy", "nested_only"])
def test_load_model_gives_what_the_full_parse_gives(saved_models, tmp_path, layout):
    # the splitter applies to save_model's layout only; re-dumped files
    # either keep to it (sort_keys, a nested copy) or take the full parse
    for path, doc in saved_models:
        if layout.startswith("nested"):
            doc = {**doc, "config": {**doc["config"], "trajectories": doc["trajectories"]}}
            if layout == "nested_only":
                del doc["trajectories"]
        redump = tmp_path / f"{path.stem}-{layout}.json"
        redump.write_text(json.dumps(doc, indent=2 if layout == "indent" else None,
                                     sort_keys=layout == "sort_keys"))
        if layout == "nested_only":
            with pytest.raises(ValueError) as full:
                full_parse(redump)
            with pytest.raises(ValueError) as lazy:
                load_model(redump)
            assert str(lazy.value) == str(full.value)
            continue
        got, want = load_model(redump), full_parse(redump)
        assert ("trajectories" in vars(got)) == (layout == "indent")
        assert got.config == want.config
        assert np.array_equal(got.trajectories, want.trajectories)
        assert model_to_dict(got) == model_to_dict(want)


def test_save_model_is_atomic(tmp_path, tiny_ds):
    e = train_adaboost(tiny_ds, K=2, max_depth=1)
    path = tmp_path / "m.json"
    save_model(e, path)
    leftovers = [p for p in tmp_path.iterdir() if p.name != "m.json"]
    assert leftovers == []
    json.loads(path.read_text())

    # a loaded model whose block is corrupt fails mid-stream: the old file stays, no temp file
    doc = json.loads(path.read_text())
    doc["trajectories"][0][0] += 0.5
    path.write_text(json.dumps(doc))
    corrupt = load_model(path)
    before = path.read_bytes()
    with pytest.raises(DataError, match="trajectory block"):
        save_model(corrupt, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_save_csv_is_atomic(tmp_path, tiny_ds, monkeypatch):
    path = tmp_path / "d.csv"
    save_csv(tiny_ds, path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("rename refused")

    # a failed rename keeps the old file whole and leaves no temp file beside it
    monkeypatch.setattr("os.replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        save_csv(make_dataset(tiny_ds.rows[:2], [-1, 1], tiny_ds.feature_names), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.fixture(scope="module")
def rows3000_model():
    """K=100 at depth 4 on 3000 demo rows: a 7 MB file, 99% trajectory block."""
    return train_adaboost(make_demo_dataset(n_rows=3000), K=100, max_depth=4)


def test_save_model_writes_what_json_dumps_writes(tmp_path, tiny_ds, demo_model,
                                                  deep_demo_model, rows3000_model):
    # save_model streams the trajectory rows; the bytes are still those of one json.dumps
    xor = make_dataset([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [-1, -1, 1, 1],
                       ["a", "b"])
    models = {
        "one_round": train_adaboost(random_learnable_dataset(np.random.default_rng(3), 40, 3),
                                    K=1, max_depth=2),
        "halted_perfect": train_adaboost(tiny_ds, K=10, max_depth=3),
        "halted_chance": train_adaboost(xor, K=5, max_depth=1),  # no trees, one trajectory row
        "demo_depth4": demo_model,
        "demo_depth6": deep_demo_model,
        "rows3000": rows3000_model,
        "non_ascii": train_adaboost(make_dataset(tiny_ds.rows, tiny_ds.labels, ["é", "名"]),
                                    K=3, max_depth=1),
    }
    for name, e in models.items():
        path = tmp_path / f"{name}.json"
        save_model(e, path)
        assert path.read_bytes() == json.dumps(model_to_dict(e)).encode("utf-8"), name
    path = tmp_path / "rows3000.json"
    save_model(load_model(path), tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()


def test_save_and_load_hold_less_than_a_copy_of_the_file(tmp_path, rows3000_model):
    # peaks as ratios to the file's size: save never holds the trajectory block
    # as text or as a list of floats, and load holds the file's bytes once
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        save_model(rows3000_model, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        e = load_model(path)
        load_peak = tracemalloc.get_traced_memory()[1] - held
        assert "trajectories" not in vars(e)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        e.trajectories
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert save_peak < 0.25 * size
    assert load_peak < 1.25 * size
    assert read_peak < 2.0 * size  # the bytes go before the parse builds its floats


def test_save_holds_no_tree_list_or_whole_member(tmp_path, deep_demo_model):
    # at depth 6 the trees are a quarter of the file, and save writes them one by one
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        save_model(deep_demo_model, path)
        save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trees = len(json.dumps(model_to_dict(deep_demo_model)["trees"]))
    assert trees > 0.2 * path.stat().st_size
    assert save_peak < 0.25 * path.stat().st_size


def model_bytes_as(saved_models, case: str) -> bytes:
    """The demo depth-4 model's file, changed in one way."""
    path, doc = saved_models[0]
    data = path.read_bytes()
    if case == "bom":
        return b"\xef\xbb\xbf" + data
    if case == "invalid_utf8":  # in the trajectory block
        return data.replace(b"[[", b"[[\xff", 1)
    if case == "nul_first":  # json.loads of these bytes would decode them as UTF-16
        return b"\x00" + data
    if case == "crlf_error":  # the error's line and column count in text mode's newlines
        return json.dumps(doc, indent=1).replace("\n", "\r\n").encode()[:-40]
    if case == "crlf_end":
        return data + b"\r\n"
    if case == "crlf_block":  # JSON whitespace inside the trajectory block
        return data.replace(b"], [", b"],\r\n [", 3)
    if case == "non_ascii":
        doc = {**doc, "schema": [{**doc["schema"][0], "name": "é"}, *doc["schema"][1:]]}
        return json.dumps(doc, ensure_ascii=False).encode("utf-8")
    raise ValueError(case)


@pytest.mark.parametrize("case", ["bom", "invalid_utf8", "nul_first", "crlf_error"])
def test_load_model_fails_as_the_text_mode_parse_fails(saved_models, tmp_path, case):
    path = tmp_path / "m.json"
    path.write_bytes(model_bytes_as(saved_models, case))
    with pytest.raises(ValueError) as full:
        full_parse(path)
    with pytest.raises(type(full.value)) as got:
        load_model(path)
    assert str(got.value) == str(full.value)


@pytest.mark.parametrize("case", ["crlf_end", "crlf_block", "non_ascii"])
def test_load_model_reads_what_the_text_mode_parse_reads(saved_models, tmp_path, case):
    # a non-ASCII file takes the full parse; CR LF, at the end or in the block, keeps it deferred
    path = tmp_path / "m.json"
    path.write_bytes(model_bytes_as(saved_models, case))
    got, want = load_model(path), full_parse(path)
    assert ("trajectories" in vars(got)) == (case == "non_ascii")
    assert model_to_dict(got) == model_to_dict(want)
