import json
import math
import tracemalloc

import numpy as np
import pytest

from tweakboost import (
    MODEL_VERSION,
    DataError,
    alpha,
    ensemble_margins,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_ensemble,
    save_model,
    staged_predictions,
    train_adaboost,
    update_weights,
    weight_trajectory,
)
from tweakboost import make_dataset, make_demo_dataset
from tweakboost.cart import predict_tree

from conftest import desk_ensemble, random_learnable_dataset, stump


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
    with pytest.raises(IndexError):
        weight_trajectory(e, 30)
    with pytest.raises(IndexError):
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


def test_predict_ensemble_checks_arity():
    e = desk_ensemble([stump(0, 5.0, -1, 1)], [1.0])
    with pytest.raises(ValueError, match="shape"):
        predict_ensemble(e, np.array([1.0, 2.0, 3.0]))


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


def test_flat_form_is_compiled_on_first_use_only(tmp_path, tiny_ds):
    path = tmp_path / "m.json"
    save_model(train_adaboost(tiny_ds, K=3, max_depth=2), path)
    e = load_model(path)
    assert "flat" not in vars(e)  # loading compiles nothing
    predict_ensemble(e, tiny_ds.rows[0])
    assert e.flat is e.flat


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
        assert e.n_train == want.shape[1]
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
            with pytest.raises(KeyError) as full:
                full_parse(redump)
            with pytest.raises(KeyError) as lazy:
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
    assert save_peak < 0.5 * size
    assert load_peak < 1.25 * size
    assert read_peak < 2.0 * size  # the bytes go before the parse builds its floats


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


@pytest.mark.parametrize("case", ["crlf_end", "non_ascii"])
def test_load_model_reads_what_the_text_mode_parse_reads(saved_models, tmp_path, case):
    # a non-ASCII file takes the full parse; a CR LF ending keeps the block deferred
    path = tmp_path / "m.json"
    path.write_bytes(model_bytes_as(saved_models, case))
    got, want = load_model(path), full_parse(path)
    assert ("trajectories" in vars(got)) == (case == "non_ascii")
    assert model_to_dict(got) == model_to_dict(want)
