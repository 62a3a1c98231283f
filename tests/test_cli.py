import json
import math
import warnings

import numpy as np
import pytest

from tweakboost import (
    DataError,
    load_model,
    make_dataset,
    make_demo_dataset,
    model_from_dict,
    model_to_dict,
    save_csv,
    save_model,
)
from tweakboost.cli import main, parse_prune_spec

from conftest import (
    BAD_NODES,
    MALFORMED_MODELS,
    UNREADABLE_CSVS,
    desk_ensemble,
    leaf_tree,
    numpy_ma_probe,
    random_learnable_dataset,
    stump,
)


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 10, size=(60, 2))
    y = np.where(X[:, 0] > 5.0, 1, -1)
    ds = make_dataset(X, y, ["a", "b"])
    path = tmp_path / "small.csv"
    save_csv(ds, path)
    return path


@pytest.fixture
def demo_model_path(tmp_path):
    out = tmp_path / "demo_model.json"
    assert run(["train", "--demo", "--k", "10", "--depth", "2", "--out", str(out)]) == 0
    return out


# -------------------------------------------------- train

def test_train_writes_model_and_summary(tmp_path, small_csv, capsys):
    out = tmp_path / "m.json"
    code = run(["train", "--data", str(small_csv), "--k", "5", "--depth", "2",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "final train accuracy" in stdout
    assert "alpha:" in stdout
    e = load_model(out)
    assert e.config == {"K": 5, "max_depth": 2, "seed": 7}


def test_train_rerun_is_byte_identical(tmp_path, small_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["train", "--data", str(small_csv), "--k", "4", "--out", str(a)]) == 0
    assert run(["train", "--data", str(small_csv), "--k", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_k_zero_is_usage_error(tmp_path):
    assert run(["train", "--demo", "--k", "0", "--out", str(tmp_path / "m.json")]) == 1


def test_train_requires_data_or_demo(tmp_path):
    assert run(["train", "--out", str(tmp_path / "m.json")]) == 1


def test_train_bad_labels_is_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n1.0,spam\n2.0,ham\n")
    assert run(["train", "--data", str(path), "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("case", sorted(UNREADABLE_CSVS))
def test_unreadable_data_file_is_data_error(tmp_path, demo_model_path, capsys, case):
    data, message = UNREADABLE_CSVS[case]
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    for argv in (["train", "--out", str(tmp_path / "m.json")],
                 ["explain", "--model", str(demo_model_path), "--row", "0"],
                 ["verify", "--model", str(demo_model_path)]):
        assert run([*argv, "--data", str(path)]) == 2, argv
        assert capsys.readouterr().err == f"tweakboost: data error: {path}{message}\n", argv
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("first", ["a", "label"])
def test_train_reads_a_csv_with_a_byte_order_mark(tmp_path, small_csv, first):
    # the mark is not part of the first header cell, whichever column that is
    order = [2, 0, 1] if first == "label" else [0, 1, 2]  # small_csv's columns: a, b, label
    text = "".join(",".join(line.split(",")[i] for i in order) + "\n"
                   for line in small_csv.read_text().splitlines())
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text)
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    models = [tmp_path / "plain.json", tmp_path / "bom.json"]
    for data, model in zip((plain, bom), models):
        assert run(["train", "--data", str(data), "--k", "3", "--out", str(model)]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()
    assert [s.name for s in load_model(models[1]).schema] == ["a", "b"]


def test_train_label_map_flag(tmp_path):
    path = tmp_path / "mapped.csv"
    rows = "\n".join(f"{i}.0,{7 - i}.0,{'yes' if i > 4 else 'no'}" for i in range(10))
    path.write_text("a,b,label\n" + rows + "\n")
    out = tmp_path / "m.json"
    assert run(["train", "--data", str(path), "--label-map", "yes=+1,no=-1",
                "--k", "2", "--out", str(out)]) == 0


def test_train_chance_data_is_train_error(tmp_path):
    xor = tmp_path / "xor.csv"
    xor.write_text("a,b,label\n0.0,0.0,-1\n1.0,1.0,-1\n0.0,1.0,1\n1.0,0.0,1\n")
    assert run(["train", "--data", str(xor), "--k", "3", "--depth", "1",
                "--out", str(tmp_path / "m.json")]) == 3


def test_configuration_ignores_environment(tmp_path, small_csv, capsys, monkeypatch):
    # flags and their parser defaults are the only configuration source
    monkeypatch.setenv("TWEAKBOOST_K", "3")
    monkeypatch.setenv("TWEAKBOOST_NORM", "foo")
    monkeypatch.setenv("TWEAKBOOST_PRUNE", "alpha-mass:5")
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(small_csv), "--depth", "1", "--out", str(model)]) == 0
    assert load_model(model).config["K"] == 100
    capsys.readouterr()
    assert run(["verify", "--model", str(model), "--data", str(small_csv),
                "--n-instances", "2", "--resolution", "5"]) == 0
    assert '"norm": "L2_std"' in capsys.readouterr().out
    assert run(["explain", "--model", str(model), "--data", str(small_csv),
                "--row", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["norm"] == "L2_std"
    assert payload["config"]["prune"] == "none"


# -------------------------------------------------- explain

def test_explain_row_from_csv(tmp_path, small_csv, capsys):
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(small_csv), "--k", "5", "--out", str(model)]) == 0
    capsys.readouterr()
    code = run(["explain", "--model", str(model), "--data", str(small_csv), "--row", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["prediction"] in (-1, 1)
    assert payload["norm"] == "L2_std"
    assert payload["epsilon_policy"] == {"mode": "range_scaled", "value": 0.01}
    if payload["found"]:
        assert payload["distance"] > 0
        assert payload["delta"]


def test_explain_with_prune_spec(demo_model_path, capsys):
    code = run(["explain", "--model", str(demo_model_path), "--demo", "--row", "17",
                "--prune", "alpha-mass:0.95"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_prime_used"] is not None
    assert 1 <= payload["k_prime_used"] <= 10
    assert payload["config"]["prune"] == "alpha-mass:0.95"
    assert isinstance(payload["truncation_certificate"], bool)


def test_explain_trajectory_prune_on_training_row(demo_model_path, capsys):
    code = run(["explain", "--model", str(demo_model_path), "--demo", "--row", "0",
                "--prune", "trajectory:3,0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_prime_used"] is not None


@pytest.mark.parametrize("spec", ["trajectory:3,0.5", "both:0.9,3,0.5"])
def test_explain_trajectory_prune_on_other_data_is_data_error(tmp_path, demo_model_path,
                                                               capsys, spec):
    # row 3 of other data must not borrow training row 3's weight trajectory
    other = tmp_path / "other.csv"
    save_csv(make_demo_dataset(seed=99), other)
    argv = ["explain", "--model", str(demo_model_path), "--row", "3", "--prune", spec]
    assert run(argv + ["--data", str(other)]) == 2
    err = capsys.readouterr().err
    assert "trajectory" in err and len(err.strip().splitlines()) == 1
    assert run(argv + ["--demo"]) == 0


def test_explain_inline_instance_skips_trajectory_prune(demo_model_path, capsys):
    inline = ",".join(["1.0"] * 8)
    code = run(["explain", "--model", str(demo_model_path), "--instance", inline,
                "--prune", "both:0.9,3,0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_prime_used"] is not None  # alpha-mass still applies
    assert payload["notes"] == ["trajectory pruning skipped: inline instance has no "
                                "trajectory; alpha-mass selection used alone"]


def test_explain_inline_instance_trajectory_only_prune_is_skipped(demo_model_path, capsys):
    inline = ",".join(["1.0"] * 8)
    assert run(["explain", "--model", str(demo_model_path), "--instance", inline,
                "--prune", "trajectory:3,0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_prime_used"] is None
    assert payload["notes"] == ["trajectory pruning skipped: inline instance has no trajectory"]


@pytest.mark.parametrize("spec", ["trajectory:3,0.5", "both:0.9,3,0.5"])
@pytest.mark.parametrize("row", [600, 699])
def test_explain_row_beyond_training_split_has_no_trajectory(tmp_path, demo_model_path,
                                                             capsys, spec, row):
    longer = tmp_path / "longer.csv"
    save_csv(make_demo_dataset(n_rows=700), longer)
    assert run(["explain", "--model", str(demo_model_path), "--data", str(longer),
                "--row", str(row), "--prune", spec]) == 2
    err = capsys.readouterr().err
    assert f"row {row} has no stored weight trajectory (model trained on 600 rows)" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["explain", "report-trajectories"])
def test_row_without_a_stored_trajectory_is_one_message(tmp_path, demo_model_path, capsys,
                                                        command):
    longer = tmp_path / "longer.csv"
    save_csv(make_demo_dataset(n_rows=700), longer)
    argv, row = {
        "explain": (["--data", str(longer), "--row", "650", "--prune", "trajectory"], 650),
        "report-trajectories": (["--instances", "0,600", "--out-dir", str(tmp_path / "t")], 600),
    }[command]
    assert run([command, "--model", str(demo_model_path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"tweakboost: data error: training row {row} has no stored weight "
                            "trajectory (model trained on 600 rows)\n")
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("flag, sign, message", [
    ("--target", 1, "the request must target the opposite class"),
    ("--label", -1, "provenance assertion failed"),
], ids=["target", "label"])
def test_explain_target_or_label_against_the_prediction_is_data_error(demo_model_path, capsys,
                                                                     flag, sign, message):
    argv = ["explain", "--model", str(demo_model_path), "--demo", "--row", "3"]
    assert run(argv) == 0
    pred = json.loads(capsys.readouterr().out)["prediction"]
    assert run([*argv, flag, str(sign * pred)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tweakboost: data error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_explain_negative_row_is_data_error(demo_model_path):
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "-1"]) == 2


def test_explain_wrong_arity_inline(demo_model_path, capsys):
    code = run(["explain", "--model", str(demo_model_path), "--instance", "1.0,2.0"])
    assert code == 2
    assert "expects 8" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["explain", "--row", "1"], ["verify"]])
def test_csv_of_another_width_is_one_line_data_error(demo_model_path, small_csv, capsys, command):
    # small_csv has 2 features, the demo model 8: the library's instance check refuses the row
    assert run([*command, "--model", str(demo_model_path), "--data", str(small_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "tweakboost: data error: instance has shape (2,), model expects 8 features\n"
    assert captured.out == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "1e999"])
def test_explain_non_finite_inline_is_data_error(demo_model_path, capsys, bad):
    inline = ",".join([bad] + ["0.5"] * 7)
    assert run(["explain", "--model", str(demo_model_path), "--instance", inline]) == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""


def test_unwritable_out_is_data_error(tmp_path, demo_model_path, capsys):
    missing = tmp_path / "missing_dir"
    assert run(["train", "--demo", "--k", "2", "--out", str(missing / "m.json")]) == 2
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "1",
                "--out", str(missing / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 2


def test_failed_rename_leaves_no_temp_file(tmp_path, demo_model_path):
    out_dir = tmp_path / "out"
    taken = out_dir / "x.json"
    taken.mkdir(parents=True)  # the rename onto a directory fails
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "1",
                "--out", str(taken)]) == 2
    assert [p.name for p in out_dir.iterdir()] == ["x.json"]


def test_explain_invalid_model_is_data_error(tmp_path, demo_model_path, capsys):
    doc = json.loads(demo_model_path.read_text())
    doc["trees"][0]["feature"] = 99
    bad = tmp_path / "bad_feature.json"
    bad.write_text(json.dumps(doc))
    assert run(["explain", "--model", str(bad), "--demo", "--row", "1"]) == 2
    assert "feature 99" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", BAD_NODES)
def test_explain_model_with_a_bad_node_is_data_error(tmp_path, capsys, key, value, message):
    doc = model_to_dict(desk_ensemble([stump(1, 2.5, -1, 1)], [1.0]))
    doc["trees"][0][key] = value
    bad = tmp_path / "bad_node.json"
    bad.write_text(json.dumps(doc))
    assert run(["explain", "--model", str(bad), "--instance", "1.0,1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"tweakboost: data error: cannot read model {bad}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_explain_model_with_a_missing_key_or_wrong_type_is_data_error(tmp_path, capsys, case):
    edit, message = MALFORMED_MODELS[case]
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(edit(model_to_dict(desk_ensemble([stump(1, 2.5, -1, 1)], [1.0])))))
    assert run(["explain", "--model", str(bad), "--instance", "1.0,1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"tweakboost: data error: cannot read model {bad}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--data", "missing.csv"], ["--demo"], ["--label-map", "x"]])
def test_explain_instance_refuses_a_data_flag(demo_model_path, capsys, flags):
    # an inline instance reads no data, so a data flag given with it would be dropped
    assert run(["explain", "--model", str(demo_model_path), "--instance", "1,1,1,1,1,1,1,1",
                *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"tweakboost: error: {flags[0]} cannot be used with --instance\n"
    assert captured.out == ""


def test_explain_missing_model_is_data_error(tmp_path):
    assert run(["explain", "--model", str(tmp_path / "nope.json"),
                "--instance", "1.0"]) == 2


def test_explain_corrupt_model_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["explain", "--model", str(bad), "--instance", "1.0"]) == 2


def test_explain_not_found_is_exit_zero(tmp_path, capsys):
    e = desk_ensemble(
        [stump(0, 5.0, -1, 1), stump(0, 5.0, -1, 1), leaf_tree(-1)],
        [0.5, 0.5, 2.0],
    )
    model = tmp_path / "desk.json"
    save_model(e, model)
    code = run(["explain", "--model", str(model), "--instance", "1.0,1.0",
                "--epsilon-mode", "absolute", "--epsilon", "0.1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is False
    assert payload["counterfactual"] is None
    assert payload["n_candidates_evaluated"] == 2
    assert "epsilon" in payload["message"]


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_explain_non_finite_epsilon_is_usage_error(demo_model_path, capsys, bad):
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "1",
                f"--epsilon={bad}"]) == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which strict JSON lacks."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("where", [
    ["--demo", "--row", "3", "--epsilon-mode", "absolute", "--epsilon", "1e300"],
    ["--instance", "50,0.5,0,1e308,1,0,0,0"],
])
def test_explain_overflowing_tweak_writes_strict_json_and_no_warning(demo_model_path, capsys,
                                                                      where):
    # an epsilon of 1e300 moves every candidate 1e300; a value of 1e308 puts every
    # candidate that moves feature 3 about 1e308 away: their L2 distances overflow
    assert run(["explain", "--model", str(demo_model_path), *where]) == 0
    captured = capsys.readouterr()
    payload = strict_json(captured.out)
    assert payload["distance"] is None or math.isfinite(payload["distance"])
    assert captured.err == ""


@pytest.mark.parametrize("command", [["explain", "--row", "3"], ["verify"]])
def test_epsilon_that_overflows_on_a_feature_is_usage_error(demo_model_path, capsys, command):
    # range-scaled, 1e308 times any feature range above about 1.8 overflows
    assert run([*command, "--model", str(demo_model_path), "--demo", "--epsilon", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("tweakboost: error: epsilon 1e+308 times the feature range")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_row_fault_is_found_before_an_overflowing_epsilon(demo_model_path, capsys):
    # explain computes the per-feature epsilon only after the row has been read
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "9999",
                "--epsilon", "1e308"]) == 2
    assert capsys.readouterr().err == "tweakboost: data error: --row 9999 out of range [0, 599]\n"


def test_model_without_trees_is_data_error(tmp_path, demo_model_path, capsys):
    doc = json.loads(demo_model_path.read_text())
    doc.update(trees=[], alphas=[], staged_errors=[], trajectories=[doc["trajectories"][0]])
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(doc))
    assert run(["explain", "--model", str(empty), "--demo", "--row", "1",
                "--prune", "alpha-mass:0.5"]) == 2
    assert run(["report-alphas", "--model", str(empty), "--out", str(tmp_path / "a.csv")]) == 2
    err = capsys.readouterr().err
    assert "no trees" in err
    assert "Traceback" not in err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("text", ["[]", "null"])
def test_model_that_is_not_a_json_object_is_data_error(tmp_path, small_csv, capsys, text):
    bad = tmp_path / "m.json"
    bad.write_text(text)
    for argv in (["explain", "--model", str(bad), "--demo", "--row", "1"],
                 ["verify", "--model", str(bad), "--data", str(small_csv)],
                 ["report-alphas", "--model", str(bad), "--out", str(tmp_path / "a.csv")]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be a JSON object" in err, argv


def test_deeply_nested_model_is_data_error(tmp_path, small_csv, demo_model_path, capsys):
    # json.load recurses once per nesting level, so a deep enough tree
    # raises RecursionError before any model validation runs
    depth = 5000
    deep = ('{"feature": 0, "threshold": 0.5, "left": ' * depth
            + '{"sign": 1, "purity": 1.0}'
            + ', "right": {"sign": -1, "purity": 1.0}}' * depth)
    doc = json.loads(demo_model_path.read_text())
    doc["trees"][0] = "DEEP"
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps(doc).replace('"DEEP"', deep, 1))
    for argv in (["explain", "--model", str(bad), "--demo", "--row", "1"],
                 ["verify", "--model", str(bad), "--data", str(small_csv)],
                 ["report-alphas", "--model", str(bad), "--out", str(tmp_path / "a.csv")]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "recursion" in captured.err, argv
        assert captured.out == "", argv


def test_model_with_invalid_staged_errors_is_data_error(tmp_path, demo_model_path, capsys):
    doc = json.loads(demo_model_path.read_text())
    doc["staged_errors"][1:3] = [float("nan"), 2.0]
    bad = tmp_path / "bad_errors.json"
    bad.write_text(json.dumps(doc))
    assert run(["explain", "--model", str(bad), "--demo", "--row", "1",
                "--prune", "trajectory"]) == 2
    err = capsys.readouterr().err
    assert "staged errors" in err and "trajectory" not in err


def test_model_with_non_finite_schema_stat_is_data_error(tmp_path, demo_model_path, capsys):
    # a NaN stddev used to load and give "distance": NaN, which is not JSON
    doc = json.loads(demo_model_path.read_text())
    doc["schema"][2]["stddev"] = float("nan")
    bad = tmp_path / "bad_schema.json"
    bad.write_text(json.dumps(doc))
    assert run(["explain", "--model", str(bad), "--demo", "--row", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"tweakboost: data error: cannot read model {bad}: "
                            "feature 'f2': non-finite stddev nan\n")
    assert captured.out == ""


def first_leaf(tree: dict) -> dict:
    while "sign" not in tree:
        tree = tree["left"]
    return tree


BEYOND_FLOAT = 10 ** 400  # json.dumps writes it as a 401-digit integer literal
INFINITE = "1e400"  # written as a bare number, which json reads as inf
TOO_LARGE, NOT_AN_INT = "int too large to convert to float", "cannot convert float infinity to integer"
# each puts a number beyond float range into the demo model: the edit, and the message it fails with
BEYOND_FLOAT_CASES = {
    "threshold": (lambda doc: doc["trees"][0].update(threshold=BEYOND_FLOAT), TOO_LARGE),
    "purity": (lambda doc: first_leaf(doc["trees"][1]).update(purity=BEYOND_FLOAT), TOO_LARGE),
    "alpha": (lambda doc: doc["alphas"].__setitem__(2, BEYOND_FLOAT), TOO_LARGE),
    "schema_max": (lambda doc: doc["schema"][1].update(max=BEYOND_FLOAT), TOO_LARGE),
    "staged_error": (lambda doc: doc["staged_errors"].__setitem__(3, BEYOND_FLOAT), TOO_LARGE),
    "trajectory": (lambda doc: doc["trajectories"][1].__setitem__(0, BEYOND_FLOAT), TOO_LARGE),
    "feature": (lambda doc: doc["trees"][0].update(feature=INFINITE), NOT_AN_INT),
    "leaf_sign": (lambda doc: first_leaf(doc["trees"][1]).update(sign=INFINITE), NOT_AN_INT),
    "schema_index": (lambda doc: doc["schema"][1].update(index=INFINITE), NOT_AN_INT),
}


def beyond_float_text(demo_model_path, case: str) -> str:
    """The demo model's JSON with one BEYOND_FLOAT_CASES edit."""
    doc = json.loads(demo_model_path.read_text())
    BEYOND_FLOAT_CASES[case][0](doc)
    return json.dumps(doc).replace(f'"{INFINITE}"', INFINITE)


@pytest.mark.parametrize("case", list(BEYOND_FLOAT_CASES))
def test_model_number_beyond_float_range_is_data_error(tmp_path, demo_model_path, capsys, case):
    bad = tmp_path / "beyond_float.json"
    bad.write_text(beyond_float_text(demo_model_path, case))
    if case == "trajectory":  # the block is decoded, and fails, only where it is read
        argv, source = (["report-trajectories", "--instances", "0", "--out-dir",
                         str(tmp_path / "traj")], "the model's trajectory block")
    else:
        argv, source = ["report-alphas", "--out", str(tmp_path / "a.csv")], f"model {bad}"
    assert run([argv[0], "--model", str(bad), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"tweakboost: data error: cannot read {source}: "
                            f"{BEYOND_FLOAT_CASES[case][1]}\n")
    assert captured.out == ""


@pytest.mark.parametrize("case", [case for case in BEYOND_FLOAT_CASES if case != "trajectory"])
def test_library_reads_a_number_beyond_float_range_as_value_error(tmp_path, demo_model_path,
                                                                  case):
    text = beyond_float_text(demo_model_path, case)
    bad = tmp_path / "beyond_float.json"
    bad.write_text(text)
    for read in (lambda: load_model(bad), lambda: model_from_dict(json.loads(text))):
        with pytest.raises(ValueError) as info:  # an OverflowError is no ValueError
            read()
        assert info.type is ValueError
        assert str(info.value) == BEYOND_FLOAT_CASES[case][1]


# -------------------------------------------------- a corrupt trajectory block

def corrupt_trajectories(doc: dict, kind: str) -> str:
    """The model's JSON with its trajectory block broken in one way."""
    traj = [row[:] for row in doc["trajectories"]]
    if kind == "row-sum":
        traj[3][0] *= 2.0
    elif kind == "token":
        traj[2][5] = "TOKEN"
    elif kind == "negative":  # the row still sums to 1
        traj[1][0] += 5.0
        traj[1][1] -= 5.0
    elif kind == "infinite":
        traj[1][0], traj[1][1] = math.inf, -math.inf
    elif kind == "huge":  # finite cells whose row sum overflows
        traj[1][0] = traj[1][1] = 1e308
    else:  # "k-rows": K rows instead of K+1
        traj = traj[:-1]
    return json.dumps({**doc, "trajectories": traj}).replace('"TOKEN"', "oops")


@pytest.fixture
def two_feature_model(tmp_path):
    """A K=10, depth-2 model of 80 rows with 2 features (small enough for
    verify's grid) and its training CSV."""
    data = tmp_path / "data.csv"
    save_csv(random_learnable_dataset(np.random.default_rng(11), 80, 2), data)
    model = tmp_path / "model.json"
    assert run(["train", "--data", str(data), "--k", "10", "--depth", "2",
                "--out", str(model)]) == 0
    return model, data


def block_free_commands(model, data, out):
    """Commands that never read the trajectory block, each writing out/<i>."""
    return [
        ["explain", "--model", str(model), "--data", str(data), "--row", "3",
         "--prune", "none", "--out", str(out / "0")],
        ["explain", "--model", str(model), "--data", str(data), "--row", "3",
         "--prune", "alpha-mass:0.8", "--out", str(out / "1")],
        ["explain", "--model", str(model), "--instance", "2.0,7.0",
         "--prune", "alpha-mass:0.8", "--out", str(out / "2")],
        ["verify", "--model", str(model), "--data", str(data), "--n-instances", "4",
         "--out", str(out / "3")],
        ["report-alphas", "--model", str(model), "--out", str(out / "4")],
    ]


@pytest.mark.parametrize("kind", ["row-sum", "token", "k-rows", "negative", "infinite", "huge"])
def test_corrupt_trajectory_block_is_read_only_where_needed(tmp_path, two_feature_model,
                                                            capsys, kind):
    model, data = two_feature_model
    out = tmp_path / "out"
    out.mkdir()
    intact = model.read_text()
    runs = []
    for text in (intact, corrupt_trajectories(json.loads(intact), kind)):
        model.write_text(text)
        for argv in block_free_commands(model, data, out):
            assert run(argv) == 0, argv
        runs.append((capsys.readouterr(), [(out / str(i)).read_bytes() for i in range(5)]))
    assert runs[0] == runs[1]

    for argv in (["explain", "--model", str(model), "--data", str(data), "--row", "3",
                  "--prune", "trajectory:5,0.5", "--out", str(tmp_path / "t.json")],
                 ["explain", "--model", str(model), "--data", str(data), "--row", "3",
                  "--prune", "both:0.8,5,0.5", "--out", str(tmp_path / "b.json")],
                 ["report-trajectories", "--model", str(model), "--instances", "0,5",
                  "--out-dir", str(tmp_path / "traj")]):
        with warnings.catch_warnings(record=True) as seen:  # a warning would be a second line
            warnings.simplefilter("always")
            assert run(argv) == 2, argv
        assert [str(w.message) for w in seen] == [], argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, argv
        assert "cannot read the model's trajectory block" in captured.err
        assert "Traceback" not in captured.err
    assert not (tmp_path / "t.json").exists() and not (tmp_path / "traj").exists()

    e = load_model(model)
    for _ in range(2):  # a failed decode caches nothing, so every read fails alike
        with pytest.raises(DataError, match="trajectory block") as exc:
            e.trajectories
        assert isinstance(exc.value, ValueError)
    assert "trajectories" not in vars(e)


def test_model_whose_only_trajectory_block_is_nested_is_data_error(tmp_path, demo_model_path,
                                                                   capsys):
    doc = json.loads(demo_model_path.read_text())
    doc["config"]["trajectories"] = doc.pop("trajectories")
    bad = tmp_path / "nested.json"
    bad.write_text(json.dumps(doc))
    assert run(["explain", "--model", str(bad), "--demo", "--row", "1"]) == 2
    assert capsys.readouterr().err == f"tweakboost: data error: cannot read model {bad}: 'trajectories'\n"


def test_model_file_that_is_not_plain_utf8_json_is_data_error(tmp_path, demo_model_path,
                                                              capsys):
    data = demo_model_path.read_bytes()
    bom, invalid = tmp_path / "bom.json", tmp_path / "invalid.json"
    bom.write_bytes(b"\xef\xbb\xbf" + data)
    invalid.write_bytes(data.replace(b"[[", b"[[\xff", 1))
    bad_at = invalid.read_bytes().index(b"\xff")
    for path, message in (
            (bom, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (invalid, f"'utf-8' codec can't decode byte 0xff in position {bad_at}: "
                      "invalid start byte")):
        assert run(["explain", "--model", str(path), "--demo", "--row", "1"]) == 2
        assert capsys.readouterr().err == (
            f"tweakboost: data error: cannot read model {path}: {message}\n")


def test_model_redumped_with_non_ascii_names_explains_alike(tmp_path, demo_model_path,
                                                           monkeypatch):
    # a file that is not all ASCII takes the full parse, and nothing else changes
    doc = json.loads(demo_model_path.read_text())
    doc["schema"][0]["name"] = "é"
    outs = []
    for ensure_ascii in (True, False):
        work = tmp_path / f"ensure_ascii-{ensure_ascii}"
        work.mkdir()
        (work / "model.json").write_bytes(json.dumps(doc, ensure_ascii=ensure_ascii).encode())
        monkeypatch.chdir(work)  # the explanation records the model's path
        assert run(["explain", "--model", "model.json", "--demo", "--row", "3",
                    "--prune", "both:0.8,5,0.5", "--out", "explain.json"]) == 0
        outs.append((work / "explain.json").read_bytes())
        assert "trajectories" not in vars(load_model("model.json"))  # checked on first read
    assert outs[0] == outs[1]


def test_corrupt_trajectory_block_fails_alike_in_every_layout(tmp_path, demo_model_path,
                                                              capsys, monkeypatch):
    # the block is checked on its first read whatever the file's layout: commands that
    # never read it succeed alike, and one that reads it fails with the same one line
    doc = json.loads(demo_model_path.read_text())
    doc["schema"][0]["name"] = "é"
    doc["trajectories"][1][0] += 0.5
    layouts = {"save_model": {}, "indent": {"indent": 2}, "sort_keys": {"sort_keys": True},
               "non_ascii": {"ensure_ascii": False}}
    runs = []
    for layout, options in layouts.items():
        work = tmp_path / layout
        work.mkdir()
        (work / "model.json").write_bytes(json.dumps(doc, **options).encode())
        monkeypatch.chdir(work)  # the explanation records the model's path
        assert run(["explain", "--model", "model.json", "--demo", "--row", "3",
                    "--prune", "none", "--out", "explain.json"]) == 0, layout
        assert run(["report-alphas", "--model", "model.json", "--out", "alphas.csv"]) == 0, layout
        block_free = capsys.readouterr()
        assert run(["report-trajectories", "--model", "model.json", "--instances", "0",
                    "--out-dir", "trajectories"]) == 2, layout
        failed = capsys.readouterr()
        assert failed.out == "" and not (work / "trajectories").exists(), layout
        runs.append((block_free, (work / "explain.json").read_bytes(),
                     (work / "alphas.csv").read_bytes(), failed.err))
    assert runs[0][3] == ("tweakboost: data error: cannot read the model's trajectory block: "
                          "every trajectory row must sum to 1\n")
    assert all(r == runs[0] for r in runs[1:])


def test_explain_rerun_output_is_byte_identical(tmp_path, demo_model_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["explain", "--model", str(demo_model_path), "--demo", "--row", "5"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_explain_bad_prune_spec_is_usage_error(demo_model_path):
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "0",
                "--prune", "sometimes"]) == 1
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "0",
                "--prune", "alpha-mass:lots"]) == 1
    for spec in ("trajectory:4", "both:0.9,4", "alpha-mass:0.5,3", "trajectory:4.5,0.1",
                 "none:1"):
        assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "0",
                    "--prune", spec]) == 1, spec


@pytest.mark.parametrize("spec", [
    "alpha-mass:2", "alpha-mass:0", "alpha-mass:-0.5", "alpha-mass:nan", "alpha-mass:inf",
    "trajectory:1,0.1", "trajectory:5,-1", "trajectory:5,nan", "both:0.5,1,0.1",
    "both:1.5,5,0.1", "both:0.5,5,-0.01",
])
@pytest.mark.parametrize("target", [["--demo", "--row", "3"], ["--instance", "1,1,1,1,1,1,1,1"]])
def test_explain_out_of_range_prune_parameters_are_usage_errors(demo_model_path, capsys,
                                                                 spec, target):
    assert run(["explain", "--model", str(demo_model_path), *target, "--prune", spec]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1 and "--prune" in captured.err
    assert captured.out == ""


def test_explain_demo_and_data_together_is_usage_error(tmp_path, demo_model_path, capsys):
    assert run(["explain", "--model", str(demo_model_path), "--demo",
                "--data", str(tmp_path / "other.csv"), "--row", "1"]) == 1
    captured = capsys.readouterr()
    assert "not allowed with" in captured.err
    assert captured.out == ""


def test_parse_prune_spec_defaults():
    assert parse_prune_spec("none") == ("none", {})
    assert parse_prune_spec("alpha-mass") == ("alpha-mass", {"mass_fraction": 0.95})
    assert parse_prune_spec("trajectory:4,0.1") == \
        ("trajectory", {"window": 4, "rel_tol": 0.1})
    assert parse_prune_spec("both:0.9,4,0.1") == \
        ("both", {"mass_fraction": 0.9, "window": 4, "rel_tol": 0.1})


def test_explain_epsilon_flag(demo_model_path, capsys):
    code = run(["explain", "--model", str(demo_model_path), "--demo", "--row", "2",
                "--epsilon", "0.05"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon_policy"]["value"] == 0.05


# -------------------------------------------------- reports

def test_report_alphas_shape(tmp_path, demo_model_path, demo_model):
    # on the K=100 model alphas.sum() (pairwise) and the last cumulative sum
    # differ, so the expected cells pin which of the two divides
    k100 = tmp_path / "k100.json"
    save_model(demo_model, k100)
    for model_path in (demo_model_path, k100):
        out = tmp_path / "alphas.csv"
        assert run(["report-alphas", "--model", str(model_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("model_version" in c for c in comments)
        assert any("config" in c for c in comments)
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "k,alpha,cumulative_mass"
        e = load_model(model_path)
        cum = np.cumsum(e.alphas) / e.alphas.sum()
        assert body[1:] == [f"{k + 1},{float(a)!r},{float(c)!r}"
                            for k, (a, c) in enumerate(zip(e.alphas, cum))]
        assert float(body[-1].split(",")[2]) == pytest.approx(1.0)


def test_report_trajectories_shape(tmp_path, demo_model_path):
    out_dir = tmp_path / "traj"
    assert run(["report-trajectories", "--model", str(demo_model_path),
                "--instances", "0,5", "--out-dir", str(out_dir)]) == 0
    e = load_model(demo_model_path)
    for i in (0, 5):
        lines = (out_dir / f"trajectory_{i}.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "k,w"
        assert len(body) - 1 == e.k + 1  # includes w_0
        assert float(body[1].split(",")[1]) == pytest.approx(1 / 600)
        assert [(int(k), float(w)) for k, w in (l.split(",") for l in body[1:])] == \
            list(enumerate(e.trajectories[:, i].tolist()))


def test_report_trajectories_non_training_index(tmp_path, demo_model_path, capsys):
    code = run(["report-trajectories", "--model", str(demo_model_path),
                "--instances", "600", "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert "training" in capsys.readouterr().err


# -------------------------------------------------- verify

def test_verify_small_model(tmp_path, small_csv, capsys):
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(small_csv), "--k", "3", "--depth", "2",
                "--out", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "verify.csv"
    code = run(["verify", "--model", str(model), "--data", str(small_csv),
                "--n-instances", "5", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "instance,explain_distance,oracle_distance,agree" in text
    assert "soundness violations 0" in text
    assert out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_needs_at_least_one_instance(tmp_path, small_csv, capsys, n):
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(small_csv), "--k", "3", "--depth", "2",
                "--out", str(model)]) == 0
    capsys.readouterr()
    assert run(["verify", "--model", str(model), "--data", str(small_csv),
                "--n-instances", n]) == 1
    captured = capsys.readouterr()
    assert "--n-instances" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag,value", [
    ("--slack", "nan"), ("--slack", "inf"), ("--slack", "-inf"), ("--slack", "-1"),
    ("--resolution", "0"), ("--resolution", "-5"),
])
def test_verify_rejects_bad_slack_and_resolution(tmp_path, small_csv, capsys, flag, value):
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(small_csv), "--k", "3", "--depth", "2",
                "--out", str(model)]) == 0
    capsys.readouterr()
    assert run(["verify", "--model", str(model), "--data", str(small_csv),
                f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and flag in captured.err
    assert captured.out == ""


def test_verify_overflowing_epsilon_writes_no_infinite_distance(tmp_path, small_csv, capsys):
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(small_csv), "--k", "3", "--depth", "2",
                "--out", str(model)]) == 0
    capsys.readouterr()
    assert run(["verify", "--model", str(model), "--data", str(small_csv), "--n-instances", "5",
                "--epsilon-mode", "absolute", "--epsilon", "1e300"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[3:8]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(cell == "" or math.isfinite(float(cell)) for row in rows for cell in row[1:3])
    assert captured.err == ""


def test_verify_accepts_zero_slack(tmp_path, small_csv, capsys):
    model = tmp_path / "m.json"
    assert run(["train", "--data", str(small_csv), "--k", "3", "--depth", "2",
                "--out", str(model)]) == 0
    assert run(["verify", "--model", str(model), "--data", str(small_csv),
                "--n-instances", "2", "--slack", "0", "--resolution", "1"]) == 0


def test_verify_oversized_grid(tmp_path, demo_model_path):
    # 8 features at 50 points each blows straight through the guard
    code = run(["verify", "--model", str(demo_model_path), "--demo",
                "--n-instances", "1"])
    assert code == 2


def test_verify_refuses_an_oversized_resolution_before_building_the_grid(two_feature_model,
                                                                        capsys):
    model, data = two_feature_model
    assert run(["verify", "--model", str(model), "--data", str(data), "--n-instances", "1",
                "--resolution", "10000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "tweakboost: data error: grid size exceeds the 1000000 point guard\n"


def test_verify_leaves_numpy_ma_unimported(two_feature_model):
    # the oracle's lattice finds its distinct thresholds and cells without np.unique
    model, data = two_feature_model
    out = numpy_ma_probe(
        "from tweakboost.cli import main\n"
        f"assert main(['verify', '--model', {str(model)!r}, '--data', {str(data)!r}, "
        "'--n-instances', '4']) == 0")
    if out == "preloaded":
        pytest.skip("this numpy imports numpy.ma on import")
    assert out == "False"


# -------------------------------------------------- usage

def test_unknown_subcommand_is_usage_error():
    assert run(["conjure"]) == 1


def test_no_subcommand_is_usage_error():
    assert run([]) == 1
