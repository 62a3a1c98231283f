import json

import numpy as np
import pytest

from tweakboost import load_model, make_dataset, make_demo_dataset, save_csv, save_model
from tweakboost.cli import main, parse_prune_spec

from conftest import desk_ensemble, leaf_tree, stump


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


def test_train_env_defaults_and_flag_precedence(tmp_path, small_csv, monkeypatch):
    monkeypatch.setenv("TWEAKBOOST_K", "3")
    out = tmp_path / "env.json"
    assert run(["train", "--data", str(small_csv), "--out", str(out)]) == 0
    assert load_model(out).config["K"] == 3
    out2 = tmp_path / "flag.json"
    assert run(["train", "--data", str(small_csv), "--k", "2", "--out", str(out2)]) == 0
    assert load_model(out2).config["K"] == 2


def test_train_bad_env_value_is_usage_error(tmp_path, small_csv, monkeypatch):
    monkeypatch.setenv("TWEAKBOOST_K", "many")
    assert run(["train", "--data", str(small_csv), "--out", str(tmp_path / "m.json")]) == 1


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
    assert any("trajectory" in n for n in payload["notes"])


def test_explain_negative_row_is_data_error(demo_model_path):
    assert run(["explain", "--model", str(demo_model_path), "--demo", "--row", "-1"]) == 2


def test_explain_wrong_arity_inline(demo_model_path, capsys):
    code = run(["explain", "--model", str(demo_model_path), "--instance", "1.0,2.0"])
    assert code == 2
    assert "expects 8" in capsys.readouterr().err


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


def test_parse_prune_spec_defaults():
    assert parse_prune_spec("none") == ("none", {})
    assert parse_prune_spec("alpha-mass") == ("alpha-mass", {"mass_fraction": 0.95})
    assert parse_prune_spec("trajectory:4,0.1") == \
        ("trajectory", {"window": 4, "rel_tol": 0.1})
    assert parse_prune_spec("both:0.9,4,0.1") == \
        ("both", {"mass_fraction": 0.9, "window": 4, "rel_tol": 0.1})


def test_explain_env_epsilon(demo_model_path, capsys, monkeypatch):
    monkeypatch.setenv("TWEAKBOOST_EPSILON", "0.05")
    code = run(["explain", "--model", str(demo_model_path), "--demo", "--row", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon_policy"]["value"] == 0.05


# -------------------------------------------------- reports

def test_report_alphas_shape(tmp_path, demo_model_path):
    out = tmp_path / "alphas.csv"
    assert run(["report-alphas", "--model", str(demo_model_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("model_version" in c for c in comments)
    assert any("config" in c for c in comments)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "k,alpha,cumulative_mass"
    e = load_model(demo_model_path)
    assert len(body) - 1 == e.k
    first = body[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(float(e.alphas[0]))
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


def test_verify_oversized_grid(tmp_path, demo_model_path):
    # 8 features at 50 points each blows straight through the guard
    code = run(["verify", "--model", str(demo_model_path), "--demo",
                "--n-instances", "1"])
    assert code == 2


# -------------------------------------------------- usage

def test_unknown_subcommand_is_usage_error():
    assert run(["conjure"]) == 1


def test_no_subcommand_is_usage_error():
    assert run([]) == 1
