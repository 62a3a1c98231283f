"""The independent checker must accept right answers and reject wrong ones."""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from checker import ModelChecker, check_verify_csv, vote  # noqa: E402


def stump(feature, threshold, left, right):
    return {"feature": feature, "threshold": threshold,
            "left": {"sign": left, "purity": 1.0}, "right": {"sign": right, "purity": 1.0}}


@pytest.fixture
def checker():
    # tree 0 votes +1 above f0 = 5, tree 1 above f1 = 5; f2 is constant
    doc = {
        "schema": [{"stddev": 2.0}, {"stddev": 1.0}, {"stddev": 0.0}],
        "alphas": [1.0, 0.5],
        "trees": [stump(0, 5.0, -1, 1), stump(1, 5.0, -1, 1)],
        "staged_errors": [0.2, 0.3],
        "trajectories": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
    }
    return ModelChecker(doc)


X = np.array([2.0, 2.0, 7.0])  # margin -1.5, predicted -1


def test_accepts_a_true_counterfactual(checker):
    z = np.array([5.1, 2.0, 7.0])
    assert checker.check_counterfactual(X, z, 0, 0, {0: (2.0, 5.1)}, 3.1 / 2.0) == []


def test_rejects_a_counterfactual_that_does_not_flip(checker):
    z = np.array([2.0, 5.1, 7.0])  # margin -0.5
    problems = checker.check_counterfactual(X, z, 1, 0, {1: (2.0, 5.1)}, 3.1)
    assert any("does not flip" in p for p in problems)


def test_rejects_a_wrong_distance(checker):
    z = np.array([5.1, 2.0, 7.0])
    problems = checker.check_counterfactual(X, z, 0, 0, {0: (2.0, 5.1)}, 1.55 * (1 + 1e-9))
    assert any("distance" in p for p in problems)


def test_rejects_a_vector_outside_its_source_leaf(checker):
    z = np.array([5.1, 2.0, 7.0])  # tree 1 routes it to its -1 leaf
    problems = checker.check_counterfactual(X, z, 1, 0, {0: (2.0, 5.1)}, 1.55)
    assert any("outside leaf" in p for p in problems)


def test_rejects_changes_missing_from_delta(checker):
    z = np.array([5.1, 2.0, 8.0])
    problems = checker.check_counterfactual(X, z, 0, 0, {0: (2.0, 5.1)}, 1.55)
    assert any("delta" in p for p in problems)


def test_threshold_goes_left_and_zero_margin_votes_minus_one(checker):
    assert checker.margin(np.array([5.0, 9.0, 0.0])) == 0.5 - 1.0
    assert vote(0.0) == -1
    assert checker.distance(X, np.array([4.0, 3.0, 100.0])) == math.sqrt(2.0)


def test_certificate_check(checker):
    checker.alphas = [0.5, 1.0]
    x = np.array([9.0, 2.0, 0.0])  # +1 from the first tree alone, -1 from both
    assert checker.check_certificate(x, 1, fired=False) == []
    assert checker.check_certificate(x, 1, fired=True) != []


def test_training_checks_accept_the_library_and_reject_tampering(tmp_path):
    from run import import_library

    tb = import_library()
    ds = tb.make_demo_dataset(n_rows=200, seed=3)
    model = tb.train_adaboost(ds, K=10, max_depth=3)
    path = tmp_path / "m.json"
    tb.save_model(model, path)
    doc = json.loads(path.read_text())
    assert ModelChecker(doc).check_training(ds.rows, ds.labels, 0.8) == []
    doc["alphas"][3] *= 1.0 + 1e-9
    assert ModelChecker(doc).check_training(ds.rows, ds.labels, 0.8) != []
    assert ModelChecker(json.loads(path.read_text())).check_training(
        ds.rows, ds.labels, 1.01) != []


def test_verify_table_check():
    head = "# config\ninstance,explain_distance,oracle_distance,agree\n"
    assert check_verify_csv(head + "0,1.5,1.5,true\n1,,,true\n") == []
    assert check_verify_csv(head + "0,1.5,1.6,false\n") != []
    assert check_verify_csv(head + "0,1.5,,false\n") != []
    assert check_verify_csv(head) != []
