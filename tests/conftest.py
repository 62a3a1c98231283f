import os
import subprocess
import sys

import numpy as np
import pytest

from tweakboost import Ensemble, FeatureSchema, make_dataset, make_demo_dataset, train_adaboost
from tweakboost.cart import Internal, Leaf, Tree

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def numpy_ma_probe(work: str) -> str:
    """Run the lines of `work` in a fresh interpreter and say whether they
    imported numpy.ma: "True", "False", or "preloaded" where numpy imports
    it with itself (numpy 1.x does). np.unique's first call imports it,
    which costs every such process 8-14 ms."""
    probe = ("import sys, numpy\n"
             "if 'numpy.ma' in sys.modules:\n"
             "    print('preloaded')\n"
             "else:\n"
             + "".join(f"    {line}\n" for line in work.splitlines())
             + "    print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return out.splitlines()[-1]


# CSV files that cannot be read as text or as CSV, each with its DataError's
# message after the file's path
UNREADABLE_CSVS = {
    "not_utf8": (b"a,label\n\xff,1\n", ": not UTF-8 text (byte 0xff: invalid start byte)"),
    "oversized_field": (b"a,label\n1,1\n" + b"9" * 200_000 + b",-1\n",
                        ", line 3: field larger than field limit (131072)"),
}

# one fault in the root of stump(1, 2.5, -1, 1) in a 2-feature model, and the
# ValueError's message
BAD_NODES = [("feature", 2, "split feature 2 outside [0, 2)"),
             ("feature", -1, "split feature -1 outside [0, 2)"),
             ("threshold", float("nan"), "split threshold nan is not finite"),
             ("threshold", float("inf"), "split threshold inf is not finite"),
             ("left", {"sign": 0, "purity": 1.0}, "leaf sign must be -1 or +1, got 0")]

# a missing key or a value of the wrong JSON type, as an edit of the model
# document of stump(1, 2.5, -1, 1), and the message of the KeyError or
# TypeError that reading it raises on the way
MALFORMED_MODELS = {
    "no trees": (lambda d: {"version": d["version"]}, "'trees'"),
    "leaf without purity": (lambda d: {**d, "trees": [{**d["trees"][0], "left": {"sign": -1}}]},
                            "'purity'"),
    "node as a list": (lambda d: {**d, "trees": [{**d["trees"][0], "right": [1, 1.0]}]},
                       "list indices must be integers or slices, not str"),
    "schema as a number": (lambda d: {**d, "schema": 5}, "'int' object is not iterable"),
}


def stump(feature: int, threshold: float, left_sign: int, right_sign: int) -> Tree:
    return Tree(
        root=Internal(feature, threshold, Leaf(left_sign, 1.0), Leaf(right_sign, 1.0)),
        depth=1,
        n_leaves=2,
    )


def leaf_tree(sign: int) -> Tree:
    return Tree(root=Leaf(sign, 1.0), depth=0, n_leaves=1)


def make_schema(n_features: int, lo: float = 0.0, hi: float = 10.0) -> list[FeatureSchema]:
    # uniform(lo, hi) population stats; good enough for desk models
    std = (hi - lo) / np.sqrt(12.0)
    return [
        FeatureSchema(name=f"f{i}", index=i, min=lo, max=hi, mean=(lo + hi) / 2, stddev=std)
        for i in range(n_features)
    ]


def desk_ensemble(trees, alphas, n_features: int = 2, lo: float = 0.0, hi: float = 10.0,
                  n_train: int = 4, trajectories=None) -> Ensemble:
    """Hand-built ensemble with a valid uniform trajectory block."""
    K = len(trees)
    if trajectories is None:
        trajectories = np.full((K + 1, n_train), 1.0 / n_train)
    return Ensemble(
        trees=list(trees),
        alphas=np.asarray(alphas, dtype=np.float64),
        trajectories=np.asarray(trajectories, dtype=np.float64),
        staged_errors=np.full(K, 0.2),
        schema=make_schema(n_features, lo, hi),
        config={"K": K, "max_depth": max((t.depth for t in trees), default=1), "seed": 0},
    )


def random_learnable_dataset(rng, n_rows: int, n_features: int, noise: float = 0.1):
    """Random linear rule plus label noise; boostable for many rounds."""
    X = rng.uniform(0.0, 10.0, size=(n_rows, n_features))
    coef = rng.normal(size=n_features)
    cut = float(np.median(X @ coef))
    y = np.where(X @ coef > cut, 1, -1)
    flip = rng.random(n_rows) < noise
    y = np.where(flip, -y, y)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return make_dataset(X, y, [f"f{i}" for i in range(n_features)])


@pytest.fixture(scope="session")
def demo_ds():
    return make_demo_dataset()


@pytest.fixture(scope="session")
def demo_model(demo_ds):
    return train_adaboost(demo_ds, K=100, max_depth=4, seed=42)


@pytest.fixture(scope="session")
def deep_demo_model(demo_ds):
    return train_adaboost(demo_ds, K=100, max_depth=6)


@pytest.fixture
def tiny_ds():
    # cleanly separable on f0 at 3.0
    X = np.array([[1.0, 5.0], [2.0, 1.0], [4.0, 2.0], [5.0, 8.0],
                  [2.5, 3.0], [4.5, 4.0]])
    y = np.array([-1, -1, 1, 1, -1, 1])
    return make_dataset(X, y, ["f0", "f1"])
