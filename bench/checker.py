"""Independent checks of tweakboost's outputs.

Nothing here calls the library. Margins come from walking the saved model
JSON (a value equal to the threshold goes left; a zero margin votes -1) and
distances are recomputed as L2 over the schema's stddevs, leaving constant
features out. Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

ERR_CLAMP = 1e-10  # the clamp the stage-weight formula applies to a staged error
DISTANCE_RTOL = 1e-12
TRAJECTORY_ATOL = 1e-9


def vote(margin: float) -> int:
    return 1 if margin > 0 else -1


def _leaf(node: dict, x) -> dict:
    while "sign" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


def _leaves(node: dict, sign: int, out: list) -> list:
    """Leaves of one sign in left-to-right order, the order explain numbers
    its opposite-sign paths in."""
    if "sign" in node:
        if node["sign"] == sign:
            out.append(node)
    else:
        _leaves(node["left"], sign, out)
        _leaves(node["right"], sign, out)
    return out


def _route(node: dict, X: np.ndarray) -> np.ndarray:
    signs = np.empty(X.shape[0], dtype=np.int64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if "sign" in node:
            signs[idx] = node["sign"]
            continue
        go_left = X[idx, node["feature"]] <= node["threshold"]
        stack.append((node["left"], idx[go_left]))
        stack.append((node["right"], idx[~go_left]))
    return signs


class ModelChecker:
    """Reference evaluator built from a parsed model document."""

    def __init__(self, doc: dict):
        self.trees = doc["trees"]
        self.alphas = [float(a) for a in doc["alphas"]]
        self.staged_errors = [float(e) for e in doc["staged_errors"]]
        # An array, not the parsed lists: long-lived lists of every training
        # weight would slow each full garbage collection of the process that
        # holds the checker, timed library calls included.
        self.trajectories = np.array(doc["trajectories"], dtype=np.float64)
        sd = np.array([float(s["stddev"]) for s in doc["schema"]])
        self.used = sd != 0.0
        self.sd = sd[self.used]

    def margin(self, x, upto: int | None = None) -> float:
        total = 0.0
        for a, tree in zip(self.alphas[:upto], self.trees[:upto]):
            total += a * _leaf(tree, x)["sign"]
        return total

    def tree_signs(self, X: np.ndarray) -> list[np.ndarray]:
        return [_route(tree, X) for tree in self.trees]

    def margins(self, X: np.ndarray, signs: list[np.ndarray] | None = None) -> np.ndarray:
        signs = self.tree_signs(X) if signs is None else signs
        m = np.zeros(X.shape[0])
        for a, s in zip(self.alphas, signs):
            m += a * s
        return m

    def distance(self, x, z) -> float:
        d = (np.asarray(z, dtype=np.float64) - np.asarray(x, dtype=np.float64))[self.used]
        return math.sqrt(math.fsum((v / s) ** 2 for v, s in zip(d, self.sd)))

    def check_training(self, X: np.ndarray, y: np.ndarray, acc_floor: float) -> list[str]:
        """Stage weights, staged errors, trajectory rows and accuracy."""
        problems = []
        signs = self.tree_signs(X)
        traj = self.trajectories
        for k, (a, err) in enumerate(zip(self.alphas, self.staged_errors)):
            e = min(max(err, ERR_CLAMP), 1.0 - ERR_CLAMP)
            want = math.log((1.0 - e) / e)
            if abs(a - want) > 1e-12 * abs(want):
                problems.append(f"alpha[{k}]={a!r}, log((1-err)/err)={want!r}")
            miss_mass = math.fsum(traj[k][signs[k] != y])
            if abs(miss_mass - err) > TRAJECTORY_ATOL:
                problems.append(f"staged error[{k}]={err!r}, weighted misses {miss_mass!r}")
        for k, row in enumerate(traj):
            if abs(math.fsum(row) - 1.0) > TRAJECTORY_ATOL:
                problems.append(f"trajectory row {k} sums to {math.fsum(row)!r}")
        acc = float(np.mean(np.where(self.margins(X, signs) > 0, 1, -1) == y))
        if acc < acc_floor:
            problems.append(f"training accuracy {acc:.4f} below floor {acc_floor}")
        return problems

    def check_counterfactual(self, x, z, source_tree: int, source_path: int,
                             delta: dict, distance: float) -> list[str]:
        """z must flip the full vote, sit in leaf number source_path among
        the opposite-sign leaves of source_tree, change exactly the features
        in delta, and lie at the reported distance."""
        x = np.asarray(x, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        problems = []
        pred = vote(self.margin(x))
        if vote(self.margin(z)) == pred:
            problems.append("counterfactual does not flip the ensemble")
        if not 0 <= source_tree < len(self.trees):
            problems.append(f"source_tree {source_tree} out of range")
        else:
            tree = self.trees[source_tree]
            opposite = _leaves(tree, -pred, [])
            if not 0 <= source_path < len(opposite) or opposite[source_path] is not _leaf(tree, z):
                problems.append(f"counterfactual outside leaf {source_path} of tree {source_tree}")
        changed = {int(f) for f in np.nonzero(z != x)[0]}
        if changed != set(delta):
            problems.append(f"changed features {sorted(changed)} != delta {sorted(delta)}")
        for f, (old, new) in delta.items():
            if (old, new) != (x[f], z[f]):
                problems.append(f"delta[{f}]=({old!r}, {new!r}) disagrees with the vectors")
        want = self.distance(x, z)
        if abs(distance - want) > DISTANCE_RTOL * max(abs(want), abs(distance)):
            problems.append(f"distance {distance!r}, recomputed {want!r}")
        return problems

    def check_certificate(self, x, k_prime: int, fired: bool) -> list[str]:
        """Where the certificate fires, the truncated and full votes agree."""
        if fired and vote(self.margin(x, k_prime)) != vote(self.margin(x)):
            return [f"certificate fired at K'={k_prime} but the truncated vote differs"]
        return []


def check_verify_csv(text: str, slack: float = 1e-9) -> list[str]:
    """verify's comparison table: wherever explain found a counterfactual the
    oracle's must be at least as close."""
    problems = []
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("instance")]
    if not rows:
        problems.append("verify wrote no rows")
    for i, d_e, d_o, _agree in rows:
        if d_e and (not d_o or float(d_o) > float(d_e) + slack):
            problems.append(f"instance {i}: oracle {d_o or 'none'} vs explain {d_e}")
    return problems
