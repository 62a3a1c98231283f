"""Prefix selection K' < K for the counterfactual search.

Two complementary heuristics, both CLI-overridable and echoed in reports:
the cumulative stage-weight mass of the leading trees, and the per-instance
sample-weight trajectory flattening out. Neither is quantified by standard
theory; they are operationalizations, labeled as such in every report.

This module owns the whole K' policy: the prune spec grammar and its
defaults (parse_prune_spec), the parameter bounds (one check for every
entry point) and the per-instance dispatch (select_kprime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boost import Ensemble, ensemble_margins, staged_predictions, verdicts, weight_trajectory
from .data import DataError, Dataset

__all__ = [
    "DEFAULT_MASS_FRACTION",
    "DEFAULT_WINDOW",
    "DEFAULT_REL_TOL",
    "PruneReport",
    "parse_prune_spec",
    "select_kprime",
    "select_kprime_alpha_mass",
    "select_kprime_trajectory",
    "trajectory_fits",
    "combine_reports",
    "agreement_rate",
    "margin_certificate",
]

DEFAULT_MASS_FRACTION = 0.95
DEFAULT_WINDOW = 10
DEFAULT_REL_TOL = 0.02

# each strategy's parameters in spec order with their defaults; a spec value
# is cast to its default's type
_STRATEGIES = {
    "alpha-mass": {"mass_fraction": DEFAULT_MASS_FRACTION},
    "trajectory": {"window": DEFAULT_WINDOW, "rel_tol": DEFAULT_REL_TOL},
    "both": {"mass_fraction": DEFAULT_MASS_FRACTION, "window": DEFAULT_WINDOW,
             "rel_tol": DEFAULT_REL_TOL},
}

# forgiveness for cumulative float sums when comparing against fraction*total
_MASS_SLACK = 1e-9


@dataclass(frozen=True)
class PruneReport:
    k_prime: int
    strategy: str  # "alpha-mass" | "trajectory" | "both"
    mass_captured: float
    params: dict = field(default_factory=dict)


def _check_params(mass_fraction: float = 1.0, window: int = 2,
                  rel_tol: float = 0.0) -> None:
    """ValueError for the first parameter outside its selector's bounds:
    fraction in (0, 1], window >= 2, tolerance >= 0. An omitted parameter
    defaults to a value inside its bounds. Each comparison is negated, so
    NaN fails it."""
    if not 0.0 < mass_fraction <= 1.0:
        raise ValueError(f"mass fraction must be in (0, 1], got {mass_fraction}")
    if not window >= 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if not rel_tol >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {rel_tol}")


def parse_prune_spec(spec: str) -> tuple[str, dict]:
    """Parse a `--prune` value: none | alpha-mass:<frac> |
    trajectory:<window>,<tol> | both:<frac>,<window>,<tol>. Parameters are
    optional; the module defaults fill the gaps. A malformed spec, or a value
    outside the selectors' bounds, raises ValueError whether or not the
    selection later runs."""
    spec = spec.strip()
    if spec == "none":
        return "none", {}
    name, _, rest = spec.partition(":")
    defaults = _STRATEGIES.get(name)
    if defaults is None:
        raise ValueError(f"unknown prune strategy {spec!r}; "
                         "expected none|alpha-mass:F|trajectory:W,TOL|both:F,W,TOL")
    if not rest:
        return name, dict(defaults)
    values = rest.split(",")
    try:
        if len(values) != len(defaults):
            raise ValueError(f"expected {len(defaults)} comma-separated values, got {len(values)}")
        params = {k: type(d)(v) for (k, d), v in zip(defaults.items(), values)}
        _check_params(**params)
    except ValueError as exc:
        raise ValueError(f"bad --prune parameters in {spec!r}: {exc}")
    return name, params


def _mass_at(e: Ensemble, k_prime: int) -> float:
    total = float(e.alphas.sum())
    return float(e.alphas[:k_prime].sum()) / total if total > 0 else 1.0


def select_kprime_alpha_mass(e: Ensemble, mass_fraction: float = DEFAULT_MASS_FRACTION) -> PruneReport:
    """Smallest K' whose leading trees capture mass_fraction of the total
    stage weight; the trailing trees' influence on the vote is bounded by
    the remaining mass."""
    _check_params(mass_fraction=mass_fraction)
    if e.k == 0:
        raise ValueError("empty ensemble")
    total = float(e.alphas.sum())
    cum = np.cumsum(e.alphas)
    target = mass_fraction * total - _MASS_SLACK * max(1.0, abs(total))
    k_prime = int(np.argmax(cum >= target)) + 1
    return PruneReport(
        k_prime=k_prime,
        strategy="alpha-mass",
        mass_captured=_mass_at(e, k_prime),
        params={"mass_fraction": mass_fraction},
    )


def select_kprime_trajectory(e: Ensemble, i: int, window: int = DEFAULT_WINDOW,
                             rel_tol: float = DEFAULT_REL_TOL) -> PruneReport:
    """Smallest K' whose trailing `window` relative weight changes
    |w_k - w_{k-1}| / w_{k-1}, k in (K'-window, K'], all sit within rel_tol:
    the trajectory has flattened out there (the per-round prediction is
    oscillating rather than moving). Falls back to K'=K with
    stabilized=False when no window qualifies."""
    _check_params(window=window, rel_tol=rel_tol)
    if e.k == 0:
        raise ValueError("empty ensemble")
    w = weight_trajectory(e, i)  # length K+1, validates i
    rel = np.abs(np.diff(w)) / w[:-1]  # rel[k-1] is the change at round k
    k = e.k
    params = {"window": window, "rel_tol": rel_tol, "instance": i, "stabilized": False}
    # calm[j] counts the rounds among 1..j within rel_tol (NaN is not), so
    # the window ending at round K' is calm when calm[K'] - calm[K' - window] == window
    calm = np.concatenate(([0], np.cumsum(rel <= rel_tol)))
    hits = np.flatnonzero(calm[window:] - calm[:-window] == window)
    if hits.size:
        k_prime = int(hits[0]) + window
        params["stabilized"] = True
        return PruneReport(
            k_prime=k_prime,
            strategy="trajectory",
            mass_captured=_mass_at(e, k_prime),
            params=params,
        )
    if window > k:
        params["note"] = "window exceeds available rounds"
    else:
        params["note"] = "no stabilization"
    return PruneReport(
        k_prime=k, strategy="trajectory", mass_captured=_mass_at(e, k), params=params
    )


def trajectory_fits(e: Ensemble, i: int, x, label: int) -> bool:
    """True when training row i's stored weight trajectory can belong to the
    instance x with true label `label`: in every round k the stored ratio
    w_k[i] / w_{k-1}[i] equals e^{alpha_k miss_k} / ((1 - err_k) + err_k e^{alpha_k})
    within rtol 1e-9, where miss_k is x's staged prediction against label.
    A row of another dataset read at index i does not fit."""
    w = weight_trajectory(e, i)  # validates i
    miss = staged_predictions(e, x) != label
    err = e.staged_errors
    ratio = np.exp(e.alphas * miss) / ((1.0 - err) + err * np.exp(e.alphas))
    return bool(np.allclose(w[1:], w[:-1] * ratio, rtol=1e-9, atol=0.0))


def combine_reports(a: PruneReport, b: PruneReport) -> PruneReport:
    """Conservative union when both strategies are requested: the larger K'
    wins, so neither signal's evidence is discarded."""
    k_prime = max(a.k_prime, b.k_prime)
    mass = max(a.mass_captured, b.mass_captured)
    return PruneReport(
        k_prime=k_prime,
        strategy="both",
        mass_captured=mass,
        params={a.strategy: a.params, b.strategy: b.params},
    )


def select_kprime(e: Ensemble, strategy: str, params: dict, row: int | None, x,
                  label: int | None) -> tuple[int | None, list[str]]:
    """K' for one instance under a parsed prune spec (None: the whole
    ensemble), plus notes for the report. row is x's training row with true
    label `label`, or None for an instance that has none; trajectory pruning
    is then skipped with a note. Raises DataError for a row beyond the
    training rows, or one whose stored trajectory cannot belong to x."""
    if strategy == "none":
        return None, []
    if strategy == "alpha-mass":
        return select_kprime_alpha_mass(e, params["mass_fraction"]).k_prime, []
    if row is None:
        if strategy == "trajectory":
            return None, ["trajectory pruning skipped: inline instance has no trajectory"]
        return select_kprime_alpha_mass(e, params["mass_fraction"]).k_prime, [
            "trajectory pruning skipped: inline instance has no trajectory; "
            "alpha-mass selection used alone"]
    if not trajectory_fits(e, row, x, label):
        raise DataError(
            f"row {row}'s stored weight trajectory cannot belong to this instance "
            "(the data are not the model's training data)"
        )
    traj = select_kprime_trajectory(e, row, params["window"], params["rel_tol"])
    if strategy == "trajectory":
        return traj.k_prime, []
    return combine_reports(select_kprime_alpha_mass(e, params["mass_fraction"]), traj).k_prime, []


def agreement_rate(e: Ensemble, k_prime: int, ds: Dataset) -> float:
    """Fraction of dataset instances whose truncated-vote prediction matches
    the full-ensemble prediction."""
    if ds.n_rows == 0:
        raise ValueError("empty dataset")
    part = ensemble_margins(e, ds.rows, upto=k_prime)
    return float(np.mean(verdicts(ensemble_margins(e, ds.rows)) == verdicts(part)))


def margin_certificate(e: Ensemble, x, k_prime: int) -> bool:
    """True when the truncated margin provably cannot be overturned by the
    remaining trees: |margin at K'| > sum of trailing stage weights. When it
    fires, truncated and full predictions agree, unconditionally."""
    m = float(ensemble_margins(e, [x], upto=k_prime)[0])
    return abs(m) > float(e.alphas[k_prime:].sum())
