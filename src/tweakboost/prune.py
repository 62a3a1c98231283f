"""Prefix selection K' < K for the counterfactual search.

Two complementary heuristics, both CLI-overridable and echoed in reports:
the cumulative stage-weight mass of the leading trees, and the per-instance
sample-weight trajectory flattening out. Neither is quantified by standard
theory; they are operationalizations, labeled as such in every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boost import Ensemble, ensemble_margins, weight_trajectory
from .data import Dataset

__all__ = [
    "DEFAULT_MASS_FRACTION",
    "DEFAULT_WINDOW",
    "DEFAULT_REL_TOL",
    "PruneReport",
    "select_kprime_alpha_mass",
    "select_kprime_trajectory",
    "combine_reports",
    "agreement_rate",
    "margin_certificate",
    "alpha_report_rows",
    "trajectory_report_rows",
]

DEFAULT_MASS_FRACTION = 0.95
DEFAULT_WINDOW = 10
DEFAULT_REL_TOL = 0.02

# forgiveness for cumulative float sums when comparing against fraction*total
_MASS_SLACK = 1e-9


@dataclass(frozen=True)
class PruneReport:
    k_prime: int
    strategy: str  # "alpha-mass" | "trajectory" | "both"
    mass_captured: float
    params: dict = field(default_factory=dict)
    agreement_rate: float | None = None


def _mass_at(e: Ensemble, k_prime: int) -> float:
    total = float(e.alphas.sum())
    return float(e.alphas[:k_prime].sum()) / total if total > 0 else 1.0


def select_kprime_alpha_mass(e: Ensemble, mass_fraction: float = DEFAULT_MASS_FRACTION) -> PruneReport:
    """Smallest K' whose leading trees capture mass_fraction of the total
    stage weight; the trailing trees' influence on the vote is bounded by
    the remaining mass."""
    if not 0.0 < mass_fraction <= 1.0:
        raise ValueError(f"mass_fraction must be in (0,1], got {mass_fraction}")
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
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    if e.k == 0:
        raise ValueError("empty ensemble")
    w = weight_trajectory(e, i)  # length K+1, validates i
    rel = np.abs(np.diff(w)) / w[:-1]  # rel[k-1] is the change at round k
    k = e.k
    params = {"window": window, "rel_tol": rel_tol, "instance": i, "stabilized": False}
    for k_prime in range(max(1, window), k + 1):
        if np.all(rel[k_prime - window:k_prime] <= rel_tol):
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


def agreement_rate(e: Ensemble, k_prime: int, ds: Dataset) -> float:
    """Fraction of dataset instances whose truncated-vote prediction matches
    the full-ensemble prediction."""
    if not 1 <= k_prime <= e.k:
        raise ValueError(f"k_prime must be in [1, {e.k}], got {k_prime}")
    if ds.n_rows == 0:
        raise ValueError("empty dataset")
    full = ensemble_margins(e, ds.rows)
    part = ensemble_margins(e, ds.rows, upto=k_prime)
    pred_full = np.where(full > 0, 1, -1)
    pred_part = np.where(part > 0, 1, -1)
    return float(np.mean(pred_full == pred_part))


def margin_certificate(e: Ensemble, x, k_prime: int) -> bool:
    """True when the truncated margin provably cannot be overturned by the
    remaining trees: |margin at K'| > sum of trailing stage weights. When it
    fires, truncated and full predictions agree, unconditionally."""
    values = np.asarray(x, dtype=np.float64)
    e.check_arity(values)
    if not 1 <= k_prime <= e.k:
        raise ValueError(f"k_prime must be in [1, {e.k}], got {k_prime}")
    tail = float(e.alphas[k_prime:].sum())
    m = float(ensemble_margins(e, values[None, :], upto=k_prime)[0])
    return abs(m) > tail


def alpha_report_rows(e: Ensemble) -> list[tuple[int, float, float]]:
    """(k, alpha_k, cumulative_mass) rows, k 1-based; the stage-weight
    distribution data."""
    total = float(e.alphas.sum())
    cum = np.cumsum(e.alphas)
    return [
        (k + 1, float(e.alphas[k]), float(cum[k]) / total if total > 0 else 1.0)
        for k in range(e.k)
    ]


def trajectory_report_rows(e: Ensemble, i: int) -> list[tuple[int, float]]:
    """(k, w_k) rows for one training instance, k = 0..K; the sample-weight
    evolution data."""
    w = weight_trajectory(e, i)
    return [(k, float(w[k])) for k in range(len(w))]
