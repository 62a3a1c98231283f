import numpy as np
import pytest

from tweakboost import (
    DataError,
    agreement_rate,
    combine_reports,
    make_dataset,
    make_demo_dataset,
    margin_certificate,
    predict_ensemble,
    select_kprime_alpha_mass,
    select_kprime_trajectory,
    train_adaboost,
)
from tweakboost.prune import trajectory_fits

from conftest import desk_ensemble, random_learnable_dataset, stump


def ensemble_with_alphas(alphas):
    return desk_ensemble([stump(0, 5.0, -1, 1)] * len(alphas), alphas)


def ensemble_with_trajectory(values):
    """K+1 weight values for instance 0; instance 1 absorbs the remainder."""
    v = np.asarray(values, dtype=np.float64)
    K = len(v) - 1
    traj = np.stack([v, 1.0 - v], axis=1)
    return desk_ensemble([stump(0, 5.0, -1, 1)] * K, np.ones(K),
                         n_train=2, trajectories=traj)


# -------------------------------------------------- alpha-mass rule

def test_alpha_mass_front_loaded():
    e = ensemble_with_alphas([3.0, 1.0, 1.0, 1.0])
    r = select_kprime_alpha_mass(e, 0.5)
    assert r.k_prime == 1
    assert r.strategy == "alpha-mass"
    assert r.mass_captured == pytest.approx(0.5)


def test_alpha_mass_uniform():
    e = ensemble_with_alphas([1.0] * 100)
    assert select_kprime_alpha_mass(e, 0.9).k_prime == 90


def test_alpha_mass_full_fraction_takes_everything():
    e = ensemble_with_alphas([0.5, 0.25, 0.25])
    r = select_kprime_alpha_mass(e, 1.0)
    assert r.k_prime == 3
    assert r.mass_captured == pytest.approx(1.0)


def test_alpha_mass_is_monotone_in_fraction():
    e = ensemble_with_alphas([2.0, 1.5, 1.0, 0.5, 0.25])
    ks = [select_kprime_alpha_mass(e, f).k_prime for f in (0.2, 0.5, 0.8, 0.95, 1.0)]
    assert ks == sorted(ks)
    assert ks[-1] == 5


def test_alpha_mass_validates_fraction():
    e = ensemble_with_alphas([1.0])
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            select_kprime_alpha_mass(e, bad)


# -------------------------------------------------- trajectory rule

def test_trajectory_stabilized_after_round_ten():
    # constant from the 10th round on; 5-round window at tol 0.01 first
    # fits rounds 10..14, so K' = 14
    v = [0.5, 0.45, 0.4, 0.36, 0.33, 0.3, 0.28, 0.26, 0.24,
         0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2]
    e = ensemble_with_trajectory(v)
    r = select_kprime_trajectory(e, 0, window=5, rel_tol=0.01)
    assert r.k_prime == 14
    assert r.strategy == "trajectory"
    assert r.params["stabilized"] is True


def test_trajectory_growing_never_stabilizes():
    v = np.linspace(0.05, 0.65, 21)
    e = ensemble_with_trajectory(v)
    r = select_kprime_trajectory(e, 0, window=5, rel_tol=0.01)
    assert r.k_prime == e.k
    assert r.params["stabilized"] is False
    assert r.params["note"] == "no stabilization"


def test_trajectory_window_larger_than_k():
    v = np.full(6, 0.5)
    e = ensemble_with_trajectory(v)
    r = select_kprime_trajectory(e, 0, window=25, rel_tol=0.01)
    assert r.k_prime == e.k == 5
    assert r.params["note"] == "window exceeds available rounds"


def loop_trajectory_kprime(e, i, window, rel_tol):
    """select_kprime_trajectory's K' as a loop over the candidate K'."""
    w = e.trajectories[:, i]
    rel = np.abs(np.diff(w)) / w[:-1]
    for k_prime in range(window, e.k + 1):
        if np.all(rel[k_prime - window:k_prime] <= rel_tol):
            return k_prime, True
    return e.k, False


@pytest.mark.parametrize("window,rel_tol", [(10, 0.02), (5, 0.5), (3, 0.3), (2, 0.0),
                                            (100, 0.5), (101, 0.5), (150, 0.5)])
def test_trajectory_window_search_matches_the_loop(demo_model, window, rel_tol):
    for i in range(demo_model.trajectories.shape[1]):
        r = select_kprime_trajectory(demo_model, i, window, rel_tol)
        assert (r.k_prime, r.params["stabilized"]) == loop_trajectory_kprime(
            demo_model, i, window, rel_tol), i


def test_trajectory_validates_args():
    e = ensemble_with_trajectory(np.full(6, 0.5))
    with pytest.raises(DataError):
        select_kprime_trajectory(e, 7)
    with pytest.raises(ValueError):
        select_kprime_trajectory(e, 0, window=0)
    with pytest.raises(ValueError):
        select_kprime_trajectory(e, 0, rel_tol=-0.5)
    with pytest.raises(ValueError):
        select_kprime_trajectory(e, 0, 3, float("nan"))
    with pytest.raises(ValueError):
        select_kprime_alpha_mass(e, float("nan"))


# -------------------------------------------------- combination

def test_trajectory_fits_training_rows_only(demo_model, demo_ds):
    other = make_demo_dataset(seed=99)
    for i in range(demo_ds.n_rows):
        x, y = demo_ds.rows[i], int(demo_ds.labels[i])
        assert trajectory_fits(demo_model, i, x, y)
        assert not trajectory_fits(demo_model, i, x, -y)
        assert not trajectory_fits(demo_model, i, other.rows[i], int(other.labels[i]))


def test_combine_takes_conservative_max():
    e = ensemble_with_alphas([3.0, 1.0, 1.0, 1.0])
    a = select_kprime_alpha_mass(e, 0.5)
    t = select_kprime_trajectory(ensemble_with_trajectory(np.full(5, 0.5)), 0,
                                 window=2, rel_tol=0.1)
    both = combine_reports(a, t)
    assert both.k_prime == max(a.k_prime, t.k_prime)
    assert both.strategy == "both"
    assert both.params["alpha-mass"] == a.params
    assert both.params["trajectory"] == t.params


# -------------------------------------------------- fidelity

def test_agreement_rate_identity_cases(tiny_ds):
    e = train_adaboost(tiny_ds, K=1, max_depth=2)
    assert agreement_rate(e, 1, tiny_ds) == 1.0
    rng = np.random.default_rng(12)
    ds = random_learnable_dataset(rng, 60, 3)
    e = train_adaboost(ds, K=8, max_depth=2)
    assert agreement_rate(e, e.k, ds) == 1.0


def test_agreement_rate_bounds(tiny_ds):
    e = train_adaboost(tiny_ds, K=1, max_depth=2)
    with pytest.raises(ValueError):
        agreement_rate(e, 0, tiny_ds)
    with pytest.raises(ValueError):
        agreement_rate(e, 5, tiny_ds)


def test_margin_certificate_soundness():
    """Wherever the certificate fires, truncated and full predictions must
    agree; checked across random models, instances and cut points."""
    rng = np.random.default_rng(44)
    fired = 0
    for _ in range(15):
        ds = random_learnable_dataset(rng, 50, 3)
        e = train_adaboost(ds, K=int(rng.integers(2, 12)), max_depth=2)
        if e.k < 2:
            continue
        for _ in range(20):
            x = rng.uniform(0, 10, size=3)
            kp = int(rng.integers(1, e.k))
            if margin_certificate(e, x, kp):
                fired += 1
                assert predict_ensemble(e, x, upto=kp)[0] == predict_ensemble(e, x)[0]
    assert fired > 0  # the check must not be vacuous


def test_margin_certificate_is_strict_at_equality():
    # |truncated margin| == remaining mass: certificate must not fire
    e = desk_ensemble([stump(0, 5.0, -1, 1), stump(0, 5.0, -1, 1)], [1.0, 1.0])
    assert margin_certificate(e, np.array([1.0, 1.0]), 1) is False
    e2 = desk_ensemble([stump(0, 5.0, -1, 1), stump(0, 5.0, -1, 1)], [1.0, 0.5])
    assert margin_certificate(e2, np.array([1.0, 1.0]), 1) is True

