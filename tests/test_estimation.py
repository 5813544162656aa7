import numpy as np
import pytest

from pdckit import qexact as qx
from pdckit.dists import PauliDist, depolarizing, marginal
from pdckit.estimation import (MeasurementSetting, char_table_from_marginals,
                               estimate, reconstruct,
                               setting_distribution_exact, settings,
                               simplex_project, simulate_setting,
                               twirled_statistics_check)

from oracle_reference import char_value, reference_setting_distribution


def random_dist(p, rng):
    return PauliDist(rng.dirichlet(np.ones(p * p)), p)


def exact_marginals(P):
    return {s: marginal(P, s.l, s.k) for s in settings(P.p)}


# ---------------------------------------------------------------
# settings
# ---------------------------------------------------------------

def test_settings_count_and_canonical_list():
    assert [(s.l, s.k) for s in settings(2)] == [(1, 0), (1, 1), (0, 1)]
    assert len(settings(3)) == 4
    assert len(settings(5)) == 6


def test_settings_pairwise_inequivalent():
    for p in (2, 3, 5):
        reps = [(s.l, s.k) for s in settings(p)]
        for i, (l1, k1) in enumerate(reps):
            assert (l1, k1) != (0, 0)
            for l2, k2 in reps[i + 1:]:
                for a in range(1, p):
                    assert ((a * l1) % p, (a * k1) % p) != (l2, k2)
    with pytest.raises(ValueError):
        MeasurementSetting(0, 0, 3)


# ---------------------------------------------------------------
# sampling
# ---------------------------------------------------------------

def test_simulate_point_mass():
    rng = np.random.default_rng(0)
    delta = PauliDist.point_mass(0, 0, 3)
    for s in settings(3):
        emp = simulate_setting(delta, s, 100, rng)
        assert emp.probs[0] == 1.0


def test_simulate_dep05_frequency():
    rng = np.random.default_rng(1)
    P = depolarizing(0.05, 2)
    shots = 10**5
    emp = simulate_setting(P, MeasurementSetting(1, 0, 2), shots, rng)
    sigma = np.sqrt(0.025 * 0.975 / shots)
    assert abs(emp.probs[1] - 0.025) < 3 * sigma


def test_simulate_uniform_converges():
    rng = np.random.default_rng(2)
    u = PauliDist.uniform(3)
    emp = simulate_setting(u, MeasurementSetting(1, 1, 3), 10**5, rng)
    assert np.max(np.abs(emp.probs - 1 / 3)) < 0.01


# ---------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------

def test_reconstruct_point_mass_from_unit_chars():
    table = {(a, b): 1.0 + 0.0j for a in range(3) for b in range(3)}
    raw = reconstruct(table, 3)
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert np.allclose(raw, expect, atol=1e-14)


def test_reconstruct_uniform():
    table = {(a, b): (1.0 + 0.0j if (a, b) == (0, 0) else 0.0j)
             for a in range(2) for b in range(2)}
    raw = reconstruct(table, 2)
    assert np.allclose(raw, 0.25, atol=1e-14)


def test_round_trip_exact_100_dists():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        for _ in range(100):
            P = random_dist(p, rng)
            raw = reconstruct(char_table_from_marginals(exact_marginals(P), p), p)
            assert np.max(np.abs(raw - P.probs)) < 1e-12


def test_table_consistent_with_char_value():
    rng = np.random.default_rng(4)
    for p in (2, 3):
        P = random_dist(p, rng)
        table = char_table_from_marginals(exact_marginals(P), p)
        for a in range(p):
            for b in range(p):
                # E[omega^{aX+bZ}] = char_value with (l, k) = (a, -b)
                assert abs(table[(a, b)] - char_value(P, a, (-b) % p)) < 1e-12


def test_missing_class_raises():
    table = {(0, 0): 1.0 + 0.0j}
    with pytest.raises(KeyError):
        reconstruct(table, 2)


def test_removing_a_setting_loses_identifiability():
    # witness pair: same X and Z marginals, different X+Z marginal
    p = 2
    P1 = PauliDist([0.5, 0.0, 0.0, 0.5], p)
    P2 = PauliDist.uniform(p)
    kept = [s for s in settings(p) if (s.l, s.k) != (1, 1)]
    t1 = char_table_from_marginals({s: marginal(P1, s.l, s.k) for s in kept}, p)
    t2 = char_table_from_marginals({s: marginal(P2, s.l, s.k) for s in kept}, p)
    # without the (1,1) class the two tables are identical ...
    assert set(t1) == set(t2)
    assert all(abs(t1[key] - t2[key]) < 1e-12 for key in t1)
    # ... yet the distributions differ: the dropped setting was load-bearing
    assert np.max(np.abs(P1.probs - P2.probs)) > 0.2
    with pytest.raises(KeyError):
        reconstruct(t1, p)


# ---------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------

def test_estimate_exact_mode():
    rng = np.random.default_rng(5)
    P = depolarizing(0.05, 2)
    rep = estimate(P, 0, rng)
    assert rep.tv_to_truth < 1e-12
    assert not rep.projection_applied


def test_estimate_median_tv_at_1e4_shots():
    rng = np.random.default_rng(6)
    P = depolarizing(0.05, 2)
    tvs = [estimate(P, 10**4, rng).tv_to_truth for _ in range(100)]
    assert np.median(tvs) < 0.02


def test_estimate_negative_mass_is_projected():
    # sparse truth at low shots produces negative raw mass eventually
    rng = np.random.default_rng(7)
    P = PauliDist([0.97, 0.01, 0.01, 0.01], 2)
    fired = False
    for _ in range(50):
        rep = estimate(P, 40, rng)
        assert abs(rep.estimate.flat().sum() - 1.0) < 1e-12
        assert np.all(rep.estimate.flat() >= 0)
        fired = fired or rep.projection_applied
        if rep.projection_applied:
            assert rep.negative_mass > 0
    assert fired


def test_simplex_project():
    arr, applied = simplex_project(np.array([0.5, -0.1, 0.6]))
    assert applied
    assert abs(arr.sum() - 1.0) < 1e-15
    assert np.all(arr >= 0)


def test_report_serialization():
    rng = np.random.default_rng(8)
    rep = estimate(depolarizing(0.1, 3), 100, rng)
    blob = rep.to_json_dict()
    assert len(blob["settings"]) == 4
    assert len(blob["estimate"]) == 9


# ---------------------------------------------------------------
# exact setting statistics and twirling
# ---------------------------------------------------------------

def test_setting_distribution_matches_marginal_on_bell_diagonal():
    rng = np.random.default_rng(9)
    for p in (2, 3):
        P = random_dist(p, rng)
        bd = qx.bell_diagonal(P)
        for s in settings(p):
            got = setting_distribution_exact(bd, s)
            want = marginal(P, s.l, s.k)
            assert np.max(np.abs(got.probs - want.probs)) < 1e-10


def test_twirled_statistics_random_states():
    rng = np.random.default_rng(10)
    for p in (2, 3):
        for _ in range(5):
            a = rng.normal(size=(p * p, p * p)) + 1j * rng.normal(size=(p * p, p * p))
            m = a @ a.conj().T
            rho = qx.DensityMatrix(m / np.trace(m).real, [p, p])
            for s in settings(p):
                direct, twirled = twirled_statistics_check(rho, s)
                assert np.max(np.abs(direct.probs - twirled.probs)) < 1e-10


def test_twirled_statistics_product_state_p3():
    rng = np.random.default_rng(11)
    p = 3
    a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    ra = a @ a.conj().T
    ra /= np.trace(ra).real
    b = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    rb = b @ b.conj().T
    rb /= np.trace(rb).real
    rho = qx.DensityMatrix(np.kron(ra, rb), [p, p])
    for s in settings(p):
        direct, twirled = twirled_statistics_check(rho, s)
        assert np.max(np.abs(direct.probs - twirled.probs)) < 1e-10


def test_setting_distribution_matches_the_cell_loop():
    rng = np.random.default_rng(33)
    for p in (2, 3, 5, 7):
        a = rng.normal(size=(p * p, p * p)) + 1j * rng.normal(size=(p * p, p * p))
        m = a @ a.conj().T
        rho = qx.DensityMatrix(m / np.trace(m).real, [p, p])
        for s in settings(p):
            got = setting_distribution_exact(rho, s).probs
            assert np.max(np.abs(got - reference_setting_distribution(rho, s.l, s.k))) < 1e-12
