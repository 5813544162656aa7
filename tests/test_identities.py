import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdckit import qexact as qx
from pdckit.dists import PauliDist, convolve, depolarizing
from pdckit.identities import (check_identities, omega_state,
                               random_pauli_dist)

from oracle_reference import reference_check_identities


def test_omega_state_marginals():
    # the B-side channel leaves the AE marginal untouched and convolves AB
    p = 2
    P = depolarizing(0.1, p)
    Pt = depolarizing(0.2, p)
    omega = omega_state(P, Pt)
    om_ae = qx.partial_trace(omega, [0, 2])
    tau_ae = qx.partial_trace(qx.purify(P).density(), [0, 2])
    assert np.max(np.abs(om_ae.matrix - tau_ae.matrix)) < 1e-12
    om_ab = qx.partial_trace(omega, [0, 1])
    assert np.max(np.abs(om_ab.matrix
                         - qx.bell_diagonal(convolve(Pt, P)).matrix)) < 1e-12


def test_identity_suite_small_grid():
    rng = np.random.default_rng(0)
    for p in (2, 3):
        P = random_pauli_dist(p, rng)
        Pt = random_pauli_dist(p, rng)
        res = check_identities(P, Pt, ts=np.array([0.1, 0.5, 0.9]))
        assert res.within(1e-8), res


def test_identity_suite_clustered_solver_iterate():
    # a p = 3 pair (drawn by random_pauli_dist) on which one solver iterate
    # has eigenvalues clustered so tightly that numpy's eigh (zheevd) fails
    # to converge with OpenBLAS 0.3.31; the suite must still complete
    P = PauliDist(np.array([
        0.04814191202844321, 0.1482559001857877, 0.26772679968158586,
        0.03033910575148311, 0.018331453493898153, 0.19391729492036566,
        0.004923076213155137, 0.2644485086420934, 0.02391594908318768]).reshape(3, 3), 3)
    Pt = PauliDist(np.array([
        0.058102981617161875, 0.12221584503616073, 0.20964361963601089,
        0.0072678801123554695, 0.019001415788496047, 0.08451540762277457,
        0.0042771133198681, 0.47792517698133474, 0.017050559885837726]).reshape(3, 3), 3)
    res = check_identities(P, Pt)
    assert res.within(1e-8), res


def test_identity_suite_depolarizing():
    res = check_identities(depolarizing(0.05, 2), depolarizing(0.05, 2),
                           ts=np.array([0.3, 0.7]))
    assert res.within(1e-8), res


def test_sandwich_solver_cold_start_agrees_with_seeded():
    # guards the seeded acceptance runs against a silently non-descending solver
    rng = np.random.default_rng(1)
    for p in (2, 3):
        P = random_pauli_dist(p, rng)
        tau_ae = qx.partial_trace(qx.purify(P).density(), [0, 2])
        states = np.stack([
            np.kron(qx.weyl(x, z, p), np.eye(p * p)) @ tau_ae.matrix
            @ np.kron(qx.weyl(x, z, p), np.eye(p * p)).conj().T
            for x in range(p) for z in range(p)])
        weights = np.full(p * p, 1.0 / (p * p))
        for t in (0.1, 0.5):
            f_cold, _ = qx._minimize_xi(states, weights, 1 + t)
            f_up, sig = qx._minimize_xi([tau_ae.matrix], [1.0], 1 + t,
                                        trace_first=p)
            f_seeded, _ = qx._minimize_xi(states, weights, 1 + t,
                                          sigma0=np.kron(np.eye(p) / p, sig))
            assert abs(np.log2(f_cold) - np.log2(f_seeded)) < 1e-9


def test_random_pauli_dist_strictly_positive():
    rng = np.random.default_rng(2)
    for p in (2, 3, 5):
        d = random_pauli_dist(p, rng)
        assert d.flat().min() > 1e-4


@pytest.mark.parametrize("ts", [[], [-0.3], [0.0], [1.0], [0.2, 1.5], [float("nan")],
                                [0.5, float("inf")], [[0.1, 0.2]]])
def test_identity_suite_rejects_bad_t_grids(ts):
    # an empty grid used to pass with slack inf, and t = -0.3 ended in
    # LAPACK's "array must not contain infs or NaNs"
    P = depolarizing(0.05, 2)
    with pytest.raises(ValueError, match=r"^t grid must be a non-empty list of t in \(0, 1\)") \
            as err:
        check_identities(P, P, ts=ts)
    assert "\n" not in str(err.value)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.01, 0.99), max_size=3))
def test_identity_suite_matches_the_per_order_reference_bit_for_bit(p, seed, extra):
    # the Petz quantities take the whole grid at once and the reference
    # values are value-only evaluations; neither may move a bit.  Every
    # grid holds t = 0.5, where numpy's ** takes a square root
    rng = np.random.default_rng(seed)
    P = random_pauli_dist(p, rng)
    Pt = random_pauli_dist(p, rng)
    ts = np.array([0.5, *extra])
    assert check_identities(P, Pt, ts=ts) == reference_check_identities(P, Pt, ts=ts)


def test_identity_suite_default_grid_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for p in (2, 3):
        P = random_pauli_dist(p, rng)
        Pt = random_pauli_dist(p, rng)
        assert check_identities(P, Pt) == reference_check_identities(P, Pt)
