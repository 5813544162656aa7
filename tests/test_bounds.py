import math

import numpy as np
import pytest

from pdckit.bounds import (InfeasibleTargets, SecurityTargets, asymptotic_rates,
                           eps_B_bound, eps_C_bound, eps_E_bound,
                           finite_length_report, m_hat_lengths)
from pdckit.dists import (PauliDist, convolve, depolarizing, renyi_entropy,
                          shannon, sibson_mutual_info)


def random_dist(p, rng):
    return PauliDist(rng.dirichlet(np.ones(p * p)), p)


# ---------------------------------------------------------------
# asymptotic rates
# ---------------------------------------------------------------

def test_rates_noiseless():
    delta = PauliDist.point_mass(0, 0, 2)
    rt = asymptotic_rates(delta, delta)
    assert (rt.R1_star, rt.R2_star, rt.R_star) == (2.0, 0.0, 2.0)


def test_rates_uniform_noise():
    u = PauliDist.uniform(2)
    rt = asymptotic_rates(u, u)
    assert abs(rt.R2_star - 2.0) < 1e-12
    assert rt.R_star <= 0.0


def test_rates_dep05():
    P = depolarizing(0.05, 2)
    rt = asymptotic_rates(P, P)
    # frozen from the defining entropies, cross-checked by direct evaluation
    h_p = -(0.9625 * math.log2(0.9625) + 3 * 0.0125 * math.log2(0.0125))
    q0 = 0.9625**2 + 3 * 0.0125**2
    q1 = (1 - q0) / 3
    h_q = -(q0 * math.log2(q0) + 3 * q1 * math.log2(q1))
    assert abs(rt.R_star - (2 - h_p - h_q)) < 1e-12
    assert abs(rt.R_star - 1.2164747821861925) < 1e-10


def test_rates_identity_consistency():
    rt = asymptotic_rates(depolarizing(0.1, 3), depolarizing(0.2, 3))
    assert abs(rt.R_star - (rt.R1_star - rt.R2_star)) < 1e-12
    with pytest.raises(ValueError):
        asymptotic_rates(depolarizing(0.1, 2), depolarizing(0.1, 3))


# ---------------------------------------------------------------
# finite-length bounds
# ---------------------------------------------------------------

def test_eps_b():
    assert eps_B_bound(0, 2) == 1.0
    assert eps_B_bound(30, 2) == 2.0**-30
    assert abs(eps_B_bound(2, 3) - 1 / 9) < 1e-15


def test_bounds_refuse_block_lengths_below_one():
    # eps_E_bound(0, 1, P) returned 0.707 and n = -1 returned 0.49
    P = depolarizing(0.1, 2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="block length n must be >= 1"):
            eps_E_bound(n, 1, P)
        with pytest.raises(ValueError, match="block length n must be >= 1"):
            eps_C_bound(n, 0, P)


def test_eps_e_monotone_in_sacrifice():
    P = depolarizing(0.05, 2)
    vals = [eps_E_bound(100, m, P) for m in range(0, 201, 20)]
    assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))


def test_eps_e_point_mass():
    delta = PauliDist.point_mass(0, 0, 2)
    # with one sacrificed symbol the best exponent is (1-t)/(1+t) - t/(1+t),
    # minimized at t = 1 giving 2^{-1/2}
    v = eps_E_bound(10, 1, delta)
    assert abs(v - 2.0**-0.5) < 1e-9
    assert eps_E_bound(10, 0, delta) == 1.0


def test_eps_e_uniform_noise_vacuous():
    u = PauliDist.uniform(2)
    # sacrifice below n H = 2n symbols leaves the bound capped at 1
    assert eps_E_bound(50, 60, u) == 1.0


def test_eps_c_noiseless_boundary():
    delta = PauliDist.point_mass(0, 0, 2)
    assert eps_C_bound(10, 20, delta) == 1.0  # exponent 0, 4 capped to 1
    assert eps_C_bound(10, 10, delta) < 1e-2  # below capacity: decays


def test_eps_c_above_capacity_no_decay():
    P = convolve(depolarizing(0.3, 2), depolarizing(0.3, 2))
    cap = 2 - shannon(P.flat())
    n = 200
    n1 = int(n * (cap + 0.3))
    assert eps_C_bound(n, n1, P) == 1.0
    # an exponent near 1e7: 2^1e7 overflowed exp2 with a RuntimeWarning, an
    # error under this suite's warning filter
    assert eps_C_bound(10**7, 2 * 10**7, depolarizing(0.05, 2)) == 1.0


def test_eps_c_dep05_example():
    q = convolve(depolarizing(0.05, 2), depolarizing(0.05, 2))
    v = eps_C_bound(10**4, 13000, q)  # R1 = 1.3 bits/use
    assert v < 0.2
    with pytest.raises(ValueError):
        eps_C_bound(10, 21, q)


# ---------------------------------------------------------------
# inversions
# ---------------------------------------------------------------

def test_m3_exact():
    targets = SecurityTargets(0.2, 1e-9, 2.0**-30)
    m1, m2, m3 = m_hat_lengths(targets, 1000, depolarizing(0.05, 2),
                               depolarizing(0.05, 2))
    assert m3 == 30


def test_m2_constant_for_point_mass():
    # with no entropy cost the sacrifice is the prefactor term alone:
    # at t = 1 the requirement is m/2 >= log2(1/eps_E), i.e. m = 40 here,
    # independent of the block length
    targets = SecurityTargets(0.2, 1e-6, 1e-6)
    delta = PauliDist.point_mass(0, 0, 2)
    _, m2_small, _ = m_hat_lengths(targets, 100, delta, delta)
    _, m2_large, _ = m_hat_lengths(targets, 10**6, delta, delta)
    assert m2_small == m2_large == 40


def test_inversions_are_exact_inverses():
    P = depolarizing(0.05, 2)
    targets = SecurityTargets(0.2, 1e-9, 1e-9)
    n = 10**4
    m1, m2, m3 = m_hat_lengths(targets, n, P, P)
    q = convolve(P, P)
    assert eps_E_bound(n, m2, P) <= targets.eps_E
    assert eps_E_bound(n, m2 - 1, P) > targets.eps_E
    assert eps_C_bound(n, m1, q) <= targets.eps_C
    assert eps_C_bound(n, m1 + 1, q) > targets.eps_C
    assert eps_B_bound(m3, 2) <= targets.eps_B
    assert eps_B_bound(m3 - 1, 2) > targets.eps_B


def test_report_rate_identity():
    rep = finite_length_report(SecurityTargets(0.2, 1e-9, 1e-9), 10**4,
                               depolarizing(0.05, 2), depolarizing(0.05, 2))
    assert abs(rep.R - (rep.R1 - rep.R2 - rep.R3)) < 1e-12
    assert rep.eps_C_achieved <= 0.2
    assert rep.eps_E_achieved <= 1e-9
    assert rep.eps_B_achieved <= 1e-9


def test_infeasible_raises():
    u = PauliDist.uniform(2)
    with pytest.raises(InfeasibleTargets):
        m_hat_lengths(SecurityTargets(0.2, 1e-9, 1e-9), 100, u, u)


# ---------------------------------------------------------------
# bound structure properties
# ---------------------------------------------------------------

def test_critical_rates_approach_asymptotic():
    # as t -> 0 the eps_C critical rate tends to R1* and the eps_E critical
    # sacrifice rate to R2* = H(P)
    P = depolarizing(0.05, 2)
    q = convolve(P, P)
    for t in (1e-3, 1e-4):
        r1_crit = 2 - renyi_entropy(q.flat(), 1 - t)
        r2_crit = renyi_entropy(P.flat(), 1 / (1 + t))
        assert abs(r1_crit - asymptotic_rates(P, P).R1_star) < 0.05
        assert abs(r2_crit - shannon(P.flat())) < 0.05
    assert abs((2 - renyi_entropy(q.flat(), 1 - 1e-6))
               - asymptotic_rates(P, P).R1_star) < 1e-4


def test_uniform_input_maximizes_sibson():
    # symmetric additive channel: no sampled input beats the uniform one
    rng = np.random.default_rng(20)
    p = 2
    noise = depolarizing(0.2, p)
    W = np.zeros((p * p, p * p))
    for xin in range(p):
        for zin in range(p):
            col = xin * p + zin
            W[:, col] = np.roll(np.roll(noise.probs, xin, axis=0), zin,
                                axis=1).reshape(-1)
    for alpha in (1.3, 1.8):
        uniform_val = sibson_mutual_info(np.full(4, 0.25), W, alpha)
        for _ in range(300):
            q = rng.dirichlet(np.ones(4))
            assert sibson_mutual_info(q, W, alpha) <= uniform_val + 1e-9


def test_two_fold_additivity():
    # the doubled channel's maximized Renyi mutual information is twice the
    # single-copy value: the uniform input attains it exactly and no sampled
    # correlated input exceeds it
    rng = np.random.default_rng(21)
    p = 2
    noise = depolarizing(0.15, p)
    W1 = np.zeros((4, 4))
    for xin in range(p):
        for zin in range(p):
            W1[:, xin * p + zin] = np.roll(np.roll(noise.probs, xin, axis=0),
                                           zin, axis=1).reshape(-1)
    W2 = np.kron(W1, W1)
    for alpha in (1.4, 2.0):
        single = sibson_mutual_info(np.full(4, 0.25), W1, alpha)
        double = sibson_mutual_info(np.full(16, 1 / 16), W2, alpha)
        assert abs(double - 2 * single) < 1e-6
        for _ in range(200):
            q = rng.dirichlet(np.ones(16))
            assert sibson_mutual_info(q, W2, alpha) <= 2 * single + 1e-6
