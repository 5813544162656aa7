import json
import math

import numpy as np
import pytest

from pdckit.dists import (MarginalDist, PauliDist, convolve, depolarizing, marginal,
                          renyi_entropy, shannon, shift, sibson_mutual_info)
from pdckit.gf import SizeCapError

from oracle_reference import char_value


def brute_convolve(A, B, p):
    """Independent oracle: the defining double sum."""
    out = np.zeros((p, p))
    for x in range(p):
        for z in range(p):
            for xp in range(p):
                for zp in range(p):
                    out[x, z] += A[xp, zp] * B[(x - xp) % p, (z - zp) % p]
    return out


def random_dist(p, rng):
    return PauliDist(rng.dirichlet(np.ones(p * p)), p)


# ---------------------------------------------------------------
# construction / serialization
# ---------------------------------------------------------------

def test_validation():
    with pytest.raises(ValueError):
        PauliDist([0.5, 0.5, 0.5, 0.5], 2)
    with pytest.raises(ValueError):
        PauliDist([1.0, -0.1, 0.05, 0.05], 2)
    # tiny drift is normalized away
    d = PauliDist([0.25 + 2e-10, 0.25, 0.25, 0.25], 2)
    assert abs(d.flat().sum() - 1.0) < 1e-15


def test_nan_mass_is_refused():
    # abs(total - 1) > tol is False for NaN: an all-NaN law was accepted, and
    # asymptotic_rates on it returned the noiseless rates (2, -0, 2)
    with pytest.raises(ValueError, match="mass nan is not within"):
        PauliDist([np.nan, 0.5, 0.25, 0.25], 2)
    with pytest.raises(ValueError, match="mass nan is not within"):
        MarginalDist([np.nan, 1.0], 2)


def test_pauli_law_cell_cap(monkeypatch):
    # p = 1009 has 1,018,081 cells, above the 10^6 cap; a p near 10^6 ended
    # in a memory-error traceback from np.full((p, p))
    assert depolarizing(0.1, 997).probs.shape == (997, 997)

    def refuse(*args, **kwargs):
        raise AssertionError("a law was allocated above the cap")

    monkeypatch.setattr(np, "full", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    for build in (lambda: depolarizing(0.1, 1009), lambda: PauliDist.uniform(1009),
                  lambda: PauliDist.point_mass(0, 0, 1009), lambda: PauliDist([1.0], 1009)):
        with pytest.raises(SizeCapError, match="1018081 cells, above 1000000"):
            build()


def test_json_round_trip():
    rng = np.random.default_rng(3)
    d = random_dist(3, rng)
    blob = json.dumps(d.to_json())
    back = PauliDist.from_json(json.loads(blob), 3)
    assert np.allclose(back.probs, d.probs, atol=1e-15)


# ---------------------------------------------------------------
# depolarizing
# ---------------------------------------------------------------

def test_depolarizing():
    assert depolarizing(0.0, 3) == PauliDist.point_mass(0, 0, 3)
    assert depolarizing(1.0, 2) == PauliDist.uniform(2)
    d = depolarizing(0.05, 2)
    assert np.allclose(d.flat(), [0.9625, 0.0125, 0.0125, 0.0125])
    with pytest.raises(ValueError):
        depolarizing(1.2, 2)


# ---------------------------------------------------------------
# convolution and shifts
# ---------------------------------------------------------------

def test_convolve_identity_and_uniform():
    rng = np.random.default_rng(0)
    for p in (2, 3):
        P = random_dist(p, rng)
        assert convolve(PauliDist.point_mass(0, 0, p), P) == P
        assert convolve(PauliDist.uniform(p), P) == PauliDist.uniform(p)


def test_convolve_dep05_example():
    P = depolarizing(0.05, 2)
    got = convolve(P, P)
    # direct 4-term sums over F_2^2
    expect = brute_convolve(P.probs, P.probs, 2)
    assert np.allclose(got.probs, expect, atol=1e-15)
    assert abs(got[0, 0] - 0.926875) < 1e-12
    for xz in ((0, 1), (1, 0), (1, 1)):
        assert abs(got[xz] - 0.024375) < 1e-12


def test_convolve_assoc_comm():
    rng = np.random.default_rng(1)
    for p in (2, 3):
        A, B, C = (random_dist(p, rng) for _ in range(3))
        assert convolve(A, B) == convolve(B, A)
        lhs = convolve(convolve(A, B), C)
        rhs = convolve(A, convolve(B, C))
        assert np.allclose(lhs.probs, rhs.probs, atol=1e-12)
        assert np.allclose(convolve(A, B).probs, brute_convolve(A.probs, B.probs, p),
                           atol=1e-12)


def test_shift_group_law():
    rng = np.random.default_rng(2)
    P = random_dist(3, rng)
    assert shift(P, 0, 0) == P
    assert shift(PauliDist.point_mass(0, 0, 3), 1, 0) == PauliDist.point_mass(1, 0, 3)
    double = shift(shift(P, 1, 2), 2, 2)
    assert double == shift(P, 0, 1)
    assert abs(shannon(shift(P, 1, 1).flat()) - shannon(P.flat())) < 1e-12


def test_shift_commutes_with_convolve():
    rng = np.random.default_rng(4)
    P, Q = random_dist(3, rng), random_dist(3, rng)
    lhs = shift(convolve(P, Q), 2, 1)
    rhs = convolve(shift(P, 2, 1), Q)
    assert np.allclose(lhs.probs, rhs.probs, atol=1e-12)


# ---------------------------------------------------------------
# entropies
# ---------------------------------------------------------------

def test_entropy_uniform_and_point():
    for alpha in (0.3, 1.0, 1.7, 2.5):
        assert abs(renyi_entropy([0.25] * 4, alpha) - 2.0) < 1e-12
        assert abs(renyi_entropy([1.0, 0.0, 0.0], alpha)) < 1e-12


def test_shannon_dep05():
    d = depolarizing(0.05, 2)
    expect = -(0.9625 * math.log2(0.9625) + 3 * 0.0125 * math.log2(0.0125))
    assert abs(shannon(d.flat()) - expect) < 1e-12
    assert abs(expect - 0.2901460494685199) < 1e-12


def test_renyi_monotone_and_continuous():
    rng = np.random.default_rng(6)
    grid = np.arange(1, 31) / 10.0
    for _ in range(100):
        d = random_dist(2, rng)
        vals = [renyi_entropy(d.flat(), a) for a in grid]
        assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))
    d = random_dist(3, rng)
    assert abs(renyi_entropy(d.flat(), 1.0 + 1e-7) - shannon(d.flat())) < 1e-5
    with pytest.raises(ValueError):
        renyi_entropy(d.flat(), -0.1)
    with pytest.raises(ValueError):
        renyi_entropy(d.flat(), [0.5, -0.1])
    # order 0 is H_0, the log2 of the support size, as the bounds use it
    assert renyi_entropy([0.5, 0.5, 0.0, 0.0], 0.0) == 1.0
    # an array of orders gives each order's value, the Shannon point included
    orders = np.array([0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(renyi_entropy(d.flat(), orders),
                               [renyi_entropy(d.flat(), a) for a in orders], rtol=1e-14)


# ---------------------------------------------------------------
# marginals and characteristic values
# ---------------------------------------------------------------

def test_marginal_examples():
    assert marginal(PauliDist.point_mass(1, 0, 2), 1, 0).probs.tolist() == [0.0, 1.0]
    u = marginal(PauliDist.uniform(3), 1, 2)
    assert np.allclose(u.probs, 1 / 3)
    m = marginal(depolarizing(0.05, 2), 1, 0)
    assert np.allclose(m.probs, [0.975, 0.025])
    with pytest.raises(ValueError):
        marginal(PauliDist.uniform(2), 0, 0)


def test_marginal_shift_translation():
    rng = np.random.default_rng(7)
    p = 5
    P = random_dist(p, rng)
    for (l, k, x, z) in [(1, 0, 2, 3), (1, 4, 1, 1), (0, 1, 3, 2)]:
        shifted = marginal(shift(P, x, z), l, k).probs
        base = marginal(P, l, k).probs
        offset = (l * x - k * z) % p
        assert np.allclose(shifted, np.roll(base, offset), atol=1e-12)


def test_char_value_examples():
    assert abs(char_value(PauliDist.point_mass(0, 0, 3), 1, 2) - 1.0) < 1e-12
    assert abs(char_value(PauliDist.uniform(3), 1, 0)) < 1e-12
    assert abs(char_value(depolarizing(0.05, 2), 1, 0) - 0.95) < 1e-12
    rng = np.random.default_rng(8)
    d = random_dist(5, rng)
    assert abs(char_value(d, 2, 3)) <= 1.0 + 1e-12


# ---------------------------------------------------------------
# Sibson mutual information
# ---------------------------------------------------------------

def test_sibson_is_minimum():
    # the closed form should lower-bound the divergence at any comparison dist
    rng = np.random.default_rng(9)
    W = rng.dirichlet(np.ones(4), size=6).T
    px = rng.dirichlet(np.ones(6))
    for alpha in (1.3, 1.9):
        val = sibson_mutual_info(px, W, alpha)
        for _ in range(200):
            q = rng.dirichlet(np.ones(4))
            div = np.log2(np.sum(px[None, :] * W**alpha * q[:, None] ** (1 - alpha))) / (alpha - 1)
            assert val <= div + 1e-10


def test_sibson_drops_unreached_outputs():
    # an output no input reaches adds nothing, like a zero mass
    rng = np.random.default_rng(10)
    W = rng.dirichlet(np.ones(4), size=6).T
    px = rng.dirichlet(np.ones(6))
    padded = np.vstack([W, np.zeros(6)])
    for alpha in (0.5, 1.3, 1.9, 2.0):
        assert sibson_mutual_info(px, padded, alpha) == sibson_mutual_info(px, W, alpha)
