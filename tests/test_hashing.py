from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pdckit.gf import Toeplitz, toeplitz_apply_batch
from pdckit.hashing import SeedS, SeedSPrime, f_s, f_s_split, g_sprime, psi_s


def all_vecs(p, length):
    return [list(v) for v in product(range(p), repeat=length)]


def make_seed(sv, p, n1, n2, n3):
    return SeedS(sv, n1, n2, n3, p)


def same(a, b) -> bool:
    return np.array_equal(a, b)


# ---------------------------------------------------------------
# f_S
# ---------------------------------------------------------------

def test_f_zero_seed_and_zero_l2():
    p, n1, n2, n3 = 3, 5, 1, 2
    seed = make_seed([0] * (n1 - 1), p, n1, n2, n3)
    L = [1, 2, 0, 1, 2]
    assert f_s(seed, L).tolist() == [1, 2, 0]
    seed2 = make_seed([1, 2, 0, 1], p, n1, n2, n3)
    L2zero = [1, 2, 0, 0, 0]
    assert f_s(seed2, L2zero).tolist() == [1, 2, 0]


def test_f_collision_exhaustive_p2_n1_3():
    # brute force over all 4 seeds and all input pairs
    p, n1, n2, n3 = 2, 3, 1, 1
    k = n2 + n3
    seeds = [make_seed(sv, p, n1, n2, n3) for sv in all_vecs(p, n1 - 1)]
    vecs = all_vecs(p, n1)
    for lv in vecs:
        for lpv in vecs:
            if lv == lpv:
                continue
            hits = sum(same(f_s(s, lv), f_s(s, lpv)) for s in seeds)
            prob = Fraction(hits, len(seeds))
            expect = Fraction(0) if lv[k:] == lpv[k:] else Fraction(1, p**k)
            assert prob == expect
            assert prob <= Fraction(1, p**k)


def test_collision_closed_form_matches_enumeration_p3():
    # Pr_S[f_S(l) = f_S(l')] is 0 when the L2 parts agree, else exactly p^-k
    p, n1, n2, n3 = 3, 3, 1, 1
    k = n2 + n3
    seeds = [make_seed(sv, p, n1, n2, n3) for sv in all_vecs(p, n1 - 1)]
    rng = np.random.default_rng(0)
    for _ in range(60):
        lv, lpv = rng.integers(0, p, n1).tolist(), rng.integers(0, p, n1).tolist()
        if lv == lpv:
            continue
        hits = sum(same(f_s(s, lv), f_s(s, lpv)) for s in seeds)
        expect = Fraction(0) if lv[k:] == lpv[k:] else Fraction(1, p**k)
        assert Fraction(hits, len(seeds)) == expect


def test_balanced_condition_exhaustive():
    # every seed and hash value gets exactly p^{n1-k} preimages, n1 <= 4
    p = 2
    for (n1, n2, n3) in [(3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 1, 2)]:
        k = n2 + n3
        for sv in all_vecs(p, n1 - 1):
            seed = make_seed(sv, p, n1, n2, n3)
            counts = {}
            for lv in all_vecs(p, n1):
                key = tuple(f_s(seed, lv).tolist())
                counts[key] = counts.get(key, 0) + 1
            assert len(counts) == p**k
            assert all(c == p ** (n1 - k) for c in counts.values())


def test_f_linearity():
    rng = np.random.default_rng(1)
    p, n1, n2, n3 = 5, 6, 2, 1
    seed = make_seed(rng.integers(0, p, n1 - 1), p, n1, n2, n3)
    for _ in range(50):
        a, b = rng.integers(0, p, n1), rng.integers(0, p, n1)
        c = int(rng.integers(0, p))
        lhs = f_s(seed, (a + c * b) % p)
        rhs = (f_s(seed, a) + c * f_s(seed, b)) % p
        assert same(lhs, rhs)


# ---------------------------------------------------------------
# g_S'
# ---------------------------------------------------------------

def test_g_trivial_cases():
    p, n2, n3 = 3, 2, 2
    sp = SeedSPrime([1, 2, 0], n2, n3, p)
    y = [1, 2]
    assert same(g_sprime(sp, [0, 0], y), y)
    sp_zero = SeedSPrime([0, 0, 0], n2, n3, p)
    assert same(g_sprime(sp_zero, [2, 1], y), y)


def test_g_collision_p2_n2_n3_1():
    # enumerate both seeds: collision frequency is exactly 1/2 for m != m'
    p = 2
    seeds = [SeedSPrime([v], 1, 1, p) for v in range(p)]
    for m in range(p):
        for mh in range(p):
            if m == mh:
                continue
            for y in range(p):
                for yh in range(p):
                    hits = sum(
                        same(g_sprime(s, [m], [y]), g_sprime(s, [mh], [yh]))
                        for s in seeds)
                    assert Fraction(hits, len(seeds)) == Fraction(1, 2)


def test_c3_bijectivity_exhaustive():
    p, n2, n3 = 2, 2, 2
    for sv in all_vecs(p, n2 + n3 - 1):
        sp = SeedSPrime(sv, n2, n3, p)
        for mv in all_vecs(p, n2):
            images = {tuple(g_sprime(sp, mv, yv).tolist())
                      for yv in all_vecs(p, n3)}
            assert len(images) == p**n3


def test_y_of_round_trip():
    # Y = C - g_S'(M, 0) inverts C = g_S'(M, Y) for every seed, M and Y
    p, n2, n3 = 2, 2, 1
    for sv in all_vecs(p, n2 + n3 - 1):
        sp = SeedSPrime(sv, n2, n3, p)
        for m in all_vecs(p, n2):
            for y in all_vecs(p, n3):
                c = g_sprime(sp, m, y)
                y_back = (c - g_sprime(sp, m, [0] * n3)) % p
                assert same(y_back, y)
                assert same(g_sprime(sp, m, y_back), c)


# ---------------------------------------------------------------
# psi_S
# ---------------------------------------------------------------

def test_psi_zero_seed_concatenates():
    p, n1, n2, n3 = 2, 4, 1, 1
    seed = make_seed([0, 0, 0], p, n1, n2, n3)
    out = psi_s(seed, [1], [0], [1, 1])
    assert out.tolist() == [0, 1, 1, 1]  # (Y || M) then L2


def test_f_of_psi_identity_exhaustive():
    p, n1, n2, n3 = 2, 4, 1, 1
    for sv in all_vecs(p, n1 - 1):
        seed = make_seed(sv, p, n1, n2, n3)
        for mv in all_vecs(p, n2):
            for yv in all_vecs(p, n3):
                for l2v in all_vecs(p, n1 - n2 - n3):
                    y2, m2 = f_s_split(seed, psi_s(seed, mv, yv, l2v))
                    assert same(m2, mv) and same(y2, yv)


def test_f_of_psi_identity_random_p3():
    rng = np.random.default_rng(2)
    p, n1, n2, n3 = 3, 7, 2, 2
    for _ in range(1000):
        seed = make_seed(rng.integers(0, p, n1 - 1), p, n1, n2, n3)
        m = rng.integers(0, p, n2)
        y = rng.integers(0, p, n3)
        l2 = rng.integers(0, p, n1 - n2 - n3)
        y2, m2 = f_s_split(seed, psi_s(seed, m, y, l2))
        assert same(m2, m) and same(y2, y)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SeedS([0, 0], 3, 1, 2, 2)  # n1 = n2 + n3
    with pytest.raises(ValueError):
        SeedS([0], 3, 1, 1, 2)  # wrong seed length
    with pytest.raises(ValueError):
        SeedSPrime([0], 0, 2, 2)
    with pytest.raises(ValueError):
        SeedSPrime([0, 0], 2, 2, 2)  # wrong seed length
    with pytest.raises(ValueError):
        SeedS([0, 0, 0], 4, 1, 1, 4)  # modulus not prime
    seed = SeedS([0, 0, 0], 4, 1, 1, 2)
    with pytest.raises(ValueError):
        f_s(seed, [0, 0, 0])
    with pytest.raises(ValueError):
        psi_s(seed, [0], [0], [0])  # L2 needs n1 - n2 - n3 = 2 symbols
    with pytest.raises(ValueError):
        g_sprime(SeedSPrime([0, 0], 2, 1, 2), [0], [0])  # M needs n2 = 2


def test_seed_vec_is_read_only():
    # a seed owns its spectrum, so its residues cannot change under it
    raw = np.array([3, 0, 1])
    seed = SeedS(raw, 4, 1, 1, 2)
    with pytest.raises(ValueError):
        seed.vec[0] = 0
    with pytest.raises(ValueError):
        SeedSPrime(raw, 2, 2, 2).vec[1] = 1
    # the caller's array is reduced into a copy, and stays writable
    raw[0] = 5
    assert seed.vec.tolist() == [1, 0, 1]


@pytest.mark.parametrize("build", [
    lambda: SeedS(np.array([0.9, 1.5, 1.2]), 4, 1, 1, 2),
    lambda: SeedS(np.array([True, False, True]), 4, 1, 1, 2),
    lambda: SeedSPrime(["1", "0"], 2, 1, 2),
    lambda: SeedSPrime([1.0, 0.0], 2, 1, 2),
    lambda: toeplitz_apply_batch([1.9, 0, 0], [1, 1], 2, 2, 3),
])
def test_seeds_refuse_non_integer_input(build):
    # these were truncated to [0, 1, 1], parsed or counted as residues
    with pytest.raises(ValueError, match="integers"):
        build()


def test_seed_attributes_cannot_be_assigned():
    # a seed owns its spectrum, so nothing it was built from can change under it
    rng = np.random.default_rng(3)
    seed_s = SeedS(rng.integers(0, 2, (4, 127)), 128, 48, 16, 2)
    seed_sp = SeedSPrime(rng.integers(0, 2, (4, 3)), 2, 2, 2)
    assert seed_s.spectrum is not None and seed_sp.spectrum is None
    for seed in (seed_s, seed_sp, seed_s.rows(np.array([2, 0])), Toeplitz([1, 0, 1], 2, 2, 3)):
        for name in ("vec", "d1", "d2", "p", "spectrum", "_spectrum", "n1", "n2", "n3"):
            with pytest.raises(AttributeError):
                setattr(seed, name, None)
        with pytest.raises(AttributeError):
            seed.other = 1
        with pytest.raises(AttributeError):
            del seed.vec
    assert seed_s.n1 == 128 and seed_s.d1 == 64 and seed_s.vec.shape == (4, 127)


@pytest.mark.parametrize("n2,shift", [(64, 3 * 10**15), (4, 3 * 2**60)])
def test_hashes_refuse_inputs_outside_residues(n2, shift):
    # n2 = n3 = 64 takes the FFT product and 4 the einsum; neither returns
    # the hash of an input outside [0, p), so both refuse it
    p, n3 = 3, n2
    rng = np.random.default_rng(n2)
    seed = SeedSPrime(rng.integers(0, p, n2 + n3 - 1), n2, n3, p)
    M, Y = rng.integers(0, p, n2), rng.integers(0, p, n3)
    g_sprime(seed, M, Y)
    with pytest.raises(ValueError, match="residues"):
        g_sprime(seed, M + shift, Y)
    n1 = n2 + n3 + 2
    seed_s = SeedS(rng.integers(0, p, n1 - 1), n1, n2, n3, p)
    L = rng.integers(0, p, n1)
    L[-1] -= p
    with pytest.raises(ValueError, match="residues"):
        f_s(seed_s, L)
    with pytest.raises(ValueError, match="residues"):
        psi_s(seed_s, M, Y, L[n2 + n3:])
