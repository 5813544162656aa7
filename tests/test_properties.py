"""Property-based checks of the batched Toeplitz kernel, the hash laws and
the batch-first code contract.

Primes up to 31, random lengths and random batch shapes (including the
batch of one that a protocol transcript uses).  The kernel is compared
against a pure-Python-int double loop, so the reference cannot share an
overflow or an indexing slip with the code under test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdckit.dists import depolarizing
from pdckit.gf import toeplitz_apply_batch
from pdckit.hashing import SeedS, SeedSPrime, f_s, f_s_split, g_sprime, psi_s, y_of
from pdckit.wiretap import _generator_code, identity_code, repetition_code

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
SETTINGS = settings(max_examples=60, deadline=None)


def reference_matvec(seed, x, d1, d2, p):
    """y_i = sum_j V_{i-j+d2} x_j (1-based) over Python ints."""
    return [sum(int(seed[i - j + d2 - 1]) * int(x[j - 1]) for j in range(1, d2 + 1)) % p
            for i in range(1, d1 + 1)]


@st.composite
def toeplitz_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    d1 = draw(st.integers(1, 8))
    d2 = draw(st.integers(0, 8))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = rng.integers(0, p, batch + (d1 + d2 - 1,))
    xs = rng.integers(0, p, batch + (d2,))
    return p, d1, d2, seeds, xs


@SETTINGS
@given(toeplitz_cases())
def test_kernel_matches_python_reference(case):
    p, d1, d2, seeds, xs = case
    got = toeplitz_apply_batch(seeds, xs, d1, d2, p)
    assert got.shape == seeds.shape[:-1] + (d1,)
    rows = int(np.prod(seeds.shape[:-1]))
    flat_s = seeds.reshape(rows, d1 + d2 - 1)
    flat_x = xs.reshape(rows, d2)
    for row, s, x in zip(got.reshape(rows, d1), flat_s, flat_x):
        assert row.tolist() == reference_matvec(s, x, d1, d2, p)
    # the batch of one is the same row as the unbatched call
    one = toeplitz_apply_batch(flat_s[:1], flat_x[:1], d1, d2, p)
    assert one.shape == (1, d1)
    assert one[0].tolist() == toeplitz_apply_batch(flat_s[0], flat_x[0], d1, d2, p).tolist()


@st.composite
def hash_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    n2 = draw(st.integers(1, 5))
    n3 = draw(st.integers(1, 5))
    n1 = n2 + n3 + draw(st.integers(1, 6))
    trials = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, n1, n2, n3, trials, rng


@SETTINGS
@given(hash_cases())
def test_f_of_psi_is_identity_rowwise(case):
    p, n1, n2, n3, trials, rng = case
    seed = SeedS(rng.integers(0, p, (trials, n1 - 1)), n1, n2, n3, p)
    m = rng.integers(0, p, (trials, n2))
    y = rng.integers(0, p, (trials, n3))
    l2 = rng.integers(0, p, (trials, n1 - n2 - n3))
    info = psi_s(seed, m, y, l2)
    assert info.shape == (trials, n1)
    assert np.array_equal(info[:, n2 + n3:], l2)
    assert np.array_equal(f_s(seed, info), np.concatenate([y, m], axis=1))
    y_hat, m_hat = f_s_split(seed, info)
    assert np.array_equal(y_hat, y) and np.array_equal(m_hat, m)


@SETTINGS
@given(hash_cases())
def test_g_sprime_and_y_of_round_trip(case):
    p, _n1, n2, n3, trials, rng = case
    seed = SeedSPrime(rng.integers(0, p, (trials, n2 + n3 - 1)), n2, n3, p)
    m = rng.integers(0, p, (trials, n2))
    y = rng.integers(0, p, (trials, n3))
    c = g_sprime(seed, m, y)
    assert np.array_equal(y_of(m, seed, c), y)
    assert np.array_equal(g_sprime(seed, m, y_of(m, seed, c)), c)
    # row r of the batch is the single-seed hash of row r
    for r in range(trials):
        single = SeedSPrime(seed.vec[r], n2, n3, p)
        assert np.array_equal(g_sprime(single, m[r], y[r]), c[r])


@st.composite
def code_cases(draw):
    """A baseline code, its generator matrix G (2n x n1) and a random batch."""
    p = draw(st.sampled_from(PRIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["identity", "repetition", "generator"]))
    noise = depolarizing(0.1, p)
    if kind == "identity":
        n = draw(st.integers(1, 4))
        code, G = identity_code(p, n), np.eye(2 * n, dtype=np.int64)
    elif kind == "repetition":
        n1 = draw(st.integers(1, 6))
        r = draw(st.integers(1, 4).filter(lambda r: r * n1 % 2 == 0))
        code = repetition_code(p, n1, r, noise)
        G = np.repeat(np.eye(n1, dtype=np.int64), r, axis=0)
    else:
        # systematic generator [I; A]: full rank, so the code is injective
        n1 = draw(st.integers(1, 2))
        n = draw(st.integers(1, 2).filter(lambda n: 2 * n >= n1))
        G = np.vstack([np.eye(n1, dtype=np.int64), rng.integers(0, p, (2 * n - n1, n1))])
        code = _generator_code(G, p, n, noise, "systematic")
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return code, G, rng.integers(0, p, batch + (code.n1,))


@SETTINGS
@given(code_cases())
def test_code_encode_is_rowwise_and_the_generator_product(case):
    code, G, infos = case
    words = code.encode(infos)
    assert words.shape == infos.shape[:-1] + (2 * code.n,)
    assert np.array_equal(words, infos @ G.T % code.p)
    rows = infos.reshape(-1, code.n1)
    for word, info in zip(words.reshape(len(rows), -1), rows):
        assert np.array_equal(word, code.encode(info))


@SETTINGS
@given(code_cases())
def test_code_decode_batch_inverts_encode(case):
    code, _G, infos = case
    decoded = code.decode_batch(code.encode(infos))
    assert decoded.shape == infos.shape
    assert np.array_equal(decoded, infos)
