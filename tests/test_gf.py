from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdckit.gf import FieldVec, all_vectors, toeplitz_apply_batch, word_index


def naive_toeplitz_matvec(seed_values, d1, d2, x, p):
    """Independent oracle: per-element evaluation of y_i = sum_j V_{i-j+d2} x_j."""
    y = []
    for i in range(1, d1 + 1):
        acc = 0
        for j in range(1, d2 + 1):
            acc += seed_values[i - j + d2 - 1] * x[j - 1]
        y.append(acc % p)
    return y


# ---------------------------------------------------------------
# field vectors
# ---------------------------------------------------------------

def test_fieldvec_prime_validation():
    with pytest.raises(ValueError):
        FieldVec([0], 4)
    with pytest.raises(ValueError):
        FieldVec([0], 1)
    assert FieldVec([0], 2).p == 2


def test_fieldvec_basic():
    v = FieldVec([1, 2, 4], 5)
    assert v.tolist() == [1, 2, 4]
    assert len(v) == 3
    assert v == FieldVec(np.array([1, 2, 4]), 5)
    assert v != FieldVec([1, 2, 4], 7)
    with pytest.raises(ValueError):
        FieldVec([], 5)
    with pytest.raises(ValueError):
        FieldVec([[1, 2]], 5)
    # symbols outside [0, p) are rejected, not reduced: [5] at p = 2 is not message 1
    for values, p in (([1, 2, 7], 5), ([5], 2), ([-1], 2), ([0, 2], 2)):
        with pytest.raises(ValueError, match="outside"):
            FieldVec(values, p)


def test_fieldvec_refuses_non_integer_symbols():
    # floats were truncated ([1.7, 0.2] became [1, 0]) and strings parsed
    for values in ([1.7, 0.2], [1.0], ["1"], [True, False], np.array([0.5])):
        with pytest.raises(ValueError, match="integers"):
            FieldVec(values, 2)
    for values in ([2, 0], np.array([2, 0], dtype=np.uint8), np.array([2, 0], dtype=np.int32)):
        v = FieldVec(values, 3)
        assert v.tolist() == [2, 0] and v.values.dtype == np.int64


# ---------------------------------------------------------------
# F_p enumeration
# ---------------------------------------------------------------

def test_all_vectors_lexicographic():
    assert all_vectors(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    out = all_vectors(3, 3)
    assert out.shape == (27, 3) and out.dtype == np.int64
    assert [tuple(r) for r in out.tolist()] == list(product(range(3), repeat=3))
    assert all_vectors(5, 0).shape == (1, 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 6),
       st.lists(st.integers(0, 3), max_size=2), st.integers(0, 2**32 - 1))
def test_word_index_inverts_all_vectors(p, length, lead, seed):
    table = all_vectors(p, length)
    idx = word_index(table, p)
    assert idx.dtype == np.int64
    np.testing.assert_array_equal(idx, np.arange(p**length))
    words = np.random.default_rng(seed).integers(0, p, tuple(lead) + (length,))
    got = word_index(words, p)
    assert got.shape == words.shape[:-1]
    np.testing.assert_array_equal(table[got], words)


# ---------------------------------------------------------------
# Toeplitz application
# ---------------------------------------------------------------

def test_toeplitz_zero_seed():
    y = toeplitz_apply_batch([0, 0, 0], [1, 2], 2, 2, 3)
    assert y.tolist() == [0, 0]


def test_toeplitz_1x1_identity():
    assert toeplitz_apply_batch([1], [1], 1, 1, 2).tolist() == [1]


def test_toeplitz_2x2_example():
    # materialize the matrix from the index rule: V=(1,2,0) gives [[2,1],[0,2]];
    # column j is T e_j, so the unit-vector batch returns the columns as rows
    cols = toeplitz_apply_batch([1, 2, 0], np.eye(2, dtype=np.int64), 2, 2, 3)
    assert cols.T.tolist() == [[2, 1], [0, 2]]
    y = toeplitz_apply_batch([1, 2, 0], [1, 1], 2, 2, 3)
    assert y.tolist() == [0, 2]


def test_toeplitz_matches_naive_exhaustive_small():
    p = 2
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            n_seed = d1 + d2 - 1
            for sidx in range(p**n_seed):
                sv = [(sidx // p**j) % p for j in range(n_seed)]
                for xidx in range(p**d2):
                    xv = [(xidx // p**j) % p for j in range(d2)]
                    got = toeplitz_apply_batch(sv, xv, d1, d2, p).tolist()
                    assert got == naive_toeplitz_matvec(sv, d1, d2, xv, p)


def test_toeplitz_matches_naive_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = int(rng.choice([2, 3, 5]))
        d1 = int(rng.integers(1, 7))
        d2 = int(rng.integers(1, 7))
        sv = rng.integers(0, p, d1 + d2 - 1).tolist()
        xv = rng.integers(0, p, d2).tolist()
        got = toeplitz_apply_batch(sv, xv, d1, d2, p).tolist()
        assert got == naive_toeplitz_matvec(sv, d1, d2, xv, p)


def test_toeplitz_batch_rows_match_naive():
    rng = np.random.default_rng(12)
    p, d1, d2 = 5, 4, 6
    seeds = rng.integers(0, p, (3, 7, d1 + d2 - 1))
    xs = rng.integers(0, p, (3, 7, d2))
    got = toeplitz_apply_batch(seeds, xs, d1, d2, p)
    assert got.shape == (3, 7, d1)
    for a in range(3):
        for b in range(7):
            assert got[a, b].tolist() == naive_toeplitz_matvec(
                seeds[a, b].tolist(), d1, d2, xs[a, b].tolist(), p)
    # one seed broadcast against a batch of inputs, and the reverse
    one = toeplitz_apply_batch(seeds[0, 0], xs[0], d1, d2, p)
    assert one.tolist() == [naive_toeplitz_matvec(seeds[0, 0].tolist(), d1, d2,
                                                  x.tolist(), p) for x in xs[0]]
    many = toeplitz_apply_batch(seeds[0], xs[0, 0], d1, d2, p)
    assert many.tolist() == [naive_toeplitz_matvec(s.tolist(), d1, d2,
                                                   xs[0, 0].tolist(), p) for s in seeds[0]]


def test_toeplitz_empty_inner_length():
    # d2 = 0 (no L2 block): the product is the zero vector
    y = toeplitz_apply_batch(np.zeros((4, 2), dtype=np.int64), np.zeros((4, 0)), 3, 0, 2)
    assert y.shape == (4, 3) and not y.any()


def test_toeplitz_linearity():
    rng = np.random.default_rng(5)
    p = 5
    seed = rng.integers(0, p, 8)
    for _ in range(50):
        x = rng.integers(0, p, 5)
        y = rng.integers(0, p, 5)
        a, b = int(rng.integers(0, p)), int(rng.integers(0, p))
        lhs = toeplitz_apply_batch(seed, (a * x + b * y) % p, 4, 5, p)
        rhs = (a * toeplitz_apply_batch(seed, x, 4, 5, p)
               + b * toeplitz_apply_batch(seed, y, 4, 5, p)) % p
        assert np.array_equal(lhs, rhs)


def test_toeplitz_errors():
    with pytest.raises(ValueError):
        toeplitz_apply_batch([1, 0, 1], [1], 2, 2, 3)
    with pytest.raises(ValueError):
        toeplitz_apply_batch([1, 0], [1, 1], 2, 2, 3)


@pytest.mark.parametrize("p", [3, 31])
@pytest.mark.parametrize("d1,d2", [(4, 4), (64, 64)])  # the einsum and the FFT path
def test_toeplitz_refuses_inputs_outside_residues(p, d1, d2):
    # a product reduces its seeds but not its inputs, and both algorithms
    # assume residues: an input merely congruent to one is refused
    rng = np.random.default_rng(p + d2)
    seeds = rng.integers(0, p, (2, d1 + d2 - 1))
    x = rng.integers(0, p, (2, d2))
    x[:, 0] = [0, p - 1]
    want = [naive_toeplitz_matvec(s, d1, d2, row, p) for s, row in zip(seeds, x)]
    assert toeplitz_apply_batch(seeds, x, d1, d2, p).tolist() == want
    for shift in (p, -p, 3 * 10**15, 3 * 2**60, -(2**62)):
        bad = x.copy()
        bad[1, -1] += shift
        with pytest.raises(ValueError, match="residues"):
            toeplitz_apply_batch(seeds, bad, d1, d2, p)


def test_toeplitz_overflow_guard_large_prime():
    # at p = 2^31 - 1 a length-64 int64 dot product of residues overflows;
    # the kernel must refuse it rather than return a wrong hash
    p = 2**31 - 1
    rng = np.random.default_rng(13)
    seed = rng.integers(p - 1000, p, 64 + 4 - 1)
    x = rng.integers(p - 1000, p, 64)
    with pytest.raises(ValueError):
        toeplitz_apply_batch(seed, x, 4, 64, p)
    # two products of maximal residues still fit, and are exact
    top = [p - 1] * 3
    assert toeplitz_apply_batch(top, [p - 1, p - 1], 2, 2, p).tolist() == \
        naive_toeplitz_matvec(top, 2, 2, [p - 1, p - 1], p)
    with pytest.raises(ValueError):
        toeplitz_apply_batch([p - 1] * 4, [p - 1] * 3, 2, 3, p)
