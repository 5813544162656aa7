"""Property-based checks of the batched Toeplitz kernel, the hash laws,
the batch-first code contract, the decision-table ML decoder, the F_p x F_p
kernels and the bound inversions, the Renyi kernel behind the bounds (with
masses far below 1e-15, which count) and the syndrome law behind quantum
Eve's leakage bound, the syndrome-law form of her exact leakage against
her dense states, the verification-variable comparison's slope-order
fill and joint against vertex enumeration, HiGHS and the cell-by-cell loop,
the hit-only channel sampler against the dense one, a row subset of a
Toeplitz seed against a fresh seed of those rows, the protocol engine's
row-subset hashing against every row rehashed, the engine over random row
chunks against one pass, and the bounded refinement against scipy's
``minimize_scalar``.

Primes up to 31, random lengths and random batch shapes (including the
batch of one that a protocol transcript uses).  The reduction mod p is
compared with numpy's ``%`` over the whole int64 range, and on arrays
just inside and just outside [0, p) around its division threshold.  The Toeplitz
kernel is compared against a pure-Python-int double loop, so the reference
cannot share an overflow or an indexing slip with the code under test;
long blocks and primes up to 2^31 - 1 reach both of its algorithms (the
FFT and the int64 einsum), the exactness cut between them, and a hash
seed's reused spectrum.  The
convolution and character-inversion kernels are compared bit for bit
against the per-cell loops they replaced, which fix the summation order,
and the bound inversion against the plain bisection it replaced.
"""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from pdckit import bounds, protocol
from pdckit.bounds import (InfeasibleTargets, SecurityTargets, eps_C_bound,
                           eps_E_bound, finite_length_report, finite_length_reports,
                           m_hat_lengths)
from pdckit.dists import (MarginalDist, PauliDist, convolve, depolarizing, marginal,
                          renyi_entropy)
from pdckit.estimation import char_table_from_marginals, reconstruct, settings as est_settings
from pdckit import gf
from pdckit.gf import all_vectors, toeplitz_apply_batch
from pdckit.hashing import SeedS, SeedSPrime, f_s, f_s_split, g_sprime, psi_s
from pdckit.wiretap import (_QUANTUM_T_GRID, _TABLE_MAX_WORK, ClassicalChannelWc,
                            LinearCodeSpec, QuantumEveChannel, _generator_code, _ml_scorer,
                            _pair_labels, _syndrome_law, exact_leakage, identity_code,
                            random_linear_code, repetition_code)

from oracle_reference import (dense_sample_batch, gf_rank, min_sigma_distance_lp,
                              quantum_eve_leakage, verification_joints)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
SETTINGS = settings(max_examples=60, deadline=None)


def reference_matvec(seed, x, d1, d2, p):
    """y_i = sum_j V_{i-j+d2} x_j (1-based) over Python ints."""
    return [sum(int(seed[i - j + d2 - 1]) * int(x[j - 1]) for j in range(1, d2 + 1)) % p
            for i in range(1, d1 + 1)]


INT64 = np.iinfo(np.int64)


@SETTINGS
@given(st.sampled_from([2, 3, 31, 1627, 65521, 2**31 - 1]),
       st.sampled_from([(), (1,), (3, 5), (2, 700)]),
       st.lists(st.integers(INT64.min, INT64.max), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_mod_equals_remainder_on_all_int64(p, shape, picks, seed):
    # (2, 700) reaches the division path; forcing it on every size also
    # covers 0-d arrays, where numpy's scalar arithmetic would warn on the
    # wrap of q p near INT64_MIN
    rng = np.random.default_rng(seed)
    edges = [INT64.min, INT64.min + 1, INT64.max, -p, -1, 0, p - 1, *picks]
    a = np.asarray(rng.integers(INT64.min, INT64.max, shape, endpoint=True))
    a.reshape(-1)[rng.integers(0, a.size, len(edges))] = edges  # repeats: last wins
    arrays = [a] + [np.array(v, dtype=np.int64) for v in edges]
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for min_size in (gf._DIV_MIN_SIZE, 0):
            mp.setattr(gf, "_DIV_MIN_SIZE", min_size)
            for arr in arrays:
                before = arr.copy()
                got = gf._mod(arr, p)
                assert got.shape == arr.shape and got.dtype == np.int64
                assert np.array_equal(got, arr % p)
                assert np.array_equal(arr, before)


@SETTINGS
@given(st.sampled_from([2, 3, 31, 65521, 2**31 - 1]),
       st.sampled_from(["residues", "one p", "one -1", "below 2p", "negatives"]),
       st.sampled_from([gf._DIV_MIN_SIZE - 1, gf._DIV_MIN_SIZE, gf._DIV_MIN_SIZE + 1,
                        3 * gf._DIV_MIN_SIZE]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_mod_of_near_residues_is_a_fresh_remainder(p, kind, size, sliced, seed):
    # arrays that already hold residues are copied, not divided; residues
    # with one entry p or -1 are the nearest arrays that must be divided
    rng = np.random.default_rng(seed)
    lo, hi, edge = {"residues": (0, p, p - 1), "one p": (0, p, p), "one -1": (0, p, -1),
                    "below 2p": (0, 2 * p, p), "negatives": (-p, p, -1)}[kind]
    cols = 16 if size % 16 == 0 else 1
    a = rng.integers(lo, hi, (size // cols, cols + sliced))
    a = a[:, :cols] if sliced else a  # psi_S reduces such a column slice
    a[rng.integers(0, len(a)), rng.integers(0, cols)] = edge
    before = a.copy()
    got = gf._mod(a, p)
    assert got.shape == a.shape and got.dtype == np.int64
    assert np.array_equal(got, a % p)
    assert not np.shares_memory(got, a)
    got[...] = -7  # sample_batch writes into the result
    assert np.array_equal(a, before)


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


# 1627 is the last prime the FFT's exactness rule admits at (192, 320) and
# 1637 the first it refuses; 2^31 - 1 passes the int64 guard only for d2 <= 2
LONG_PRIMES = [2, 3, 31, 1627, 1637, 65521, 2**31 - 1]


@st.composite
def long_toeplitz_cases(draw):
    p = draw(st.sampled_from(LONG_PRIMES))
    d1 = draw(st.integers(1, 400))
    d2 = draw(st.integers(0, min(400, (2**63 - 1) // (p - 1) ** 2)))
    batch = tuple(draw(st.lists(st.integers(1, 2), max_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = rng.integers(0, p, batch + (d1 + d2 - 1,))
    xs = rng.integers(0, p, batch + (d2,))
    return p, d1, d2, seeds, xs


@SETTINGS
@given(toeplitz_cases())
def test_kernel_matches_python_reference(case):
    _check_against_reference(case)


@settings(max_examples=30, deadline=None)  # the reference loop takes up to 0.1 s a row
@given(long_toeplitz_cases())
def test_kernel_matches_python_reference_on_long_blocks(case):
    _check_against_reference(case)
    # one hash seed object applied to two inputs: the second product reuses
    # the spectrum the first one computed (g_S' with Y = 0 is T(S') M)
    p, d1, d2, seeds, xs = case
    if d2 == 0:
        return
    seed = SeedSPrime(seeds, d2, d1, p)
    zero = np.zeros(seeds.shape[:-1] + (d1,), dtype=np.int64)
    flat_s = seeds.reshape(-1, d1 + d2 - 1)
    for x in (xs, p - 1 - xs):
        got = g_sprime(seed, x, zero).reshape(-1, d1)
        for row, s, xrow in zip(got, flat_s, x.reshape(-1, d2)):
            assert row.tolist() == reference_matvec(s, xrow, d1, d2, p)


@pytest.mark.parametrize("p,fft", [(1627, True), (1637, False)])
def test_kernel_worst_case_at_the_exactness_cut(monkeypatch, p, fft):
    # every entry p - 1, so each output is d2 (p-1)^2 = d2 mod p
    calls = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
    d1, d2 = 192, 320
    got = toeplitz_apply_batch(np.full((2, d1 + d2 - 1), p - 1), np.full((2, d2), p - 1),
                               d1, d2, p)
    assert got.tolist() == [[d2 % p] * d1] * 2
    assert bool(calls) == fft


@pytest.mark.parametrize("d1,d2", [(128, 129), (129, 129), (16, 497), (497, 16)])
def test_kernel_at_transform_length_boundaries(d1, d2):
    # d1+d2-1 is 256, 257, 512 and 512: a transform filled exactly, or one
    # point past a power of two, where a too-short transform would wrap around
    rng = np.random.default_rng(d1 * 1000 + d2)
    _check_against_reference((31, d1, d2, rng.integers(0, 31, (2, d1 + d2 - 1)),
                              rng.integers(0, 31, (2, d2))))


def _check_against_reference(case):
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
def row_subset_cases(draw):
    """A seed batch on either product path, a row subset of it, and inputs."""
    p = draw(st.sampled_from(PRIMES))
    if draw(st.booleans()):  # the FFT path
        d1 = draw(st.integers(32, 160))
        d2 = draw(st.integers(-(-gf._FFT_MIN_PRODUCT // d1), 160))
    else:
        d1 = draw(st.integers(1, 63))
        d2 = draw(st.integers(1, min(128, (gf._FFT_MIN_PRODUCT - 1) // d1)))
    rows = draw(st.integers(1, 6))
    batch = (rows,) + tuple(draw(st.lists(st.integers(1, 3), max_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.integers(0, p, batch + (d1 + d2 - 1,))
    seed = SeedSPrime(vec, d2, d1, p) if draw(st.booleans()) else gf.Toeplitz(vec, d1, d2, p)
    idx = draw(st.one_of(
        st.just(slice(None)),
        st.just(np.array([], dtype=np.int64)),
        st.integers(0, rows - 1).map(lambda r: np.array([r])),
        st.sets(st.integers(0, rows - 1)).map(lambda r: np.array(sorted(r), dtype=np.int64))))
    sub_batch = vec[idx].shape[:-1]
    xs = rng.integers(0, p, (d2,) if draw(st.booleans()) else sub_batch + (d2,))
    return seed, idx, xs


@SETTINGS
@given(row_subset_cases())
def test_row_subset_is_a_fresh_seed_of_those_rows(case):
    seed, idx, xs = case
    spectrum = seed.spectrum  # the batch's one transform
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
        sub = seed.rows(idx)
        got = sub(xs)
    # only the input is transformed, and only on the FFT path
    assert rfft.call_count == (spectrum is not None)
    fresh = gf.Toeplitz(seed.vec[idx], seed.d1, seed.d2, seed.p)
    assert got.dtype == np.int64 and np.array_equal(got, fresh(xs))
    assert type(sub) is type(seed) and (sub.d1, sub.d2, sub.p) == (seed.d1, seed.d2, seed.p)
    assert np.array_equal(sub.vec, fresh.vec) and not sub.vec.flags.writeable
    if spectrum is None:
        assert sub.spectrum is None
    else:
        assert np.array_equal(sub.spectrum, fresh.spectrum)
    if isinstance(idx, slice):
        assert sub is seed
    if isinstance(seed, SeedSPrime):
        assert (sub.n2, sub.n3) == (seed.n2, seed.n3)


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
    # the cover is recovered from C as Y = C - g_S'(M, 0)
    y_back = (c - g_sprime(seed, m, np.zeros_like(y))) % p
    assert np.array_equal(y_back, y)
    assert np.array_equal(g_sprime(seed, m, y_back), c)
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
        code = _generator_code(G, p, n, noise)
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
    # leading axes survive on both decoder paths: a 3-d batch, one 1-d word
    # and an empty batch
    rows = infos.reshape(-1, code.n1)
    words = code.encode(rows)
    assert np.array_equal(code.decode_batch(np.stack([words, words[::-1]])),
                          np.stack([rows, rows[::-1]]))
    assert np.array_equal(code.decode_batch(words[0]), rows[0])
    for empty in [(0,), (0, 3), (2, 0)]:
        got = code.decode_batch(np.zeros(empty + (2 * code.n,), dtype=np.int64))
        assert got.shape == empty + (code.n1,)


@SETTINGS
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 4),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_generator_code_refuses_exactly_the_rank_deficient(p, n, n1, dependent, seed):
    # a generator whose messages share a codeword is refused; over F_p that
    # is rank below n1, which the reference eliminates for
    n1 = min(n1, 2 * n)
    rng = np.random.default_rng(seed)
    G = rng.integers(0, p, (2 * n, n1))
    if dependent:  # one column a combination of the others (zero when alone)
        j = rng.integers(n1)
        others = np.delete(G, j, axis=1)
        G[:, j] = others @ rng.integers(0, p, n1 - 1) % p
    code = _generator_code(G, p, n, depolarizing(0.1, p))
    assert (code is None) == (gf_rank(G, p) < n1)
    assert code is None or not dependent


@st.composite
def decoder_cases(draw):
    """A code, the table its ML decoder scores, the noise law and words.

    Small generator codes and repetition blocks at p in {2, 3} take the
    decision table; repetition_code(2, 1, 14), random_linear_code(2, 4, 8),
    repetition_code(3, 4, 7) and random_linear_code(3, 4, 8) lie above the
    size limit and score every call.  The laws hold exact ties
    (depolarizing), zero entries (X-only) or random masses.  The words are
    uniform ones and noisy codewords.
    """
    p = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    law = draw(st.sampled_from(["depolarizing", "x_only", "random"]))
    if law == "depolarizing":
        P = convolve(depolarizing(0.1, p), depolarizing(0.1, p))
    elif law == "x_only":
        P = PauliDist(np.r_[0.7, np.zeros(p - 1), 0.3, np.zeros(p * p - p - 1)], p)
    else:
        P = draw(pauli_dists(p))
    kind = draw(st.sampled_from(["generator", "repetition", "large generator",
                                 "large repetition"]))
    if kind == "generator":
        n = draw(st.integers(1, 3 if p == 2 else 2))
        n1 = draw(st.integers(1, min(2 * n, 4)))
        G = np.vstack([np.eye(n1, dtype=np.int64), rng.integers(0, p, (2 * n - n1, n1))])
        code = _generator_code(G, p, n, P)
    elif kind == "repetition":
        r = draw(st.integers(1, 6 if p == 2 else 4))
        code = repetition_code(p, draw(st.sampled_from([2, 4])), r, P)
    elif kind == "large generator":
        code = random_linear_code(p, 4, 8, P, rng)
    else:
        code = repetition_code(p, 1, 14, P) if p == 2 else repetition_code(p, 4, 7, P)
    if kind.endswith("repetition"):
        r = 2 * code.n // code.n1
        inner = all_vectors(p, 1 if r % 2 == 0 else 2)
        table, messages = np.repeat(inner, r, axis=1), inner
    else:
        table, messages = code.all_codewords(), code.all_messages()
    assert (p ** table.shape[1] * len(table) > _TABLE_MAX_WORK) == kind.startswith("large")
    sent = code.encode(rng.integers(0, p, (40, code.n1)))
    words = np.concatenate([rng.integers(0, p, (40, 2 * code.n)),
                            ClassicalChannelWc(P).sample_batch(sent, rng)])
    return code, table, messages, P, words


@SETTINGS
@given(decoder_cases())
def test_decision_table_agrees_with_the_shared_scorer(case):
    # every code decodes as the scorer decides on its (block) words, ties
    # and impossible pairs included, on the table path and above its limit
    code, table, messages, P, words = case
    blocks = words.reshape(-1, table.shape[1])
    expect = _ml_scorer(code.p, table, messages, P)(_pair_labels(blocks, code.p))
    assert np.array_equal(code.decode_batch(words), expect.reshape(len(words), code.n1))


# ---------------------------------------------------------------------------
# F_p x F_p kernels
# ---------------------------------------------------------------------------

def reference_convolve(P, Q):
    """One np.sum per output cell over the (x', z') products."""
    p = P.p
    out = np.zeros((p, p))
    for x in range(p):
        for z in range(p):
            out[x, z] = np.sum(P.probs * Q.probs[(x - np.arange(p)) % p][:, (z - np.arange(p)) % p])
    return PauliDist(out, p)


def reference_reconstruct(char_table, p):
    """Each cell's p^2 terms accumulated in (a, b) order in Python complex."""
    omega = np.exp(2j * np.pi / p)
    out = np.zeros((p, p))
    for x in range(p):
        for z in range(p):
            acc = 0.0 + 0.0j
            for a in range(p):
                for b in range(p):
                    acc += omega ** (-((a * x + b * z) % p)) * char_table[(a, b)]
            out[x, z] = acc.real / p**2
    return out


@st.composite
def pauli_dists(draw, p):
    """Point masses, distributions with zero entries, and dense ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["point", "sparse", "dense", "uniform"]))
    if kind == "point":
        return PauliDist.point_mass(int(rng.integers(p)), int(rng.integers(p)), p)
    if kind == "uniform":
        return PauliDist.uniform(p)
    raw = rng.random(p * p) ** 3
    if kind == "sparse":
        raw[rng.random(p * p) < 0.5] = 0.0
        raw[rng.integers(p * p)] += 0.1
    return PauliDist(raw / raw.sum(), p)


@st.composite
def dist_triples(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(pauli_dists(p)), draw(pauli_dists(p)), draw(pauli_dists(p))


def _dense_dist(p, seed):
    raw = np.random.default_rng(seed).random(p * p)
    return PauliDist(raw / raw.sum(), p)


@SETTINGS
@given(dist_triples())
@example((101, _dense_dist(101, 1), _dense_dist(101, 2), None))  # p = 101: 0.5 s
def test_convolve_matches_reference_bit_for_bit(case):
    _p, P, Q, _R = case
    assert np.array_equal(convolve(P, Q).probs, reference_convolve(P, Q).probs)


@SETTINGS
@given(dist_triples())
def test_convolve_commutative_and_associative(case):
    _p, P, Q, R = case
    assert np.allclose(convolve(P, Q).probs, convolve(Q, P).probs, rtol=0, atol=1e-12)
    assert np.allclose(convolve(convolve(P, Q), R).probs,
                       convolve(P, convolve(Q, R)).probs, rtol=0, atol=1e-12)


def _char_table(P, shots, rng):
    margs = {}
    for s in est_settings(P.p):
        m = marginal(P, s.l, s.k)
        if shots:
            m = MarginalDist(rng.multinomial(shots, m.probs) / shots, P.p)
        margs[s] = m
    return char_table_from_marginals(margs, P.p)


@settings(max_examples=25, deadline=None)  # the reference takes 0.2 s at p = 31
@given(dist_triples(), st.sampled_from([0, 50]), st.integers(0, 2**32 - 1))
def test_reconstruct_matches_reference_bit_for_bit(case, shots, seed):
    # shots > 0 gives empirical tables, whose inversion has negative entries
    p, P, _Q, _R = case
    table = _char_table(P, shots, np.random.default_rng(seed))
    assert np.array_equal(reconstruct(table, p), reference_reconstruct(table, p))


@SETTINGS
@given(dist_triples())
def test_reconstruct_inverts_exact_marginals(case):
    p, P, _Q, _R = case
    table = _char_table(P, 0, None)
    assert np.allclose(reconstruct(table, p), P.probs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# bound inversion
# ---------------------------------------------------------------------------

@st.composite
def inversion_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    P = depolarizing(draw(st.floats(0.0, 0.5)), p)
    P_tilde = depolarizing(draw(st.floats(0.0, 0.5)), p)
    targets = SecurityTargets(eps_C=10.0 ** -draw(st.floats(0.0, 3.0)),
                              eps_E=10.0 ** -draw(st.floats(0.0, 12.0)),
                              eps_B=10.0 ** -draw(st.floats(0.0, 12.0)))
    return draw(st.integers(1, 2000)), P, P_tilde, targets


@SETTINGS
@given(inversion_cases())
def test_m_hat_lengths_is_exact_inversion_of_the_public_bounds(case):
    n, P, P_tilde, targets = case
    p_eff = convolve(P_tilde, P)
    try:
        m1, m2, m3 = m_hat_lengths(targets, n, P, P_tilde)
    except InfeasibleTargets:
        assert (eps_E_bound(n, 2 * n, P) > targets.eps_E
                or eps_C_bound(n, 0, p_eff) > targets.eps_C)
        return
    assert eps_E_bound(n, m2, P) <= targets.eps_E
    assert m2 == 0 or targets.eps_E < eps_E_bound(n, m2 - 1, P)
    assert eps_C_bound(n, m1, p_eff) <= targets.eps_C
    assert m1 == 2 * n or targets.eps_C < eps_C_bound(n, m1 + 1, p_eff)
    rep = finite_length_report(targets, n, P, P_tilde)
    assert (rep.m1, rep.m2, rep.m3) == (m1, m2, m3)
    assert rep.eps_C_achieved == eps_C_bound(n, m1, p_eff)
    assert rep.eps_E_achieved == eps_E_bound(n, m2, P)


def reference_finite_length_report(targets, n, P, P_tilde):
    """The plain bisection that finite_length_report replaced: every step
    evaluates the public bound in full.  Returns (m1, m2, m3, eps_C_achieved,
    eps_E_achieved) or raises InfeasibleTargets with the same message."""
    p = P.p
    m3 = int(np.ceil(-np.log2(targets.eps_B) / np.log2(p) - 1e-12))

    eps_E_at = eps_E_bound(n, 2 * n, P)
    if eps_E_at > targets.eps_E:
        raise InfeasibleTargets(
            f"eps_E = {targets.eps_E} unreachable even sacrificing all 2n symbols"
        )
    lo, hi = 0, 2 * n
    while lo < hi:
        mid = (lo + hi) // 2
        val = eps_E_bound(n, mid, P)
        if val <= targets.eps_E:
            hi, eps_E_at = mid, val
        else:
            lo = mid + 1
    m2 = lo

    p_eff = convolve(P_tilde, P)
    eps_C_at = eps_C_bound(n, 0, p_eff)
    if eps_C_at > targets.eps_C:
        raise InfeasibleTargets(
            f"eps_C = {targets.eps_C} unreachable even at coding length 0"
        )
    lo, hi = 0, 2 * n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        val = eps_C_bound(n, mid, p_eff)
        if val <= targets.eps_C:
            lo, eps_C_at = mid, val
        else:
            hi = mid - 1
    m1 = lo
    return m1, m2, m3, eps_C_at, eps_E_at


@st.composite
def report_cases(draw):
    """Depolarizing laws and ``pauli_dists`` (point masses and zero masses)
    at p up to 31, block lengths up to 10^7 and eps_E down to 1e-15.  Half
    the targets are the bound's own value at a drawn length, where the
    refined minimum meets the target exactly and the grid minimum need not:
    the one step a plain grid test or a floor above the refined minimum
    would decide wrongly (a bound value of 0, not a valid target, keeps
    the drawn one)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    laws = st.floats(0.0, 0.5).map(lambda mix: depolarizing(mix, p)) | pauli_dists(p)
    n = draw(st.integers(1, 10**3) | st.integers(1, 10**7))
    P, P_tilde = draw(laws), draw(laws)
    eps_C = 10.0 ** -draw(st.floats(0.0, 3.0))
    eps_E = 10.0 ** -draw(st.floats(0.0, 15.0))
    if draw(st.booleans()):
        eps_C = eps_C_bound(n, draw(st.integers(0, 2 * n)), convolve(P_tilde, P)) or eps_C
        eps_E = eps_E_bound(n, draw(st.integers(0, 2 * n)), P) or eps_E
    targets = SecurityTargets(eps_C=eps_C, eps_E=eps_E, eps_B=10.0 ** -draw(st.floats(0.0, 12.0)))
    return n, P, P_tilde, targets


@SETTINGS
@given(report_cases())
def test_finite_length_report_matches_the_plain_bisection_bit_for_bit(case):
    # the grid pass and the certified floor fail only skip refinements: the
    # lengths, the achieved values and the infeasibility verdict are the
    # plain bisection's, bit for bit
    n, P, P_tilde, targets = case
    try:
        want = reference_finite_length_report(targets, n, P, P_tilde)
    except InfeasibleTargets as exc:
        with pytest.raises(InfeasibleTargets) as got:
            finite_length_report(targets, n, P, P_tilde)
        assert str(got.value) == str(exc)
        return
    rep = finite_length_report(targets, n, P, P_tilde)
    assert (rep.m1, rep.m2, rep.m3, rep.eps_C_achieved, rep.eps_E_achieved) == want


@SETTINGS
@given(report_cases(), st.lists(st.integers(1, 10**3) | st.integers(1, 10**7), max_size=3))
def test_finite_length_reports_are_the_one_length_reports_bit_for_bit(case, more):
    # the law-only pieces are built once for all lengths; every report, and
    # every infeasible length, is the one-length call's
    n, P, P_tilde, targets = case
    ns = [n, *more]
    want = []
    for m in ns:
        try:
            want.append(finite_length_report(targets, m, P, P_tilde))
        except InfeasibleTargets:
            want.append(None)
    assert finite_length_reports(targets, ns, P, P_tilde) == want


def test_finite_length_report_refines_only_the_steps_in_doubt(monkeypatch):
    # the shape of `pdckit finite --p 31 --mix 0.05 --n-grid
    # 1000,10000,100000,1000000`: the plain bisection refines 136 times and
    # the three-way steps 33.  Without the grid pass they refine 113 times,
    # without the floor fail 64, so the bound, well under half of 136,
    # fails on the loss of either
    calls = []
    refine = bounds._refine_min

    def counted(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(bounds, "_refine_min", counted)
    P = depolarizing(0.05, 31)
    targets = SecurityTargets(0.2, 1e-9, 1e-9)
    for n in (1000, 10000, 100000, 1000000):
        finite_length_report(targets, n, P, P)
    assert len(calls) <= 48


# ---------------------------------------------------------------------------
# monotonicity of the epsilon bounds
# ---------------------------------------------------------------------------

# The grid minimum is exactly monotone term by term; the bounded scalar
# refinement around it may land on a slightly different local minimum, so
# each comparison allows this relative slack.
MONOTONE_RTOL = 1e-12


@st.composite
def monotone_cases(draw):
    """A random P on F_p x F_p, two block lengths n <= n', and two ordered
    lengths in [0, 2n] (sacrifices for eps_E, coding lengths for eps_C)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 2000))
    n_big = draw(st.integers(n, 2000))
    lo, hi = sorted(draw(st.integers(0, 2 * n)) for _ in range(2))
    return p, draw(pauli_dists(p)), n, n_big, lo, hi


def _no_greater(a, b):
    return a <= b * (1.0 + MONOTONE_RTOL)


@SETTINGS
@given(monotone_cases())
def test_eps_E_bound_is_monotone(case):
    _p, P, n, n_big, lo, hi = case
    # more sacrifice never raises the secrecy bound
    assert _no_greater(eps_E_bound(n, hi, P), eps_E_bound(n, lo, P))
    # at a fixed sacrifice, a longer block never lowers it
    assert _no_greater(eps_E_bound(n, hi, P), eps_E_bound(n_big, hi, P))


@SETTINGS
@given(monotone_cases())
def test_eps_C_bound_is_monotone(case):
    _p, P, n, n_big, lo, hi = case
    # a longer coding length never lowers the completeness bound
    assert _no_greater(eps_C_bound(n, lo, P), eps_C_bound(n, hi, P))
    # at a fixed coding length, a longer block never raises it
    assert _no_greater(eps_C_bound(n_big, hi, P), eps_C_bound(n, hi, P))


# ---------------------------------------------------------------------------
# the Renyi kernel of the bounds, and masses below 1e-15
# ---------------------------------------------------------------------------

@st.composite
def tiny_mass_dists(draw, p):
    """A ``pauli_dists`` law with up to three cells, never the largest, moved
    to masses in [1e-300, 1e-15]: below any floor, yet at the order 0.001
    that the bounds reach, 1e-300 still raises to 0.5."""
    probs = draw(pauli_dists(p)).flat().copy()
    others = [c for c in range(p * p) if c != int(np.argmax(probs))]
    cells = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    tiny = [10.0 ** -draw(st.floats(15.0, 300.0)) for _ in cells]
    rest = np.ones(p * p, dtype=bool)
    rest[cells] = False
    probs[rest] *= (1.0 - sum(tiny)) / probs[rest].sum()
    probs[cells] = tiny
    return PauliDist(probs, p)


def _all_mass_renyi(P, alpha):
    """H_alpha(P) from every positive mass, by an exactly rounded sum."""
    power_sum = math.fsum(float(x) ** alpha for x in P.flat() if x > 0.0)
    return math.log2(power_sum) / (1.0 - alpha)


@SETTINGS
@given(st.sampled_from([2, 3, 5, 7]).flatmap(tiny_mass_dists),
       st.lists(st.floats(0.0, 1.0 - 1e-9) | st.floats(1.0 + 1e-9, 3.0), min_size=1, max_size=8))
def test_renyi_kernel_matches_renyi_entropy(P, alphas):
    # the one kernel, over an array of orders (H_0 included), gives the
    # one-order-at-a-time values and counts every positive mass, however
    # small.  The bounds pass 1/(1+t) and 1-t with t in [0.001, 1], up to
    # 0.999; orders reach within 1e-9 of the Shannon point, where
    # log2(sum)/(1 - alpha) scales the sum's rounding by 1/|1 - alpha|.
    # Orders 1e-6 and 1e-3 either side of it, on every law, pin where
    # renyi_entropy switches to Shannon.
    alphas = np.array(alphas + [1.0 - 1e-3, 1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 1e-3])
    got = renyi_entropy(P.flat(), alphas)
    np.testing.assert_allclose(got, [renyi_entropy(P.flat(), a) for a in alphas],
                               rtol=1e-12, atol=0.0)
    want = np.array([_all_mass_renyi(P, a) for a in alphas])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 2e-14 / np.abs(1.0 - alphas))


def _all_mass_eps(n, m, P, secrecy):
    """eps_E_bound(n, m, P) (secrecy) or eps_C_bound(n, m, P) from
    ``_all_mass_renyi``: the same formulas, minimised over t in [0.001, 1]
    by a 400-point grid and a bounded refinement, apart from the package."""
    log_p = math.log2(P.p)

    def exponent(t):
        if secrecy:
            h = _all_mass_renyi(P, 1.0 / (1.0 + t))
            return (1.0 - t) / (1.0 + t) + (t / (1.0 + t)) * (n * h - m * log_p)
        return t * (m * log_p - n * (2.0 * log_p - _all_mass_renyi(P, 1.0 - t)))

    ts = np.logspace(-3.0, 0.0, 400)
    vals = [exponent(t) for t in ts]
    i = int(np.argmin(vals))
    res = minimize_scalar(exponent, bounds=(ts[max(i - 1, 0)], ts[min(i + 1, 399)]),
                          method="bounded", options={"xatol": 1e-12})
    best = min(vals[i], float(res.fun))
    if secrecy:
        return 1.0 if best >= 0.0 else min(1.0, 2.0 ** best)
    return min(1.0, 4.0 * 2.0 ** best)


@st.composite
def tiny_mass_inversion_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    targets = SecurityTargets(eps_C=10.0 ** -draw(st.floats(0.0, 3.0)),
                              eps_E=10.0 ** -draw(st.floats(0.0, 12.0)),
                              eps_B=1e-9)
    return draw(st.integers(1, 2000)), draw(tiny_mass_dists(p)), targets


@SETTINGS
@given(tiny_mass_inversion_cases())
def test_finite_length_report_inverts_the_all_mass_bounds(case):
    # m2 is the smallest sacrifice and m1 the largest coding length that
    # meet their targets under bounds counting every positive mass; a 1e-15
    # floor certified m1 = 1995 at p = 2, mix 1e-15, n = 1000 where the
    # all-mass eps_C is 0.381 > 0.2.  The slack only absorbs the two
    # minimisers' differences in t.
    n, P, targets = case
    p_eff = convolve(P, P)
    slack = 1e-9
    try:
        rep = finite_length_report(targets, n, P, P)
    except InfeasibleTargets:
        assert (_all_mass_eps(n, 2 * n, P, True) > targets.eps_E * (1 - slack)
                or _all_mass_eps(n, 0, p_eff, False) > targets.eps_C * (1 - slack))
        return
    assert _all_mass_eps(n, rep.m2, P, True) <= targets.eps_E * (1 + slack)
    assert rep.m2 == 0 or _all_mass_eps(n, rep.m2 - 1, P, True) > targets.eps_E * (1 - slack)
    assert _all_mass_eps(n, rep.m1, p_eff, False) <= targets.eps_C * (1 + slack)
    assert rep.m1 == 2 * n or _all_mass_eps(n, rep.m1 + 1, p_eff, False) > targets.eps_C * (1 - slack)


# ---------------------------------------------------------------------------
# the syndrome law Q_C of quantum Eve's leakage bound
# ---------------------------------------------------------------------------

# the Renyi orders (1+t)/(1+2t) that theorem1_bound evaluates
BETAS = (1.0 + _QUANTUM_T_GRID) / (1.0 + 2.0 * _QUANTUM_T_GRID)


@st.composite
def syndrome_cases(draw, kinds=("identity", "repetition", "generator"), rs=(1, 2, 3, 4, 6)):
    """A code with n <= 3 at p in {2, 3, 5} and a noise law P."""
    p = draw(st.sampled_from([2, 3, 5]))
    P = draw(pauli_dists(p))
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return identity_code(p, draw(st.integers(1, 3))), P
    if kind == "repetition":
        r = draw(st.sampled_from(rs))
        n1 = draw(st.integers(1, 6 // r).filter(lambda n1: r * n1 % 2 == 0))
        return repetition_code(p, n1, r, P), P
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    n1 = draw(st.integers(1, min(2 * n, 4)))
    G = np.vstack([np.eye(n1, dtype=np.int64), rng.integers(0, p, (2 * n - n1, n1))])
    return _generator_code(G, p, n, P), P


@SETTINGS
@given(syndrome_cases())
def test_syndrome_law_is_a_probability_vector(case):
    code, P = case
    law = _syndrome_law(P, code)
    assert law.shape == (P.p ** code.n1,)
    assert law.min() >= 0.0
    assert abs(law.sum() - 1.0) <= 1e-12


@SETTINGS
@given(syndrome_cases(kinds=["identity"]))
def test_syndrome_law_of_identity_code_is_n_copies_of_P(case):
    # s(g) = (-z_1, x_1, ..., -z_n, x_n) is a bijection of g, so Q_C holds
    # the masses of P^{x n}, and sum Q_C^beta = (sum P^beta)^n.  Products of
    # small masses of P fall far below P's own (1e-24 at p = 5, n = 3), and
    # at beta < 1 they still count: a 1e-15 floor moved H_beta by 1e-9
    code, P = case
    law = _syndrome_law(P, code)
    product = np.ones(1)
    for _ in range(code.n):
        product = np.kron(product, P.flat())
    np.testing.assert_allclose(np.sort(law), np.sort(product), rtol=0.0, atol=1e-15)
    for beta in BETAS:
        assert abs(renyi_entropy(law, beta) - code.n * renyi_entropy(P.flat(), beta)) <= 1e-9


@SETTINGS
@given(syndrome_cases(kinds=["repetition"], rs=(2, 4, 6)))
def test_syndrome_law_of_even_repetition_is_a_product(case):
    # each symbol fills r/2 pairs (a, a), so s_j is the sum of r/2 i.i.d.
    # copies of x - z (one copy at r = 2) and the n1 symbols are independent
    code, P = case
    block = PauliDist.point_mass(0, 0, P.p)
    for _ in range(code.n // code.n1):
        block = convolve(block, P)
    law = np.ones(1)
    for _ in range(code.n1):
        law = np.kron(law, marginal(block, 1, 1).probs)
    np.testing.assert_allclose(_syndrome_law(P, code), law, rtol=0.0, atol=1e-15)


@st.composite
def dense_leakage_cases(draw):
    """A code the dense (p^3)^n states reach (p = 2 with n <= 2, p = 3 with
    n = 1), n1 >= 2, a noise law P and a split n2 + n3 < n1."""
    p = draw(st.sampled_from([2, 3]))
    n = 1 if p == 3 else draw(st.integers(1, 2))
    P = draw(pauli_dists(p))
    kind = draw(st.sampled_from(["identity", "repetition", "random"]))
    if kind == "identity":
        code = identity_code(p, n)
    elif kind == "repetition":
        # r * n1 = 2n with n1 >= 2: r = 1, or r = 2 at n = 2
        r = draw(st.sampled_from([1, 2] if n == 2 else [1]))
        code = repetition_code(p, 2 * n // r, r, P)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        code = random_linear_code(p, n, draw(st.integers(2, 2 * n)), P, rng)
    k = draw(st.integers(1, code.n1 - 1))
    n3 = draw(st.integers(0, k - 1))
    return code, k - n3, n3, P


@SETTINGS
@given(dense_leakage_cases())
def test_syndrome_leakage_matches_dense_states(case):
    # the spectra of the p^{n1} x p^{n1} syndrome-law matrices give the
    # trace norms of Eve's (p^3)^n-dimensional state differences
    code, n2, n3, P = case
    got = exact_leakage(code, n2, n3, QuantumEveChannel(P, code.n))
    assert abs(got - quantum_eve_leakage(code, n2, n3, P, code.n)) <= 1e-12


# ---------------------------------------------------------------------------
# the verification-variable comparison: slope-order fill and one-gather joint
# ---------------------------------------------------------------------------

def reference_min_sigma_distance(joint):
    """The minimum over every point where all sigma_f but one sit at 0 or at
    one of their breakpoints a_mf / p_m, and the free one takes the rest of
    the mass: the objective is linear between breakpoints, so a vertex of
    the simplex cut into those pieces attains it."""
    m_count, f_count = joint.shape
    pm = joint.sum(axis=1)
    live = pm > 0
    stops = [np.unique(np.append(joint[live, f] / pm[live], 0.0)) for f in range(f_count)]
    best = math.inf
    for free in range(f_count):
        fixed = [f for f in range(f_count) if f != free]
        for values in itertools.product(*(stops[f] for f in fixed)):
            sigma = np.zeros(f_count)
            sigma[fixed] = values
            sigma[free] = 1.0 - sum(values)
            if sigma[free] >= 0.0:
                best = min(best, float(np.abs(joint - pm[:, None] * sigma).sum()))
    return best


@st.composite
def tiny_joints(draw):
    """A normalised M x F joint with M, F <= 3, small-integer or float
    weights (so breakpoints tie and cells vanish) and possibly a zero row."""
    m_count, f_count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = st.integers(0, 3).map(float) | st.floats(0.0, 1.0)
    joint = np.array(draw(st.lists(weights, min_size=m_count * f_count,
                                   max_size=m_count * f_count))).reshape(m_count, f_count)
    if m_count > 1 and draw(st.booleans()):
        joint[draw(st.integers(0, m_count - 1))] = 0.0
    assume(joint.sum() > 0.0)
    return joint / joint.sum()


@settings(max_examples=300, deadline=None)
@given(tiny_joints())
def test_fill_equals_vertex_enumeration(joint):
    assert abs(protocol._min_sigma_distance(joint) - reference_min_sigma_distance(joint)) <= 1e-14


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 16), st.sampled_from([0.1, 0.3, 1.0]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_fill_matches_the_highs_reference(m_count, f_count, alpha, holes, seed):
    # HiGHS reports up to about 1.2e-7 below the minimum at alpha = 0.1
    rng = np.random.default_rng(seed)
    joint = rng.dirichlet(np.full(m_count * f_count, alpha)).reshape(m_count, f_count)
    if holes:
        joint[rng.random(joint.shape) < 0.3] = 0.0
        assume(joint.sum() > 0.0)
        joint /= joint.sum()
    assert abs(protocol._min_sigma_distance(joint) - min_sigma_distance_lp(joint)) <= 1e-6


@pytest.mark.parametrize("p,n2,n3", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2), (3, 2, 1)])
def test_lnm_joints_match_the_loop_reference_bit_for_bit(monkeypatch, p, n2, n3):
    rng = np.random.default_rng(p * 100 + n2 * 10 + n3)
    kernel = rng.dirichlet(np.ones(5), size=p ** (n2 + n3)).T
    seen = []

    def record(joint):
        seen.append(joint)
        return 0.0

    monkeypatch.setattr(protocol, "_min_sigma_distance", record)
    protocol.lnm_check(p, n2, n3, kernel)
    want = verification_joints(p, n2, n3, kernel)
    assert len(seen) == 2
    for got, ref in zip(seen, want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the hit-only channel sampler and the engine's row subsets
# ---------------------------------------------------------------------------

@st.composite
def sampler_laws(draw, p):
    """Random laws, laws without mass at (0, 0), point masses at and off
    (0, 0), and a near-identity law."""
    kind = draw(st.sampled_from(["law", "no origin", "origin", "near identity"]))
    if kind == "law":
        return draw(pauli_dists(p))
    if kind == "origin":
        return PauliDist.point_mass(0, 0, p)
    if kind == "near identity":
        return convolve(depolarizing(1e-3, p), depolarizing(1e-3, p))
    raw = draw(pauli_dists(p)).flat().copy()
    raw[0] = 0.0
    if raw.sum() == 0.0:
        raw[draw(st.integers(1, p * p - 1))] = 1.0
    return PauliDist(raw / raw.sum(), p)


@st.composite
def sampler_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    batch = tuple(draw(st.lists(st.integers(0, 4), max_size=2)))  # 1-, 2- and 3-d
    lo, hi = draw(st.sampled_from([(0, p), (-3 * p, 0), (p, 4 * p), (-10**6, 10**6)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(lo, hi, batch + (2 * draw(st.integers(1, 6)),))
    return draw(sampler_laws(p)), words, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(sampler_cases())
def test_hit_only_sampler_matches_the_dense_sampler(case):
    P, words, seed = case
    rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ClassicalChannelWc(P).sample_batch(words, rng)
    want = dense_sample_batch(P, words, dense_rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # both consumed the same draws
    assert rng.random() == dense_rng.random()


def _corrupting_identity_code(p, n):
    """An identity-code plug-in whose decoder changes the first symbol of
    every word with an even symbol sum, clean ones included."""
    code = identity_code(p, n)

    def decode_batch(words):
        out = code.decode_batch(words)
        out[..., 0] = (out[..., 0] + (out.sum(axis=-1) % 2 == 0)) % p
        return out

    return LinearCodeSpec(p=p, n=n, n1=2 * n, encode=code.encode, decode_batch=decode_batch)


def _shift_some(p):
    def rule(x_hat, rng):
        return (x_hat + (rng.random(x_hat.shape) < 0.3)) % p
    return rule


@st.composite
def engine_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    P = depolarizing(draw(st.sampled_from([1e-3, 0.05, 0.3])), p)
    eff = convolve(P, P)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["identity", "repetition", "random linear", "corrupting"]))
    if kind == "identity":
        code = identity_code(p, draw(st.integers(2, 3)))
    elif kind == "repetition":
        code = repetition_code(p, draw(st.integers(3, 4)), draw(st.sampled_from([2, 4])), eff)
    elif kind == "random linear":
        code = random_linear_code(p, 2, draw(st.integers(3, 4)), eff, rng)
    else:
        code = _corrupting_identity_code(p, draw(st.integers(2, 3)))
    n2 = draw(st.integers(1, code.n1 - 2))
    n3 = draw(st.integers(1, code.n1 - 1 - n2))
    config = protocol.ProtocolConfig(p=p, n=code.n, n1=code.n1, n2=n2, n3=n3, P=P,
                                     P_tilde=P, code=code,
                                     master_seed=draw(st.integers(0, 2**31)))
    adversary = draw(st.sampled_from([protocol.AdversaryMode.none(),
                                      protocol.AdversaryMode.intercept(),
                                      protocol.AdversaryMode.tamper(),
                                      protocol.AdversaryMode.tamper(_shift_some(p))]))
    msgs = rng.integers(0, p, (draw(st.integers(1, 40)), n2))
    return config, msgs, adversary, draw(st.booleans())


def _fft_engine_case(adversary, masked):
    """The mc_hash shape, whose hashes take the FFT path with row subsets
    of the seeds' spectra."""
    P = depolarizing(1e-3, 2)
    config = protocol.ProtocolConfig(p=2, n=256, n1=512, n2=128, n3=64, P=P, P_tilde=P,
                                     code=identity_code(2, 256), master_seed=5)
    return config, np.random.default_rng(5).integers(0, 2, (60, 128)), adversary, masked


@SETTINGS
@given(engine_cases())
@example(_fft_engine_case(protocol.AdversaryMode.none(), False))
@example(_fft_engine_case(protocol.AdversaryMode.tamper(_shift_some(2)), True))
def test_engine_row_subsets_equal_every_row_rehashed(case):
    # f_S and g_S' run only on the rows the channel or decoder changed; on
    # every row they must give what hashing all of them gives
    config, msgs, adversary, masked = case
    run = protocol._engine(config, msgs, config.streams(), adversary, masked)
    if adversary.kind == "intercept":
        assert all(run[key] is None for key in ("x_hat", "m_hat", "y_hat", "accept",
                                                "block_error"))
        return
    p, n1, n2, n3 = config.p, config.n1, config.n2, config.n3
    decoded = config.code.decode_batch(run["x_hat"])
    y_hat, m_hat = f_s_split(SeedS(run["s"], n1, n2, n3, p), decoded)
    assert np.array_equal(run["y_hat"], y_hat) and np.array_equal(run["m_hat"], m_hat)
    accept = protocol.verify(SeedSPrime(run["s_prime"], n2, n3, p), m_hat, y_hat, run["c"])
    assert run["accept"].dtype == bool and np.array_equal(run["accept"], accept)
    # every baseline encoder is injective: a decision differs from its
    # information word exactly when its codeword differs from the sent one
    assert np.array_equal(run["block_error"],
                          np.any(config.code.encode(decoded) != run["x"], axis=-1))


@st.composite
def chunked_engine_cases(draw):
    config, msgs, adversary, masked = draw(engine_cases())
    trials = len(msgs)
    cuts = draw(st.sets(st.integers(1, trials - 1), max_size=trials - 1)) if trials > 1 else set()
    return config, trials, sorted(cuts), adversary, masked


def _chunked_engine(config, cuts, trials, adversary, masked):
    """The engine over the row chunks between ``cuts`` on one stream dict,
    each chunk's messages drawn just before it, as ``monte_carlo`` runs it;
    every array joined back along the rows."""
    streams, runs = config.streams(), []
    for lo, hi in zip([0, *cuts], [*cuts, trials]):
        msgs = streams["message"].integers(0, config.p, (hi - lo, config.n2))
        runs.append(dict(protocol._engine(config, msgs, streams, adversary, masked),
                         msgs=msgs))
    return {key: None if runs[0][key] is None else np.concatenate([r[key] for r in runs])
            for key in runs[0]}


@SETTINGS
@given(chunked_engine_cases())
@example((_fft_engine_case(protocol.AdversaryMode.none(), False)[0], 60, [1, 17, 40],
          protocol.AdversaryMode.none(), False))
@example((_fft_engine_case(protocol.AdversaryMode.none(), False)[0], 60, [59],
          protocol.AdversaryMode.tamper(_shift_some(2)), True))
def test_engine_row_chunks_equal_one_pass(case):
    # monte_carlo's chunks must not move a drawn value, decision or verdict
    config, trials, cuts, adversary, masked = case
    one = _chunked_engine(config, [], trials, adversary, masked)
    chunked = _chunked_engine(config, cuts, trials, adversary, masked)
    assert one.keys() == chunked.keys()
    for key, want in one.items():
        got = chunked[key]
        assert (got is None) == (want is None), key
        if want is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want), key


# ---------------------------------------------------------------------------
# the bounded refinement, step for step against scipy
# ---------------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


_BOUNDED_MIN = bounds._bounded_min


def _assert_scipy_steps(fn, x1, x2):
    x, fun, nfev = _BOUNDED_MIN(fn, x1, x2)
    res = minimize_scalar(fn, bounds=(x1, x2), method="bounded", options={"xatol": 1e-12})
    assert _same_bits(x, res.x) and _same_bits(fun, res.fun) and nfev == res.nfev, \
        ((x, fun, nfev), (res.x, res.fun, res.nfev))
    return x, fun, nfev


@SETTINGS
@given(st.sampled_from([2, 3, 5, 7]).flatmap(
           lambda p: pauli_dists(p) | tiny_mass_dists(p)),
       st.integers(1, 10**3) | st.integers(1, 10**7), st.floats(0.0, 1.0), st.booleans())
def test_bounded_refinement_is_scipy_bit_for_bit(P, n, frac, secrecy):
    # every refinement the package runs for one bound, with scipy beside it
    calls = []

    def both(fn, x1, x2):
        calls.append(_assert_scipy_steps(fn, x1, x2))
        return calls[-1]

    m = round(frac * 2 * n)
    with mock.patch.object(bounds, "_bounded_min", both):
        (eps_E_bound if secrecy else eps_C_bound)(n, m, P)
    assert len(calls) == 1


@pytest.mark.parametrize("fn", [lambda t: 1.0, lambda t: t, lambda t: -t,
                                lambda t: (t - 0.3) ** 2, lambda t: np.nan,
                                lambda t: np.nan if t > 0.5 else (t - 0.4) ** 2,
                                lambda t: np.sin(40.0 * t)],
                         ids=["flat", "min-at-left", "min-at-right", "interior", "nan",
                              "nan-right", "wavy"])
@pytest.mark.parametrize("bracket", [(0.0, 1.0), (0.001, 0.0010355), (0.2, 0.2 + 1e-11),
                                     (0.5, 0.5)])
def test_bounded_refinement_edge_brackets_are_scipy_bit_for_bit(fn, bracket):
    _assert_scipy_steps(fn, *bracket)
