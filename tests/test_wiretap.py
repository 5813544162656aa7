import hashlib

import numpy as np
import pytest

from pdckit import gf
from pdckit import qexact as qx
from pdckit import wiretap
from pdckit.dists import PauliDist, convolve, depolarizing, sibson_mutual_info
from pdckit.gf import all_vectors
from pdckit.hashing import SeedS, f_s, f_s_split, psi_s
from pdckit.qexact import SizeCapError
from pdckit.wiretap import (ClassicalChannelWc, QuantumEveChannel,
                            _batch_ml_decoder, _seed_norms,
                            check_code_conformance, eve_additive, eve_constant,
                            eve_first_symbol, eve_noiseless, exact_leakage,
                            identity_code, random_linear_code, repetition_code,
                            theorem1_bound)

from oracle_reference import message_norms, quantum_eve_leakage, quantum_eve_states


def dep2():
    return convolve(depolarizing(0.05, 2), depolarizing(0.05, 2))


# ---------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------

def test_channel_noiseless():
    rng = np.random.default_rng(0)
    ch = ClassicalChannelWc(PauliDist.point_mass(0, 0, 2))
    w = rng.integers(0, 2, 16)
    assert np.array_equal(ch.sample_batch(w, rng), w)


def test_channel_uniform_noise():
    rng = np.random.default_rng(1)
    ch = ClassicalChannelWc(PauliDist.uniform(2))
    w = np.ones(8, dtype=np.int64)
    outs = ch.sample_batch(np.tile(w, (4000, 1)), rng)
    pairs = outs[:, 0::2] * 2 + outs[:, 1::2]
    freqs = np.bincount(pairs.reshape(-1), minlength=4) / pairs.size
    assert np.max(np.abs(freqs - 0.25)) < 0.02


def test_channel_batch_first_over_leading_axes():
    # a (2, 4, 2) batch is 8 one-pair words: it draws the noise of the same
    # 8 words given as (8, 2), so the two batch rows get different noise
    noise = PauliDist.uniform(3)
    words = np.random.default_rng(3).integers(0, 3, (2, 4, 2))
    ch = ClassicalChannelWc(noise)
    batched = ch.sample_batch(words, np.random.default_rng(4))
    flat = ch.sample_batch(words.reshape(8, 2), np.random.default_rng(4))
    assert batched.shape == (2, 4, 2)
    assert np.array_equal(batched.reshape(8, 2), flat)
    assert ch.sample_batch(np.zeros((3, 4, 6), dtype=np.int64),
                           np.random.default_rng(5)).shape == (3, 4, 6)
    # a single word draws the same labels as the batch of one
    single = ch.sample_batch(words[0, 0], np.random.default_rng(6))
    assert np.array_equal(single, ch.sample_batch(words[0, :1], np.random.default_rng(6))[0])
    with pytest.raises(ValueError):
        ch.sample_batch(np.zeros((2, 3), dtype=np.int64), np.random.default_rng(7))


def test_channel_pair_error_rate():
    # 1 - identity weight of dep(0.05)*dep(0.05) = 0.073125
    rng = np.random.default_rng(2)
    ch = ClassicalChannelWc(dep2())
    trials = 10**5
    outs = ch.sample_batch(np.zeros((trials, 2), dtype=np.int64), rng)
    err = np.mean(np.any(outs != 0, axis=1))
    q = 0.073125
    sigma = np.sqrt(q * (1 - q) / trials)
    assert abs(err - q) < 3 * sigma


# ---------------------------------------------------------------
# baseline codes
# ---------------------------------------------------------------

def test_code_conformance_baselines():
    rng = np.random.default_rng(3)
    check_code_conformance(identity_code(2, 4))
    check_code_conformance(repetition_code(2, 4, 4, dep2()), noise=dep2())
    dep3 = depolarizing(0.1, 3)
    check_code_conformance(repetition_code(3, 2, 2, dep3), noise=dep3)
    check_code_conformance(random_linear_code(2, 3, 3, dep2(), rng), noise=dep2())


def test_broken_code_rejected():
    code = identity_code(2, 2)
    code.encode = lambda v: (np.asarray(v) + 1) % 2  # affine, not linear
    with pytest.raises(ValueError):
        check_code_conformance(code)


def _zero_label_decisions(words, p, n1, r):
    """Exact ML of the even-r repetition code under depolarizing noise.

    Every non-identity pair label is equally likely and less likely than the
    identity, so each symbol goes to the value c with the most received
    pairs equal to (c, c), ties to the smallest c.
    """
    rec = words.reshape(len(words), n1, r // 2, 2)
    counts = np.stack([np.all(rec == c, axis=3).sum(axis=2) for c in range(p)], axis=2)
    return np.argmax(counts, axis=2)


@pytest.mark.parametrize("p,n1,r", [(2, 10, 6), (3, 4, 6), (2, 4, 4)])
def test_exhaustive_ml_tie_rule(p, n1, r):
    # float sums of log-likelihoods round differently per codeword; ties in
    # exact arithmetic must still go to the lexicographically smallest message
    noise = convolve(depolarizing(0.05, p), depolarizing(0.05, p))
    code = repetition_code(p, n1, r, noise)
    decode = _batch_ml_decoder(p, code.all_codewords(), code.all_messages(), noise)
    words = np.random.default_rng(11).integers(0, p, (2000, n1 * r))
    expect = _zero_label_decisions(words, p, n1, r)
    assert np.array_equal(decode(words), expect)
    assert np.array_equal(code.decode_batch(words), expect)


def test_exhaustive_ml_impossible_pairs():
    # dephasing-only noise: a word no codeword can produce is decoded by
    # the fewest impossible pairs, then by likelihood, then lexicographically
    noise = PauliDist([[0.7, 0.3], [0.0, 0.0]], 2)
    table = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
    decode = _batch_ml_decoder(2, table, np.array([[0], [1]]), noise)
    # x parts (0, 1): each codeword explains one pair; the z parts favour 1
    assert decode(np.array([0, 1, 1, 1])).tolist() == [1]
    # one impossible pair each and equal likelihoods: the smaller message
    assert decode(np.array([0, 0, 1, 1])).tolist() == [0]


@pytest.mark.parametrize("p,n1,r", [(2, 4, 4), (2, 6, 2), (3, 3, 4), (2, 4, 3),
                                    (3, 2, 3), (2, 6, 1)])
def test_repetition_decoder_is_exhaustive_ml(p, n1, r):
    # even r decodes per symbol; odd r pairs straddle two symbols; the
    # noises are depolarizing, asymmetric, and X-only with zero entries
    rng = np.random.default_rng(12)
    noises = [convolve(depolarizing(0.2, p), depolarizing(0.2, p)),
              PauliDist(np.r_[0.6, np.zeros(p * p - 1)] + 0.4 * rng.dirichlet(np.ones(p * p)), p),
              PauliDist(np.r_[0.6, np.zeros(p - 1), 0.4, np.zeros(p * p - p - 1)], p)]
    for noise in noises:
        code = repetition_code(p, n1, r, noise)
        check_code_conformance(code, rng, samples=300, noise=noise)


def test_decode_batch_reads_received_symbols_mod_p():
    # the repetition code's per-block decoder is the table-lookup ML decoder
    code = repetition_code(2, 2, 2, depolarizing(0.1, 2))
    for word in ([0, 2, 0, 0], [-1, 1, 0, 0], [2, 0, 0, 0]):
        words = np.array([word])
        assert np.array_equal(code.decode_batch(words), code.decode_batch(words % 2))
    # 3^8 received words times 9 codewords is above the table size, so
    # this decoder scores each word
    rng = np.random.default_rng(14)
    big = random_linear_code(3, 4, 2, depolarizing(0.1, 3), rng)
    words = rng.integers(-6, 9, (20, 8))
    assert np.array_equal(big.decode_batch(words), big.decode_batch(words % 3))


def test_conformance_rejects_decoder_not_reading_mod_p():
    code = identity_code(2, 2)
    code.decode_batch = lambda w: np.asarray(w)  # round-trips codewords only
    with pytest.raises(ValueError, match="mod p"):
        check_code_conformance(code)


@pytest.mark.parametrize("offset", [2, -2])
def test_conformance_rejects_decisions_outside_residues(offset):
    # decisions only congruent to the information word would count as block
    # errors in the protocol engine and be refused by f_S
    noise = dep2()
    for code in (identity_code(2, 2), repetition_code(2, 4, 4, noise)):
        decode = code.decode_batch
        code.decode_batch = lambda w, decode=decode: decode(w) + offset
        with pytest.raises(ValueError, match="residues"):
            check_code_conformance(code, noise=noise)


def test_conformance_rejects_codewords_outside_residues():
    # congruent codewords passed before, and exact_leakage then read the
    # word 3 * e_1 as row 6 of a 4-row table (IndexError)
    code = identity_code(2, 1)
    code.encode = lambda v: 3 * np.asarray(v)
    with pytest.raises(ValueError, match="encode must return residues"):
        check_code_conformance(code)


def test_conformance_rejects_non_ml_decoder():
    noise = dep2()
    code = repetition_code(2, 4, 4, noise)
    # reads only the first copy of each symbol: round-trips codewords, not ML
    code.decode_batch = lambda w: np.asarray(w)[..., ::4]
    with pytest.raises(ValueError, match="exhaustive ML"):
        check_code_conformance(code, noise=noise)


def test_repetition_code_beyond_enumeration_cap():
    code = repetition_code(2, 64, 6, dep2())
    info = np.random.default_rng(13).integers(0, 2, 64)
    assert np.array_equal(code.decode_batch(code.encode(info)), info)
    with pytest.raises(SizeCapError):
        code.all_messages()


def test_repetition_decodes_small_noise():
    code = repetition_code(2, 2, 4, dep2())
    word = code.encode(np.array([1, 0]))
    # flip one symbol: ML still recovers
    corrupted = word.copy()
    corrupted[0] ^= 1
    assert np.array_equal(code.decode_batch(corrupted), [1, 0])


def test_random_linear_codes_pinned():
    # the codeword tables of seeded random linear codes, as int64 bytes in
    # loop order: a change to how generators are drawn or accepted shows here
    h = hashlib.sha256()
    for p in (2, 3):
        for n, n1 in ((1, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 8)):
            for s in range(5):
                code = random_linear_code(p, n, n1, depolarizing(0.1, p), np.random.default_rng(s))
                h.update(code.all_codewords().astype(np.int64).tobytes())
    assert h.hexdigest() == "45b2da5fefd9e4e5197a722b7ecc8ffd59d49a8babafa23d53ef4088c1494381"


def test_random_linear_caps():
    with pytest.raises(SizeCapError):
        random_linear_code(2, 5, 3, dep2(), np.random.default_rng(0))


@pytest.mark.parametrize("build", [
    lambda: identity_code(2, 0),
    lambda: identity_code(2, -1),
    lambda: repetition_code(2, 4, 0, dep2()),
    lambda: repetition_code(2, 0, 2, dep2()),
    lambda: random_linear_code(2, 2, 5, dep2(), np.random.default_rng(0)),
    lambda: random_linear_code(2, 2, 0, dep2(), np.random.default_rng(0)),
    lambda: random_linear_code(2, 0, 0, dep2(), np.random.default_rng(0)),
])
def test_code_builders_refuse_parameters_that_give_no_code(build):
    # these built an n = -1 or 0-length code, or drew 200 generators that can
    # never have full rank before a RuntimeError
    with pytest.raises(ValueError, match="need"):
        build()


def test_noise_over_another_field_rejected():
    # a law over another field would be read with the wrong pair labels:
    # refused when the code (or the check) is built, not when decoding
    with pytest.raises(ValueError, match="F_3"):
        repetition_code(2, 2, 2, depolarizing(0.1, 3))
    with pytest.raises(ValueError, match="F_2"):
        repetition_code(3, 2, 2, depolarizing(0.1, 2))
    with pytest.raises(ValueError, match="F_3"):
        random_linear_code(2, 2, 2, depolarizing(0.1, 3), np.random.default_rng(0))
    with pytest.raises(ValueError, match="F_3"):
        _batch_ml_decoder(2, np.array([[0, 0], [1, 1]]), np.array([[0], [1]]),
                          depolarizing(0.1, 3))
    with pytest.raises(ValueError, match="F_3"):
        check_code_conformance(identity_code(2, 1), noise=depolarizing(0.1, 3))


def test_table_scores_each_pattern_once(monkeypatch):
    # rows of every call of the shared ML scorer
    rows = []
    real = wiretap._ml_scorer

    def scorer(*args):
        decide = real(*args)
        return lambda labels: rows.append(len(labels)) or decide(labels)

    monkeypatch.setattr(wiretap, "_ml_scorer", scorer)
    # the criterion-7 code: 3-pair blocks over p = 2, 4^3 patterns, 2 codewords
    code = repetition_code(2, 10, 6, dep2())
    assert rows == [64]
    words = np.random.default_rng(14).integers(0, 2, (500, 60))
    code.decode_batch(words)
    assert rows == [64]
    # above the size limit: nothing at construction, every call scores its words
    rng = np.random.default_rng(15)
    code = random_linear_code(3, 4, 8, depolarizing(0.1, 3), rng)
    assert 81**4 * 3**8 > wiretap._TABLE_MAX_WORK
    assert rows == [64]
    code.decode_batch(rng.integers(0, 3, (7, 8)))
    assert rows == [64, 7]


# ---------------------------------------------------------------
# wiretap encode/decode
# ---------------------------------------------------------------

def test_wiretap_round_trip_noiseless():
    rng = np.random.default_rng(4)
    p, n1, n2, n3 = 2, 4, 1, 1
    code = repetition_code(p, n1, 4, dep2())
    seed = SeedS(rng.integers(0, p, n1 - 1), n1, n2, n3, p)
    for _ in range(20):
        m = rng.integers(0, p, n2)
        y = rng.integers(0, p, n3)
        word = code.encode(psi_s(seed, m, y, rng.integers(0, p, n1 - n2 - n3)))
        y2, m2 = f_s_split(seed, code.decode_batch(word))
        assert np.array_equal(m2, m) and np.array_equal(y2, y)


def test_encode_preimage_uniformity():
    # enumerate L2 directly: the codewords hit the f_S-preimage of (Y, M)
    # inside the code exactly once each
    p, n1, n2, n3 = 2, 3, 1, 1
    # n1 = 3 needs 2n >= 3, so use a random linear code with n = 2
    code = random_linear_code(p, 2, n1, dep2(), np.random.default_rng(5))
    seed = SeedS([1, 0], n1, n2, n3, p)
    m, y = [1], [0]
    hits = set()
    for l2v in ([0], [1]):
        info = psi_s(seed, m, y, l2v)
        assert f_s(seed, info).tolist() == [0, 1]  # (Y || M)
        hits.add(tuple(code.encode(info).tolist()))
    assert len(hits) == 2  # one codeword per preimage element


def test_encode_marginal_uniform_over_code():
    # over uniform (M, Y, L2) the encoder output is uniform on the code:
    # full enumeration hits every codeword exactly once
    from itertools import product as iproduct

    p, n1, n2, n3 = 2, 3, 1, 1
    code = random_linear_code(p, 2, n1, dep2(), np.random.default_rng(7))
    for seed_vec in iproduct(range(p), repeat=n1 - 1):
        seed = SeedS(list(seed_vec), n1, n2, n3, p)
        hits = {}
        for mv in iproduct(range(p), repeat=n2):
            for yv in iproduct(range(p), repeat=n3):
                for l2v in iproduct(range(p), repeat=n1 - n2 - n3):
                    info = psi_s(seed, list(mv), list(yv), list(l2v))
                    w = tuple(code.encode(info).tolist())
                    hits[w] = hits.get(w, 0) + 1
        assert len(hits) == p**n1
        assert all(c == 1 for c in hits.values())


def test_cko_coupled_error_domination():
    # the wiretap code errs only when the ECC errs, per coupled noise stream
    rng = np.random.default_rng(6)
    p, n1, n2, n3 = 2, 4, 1, 1
    noise = convolve(depolarizing(0.2, p), depolarizing(0.2, p))
    for code in (repetition_code(p, n1, 4, noise),
                 identity_code(p, 2),
                 random_linear_code(p, 3, 4, noise, rng)):
        seed = SeedS(rng.integers(0, p, n1 - 1), n1, n2, n3, p)
        ch = ClassicalChannelWc(noise)
        ecc_err = 0
        wt_err = 0
        for _ in range(400):
            m = rng.integers(0, p, n2)
            y = rng.integers(0, p, n3)
            l2 = rng.integers(0, p, n1 - n2 - n3)
            info = psi_s(seed, m, y, l2)
            word = code.encode(info)
            rec = ch.sample_batch(word, rng)
            dec = code.decode_batch(rec)
            ecc_bad = not np.array_equal(dec, info)
            got = f_s(seed, dec)
            wt_bad = got.tolist() != np.concatenate([y, m]).tolist()
            ecc_err += ecc_bad
            wt_err += wt_bad
            assert not (wt_bad and not ecc_bad)
        assert wt_err <= ecc_err


def test_decode_single_flip_deterministic():
    # identity code at n = 2: a flipped symbol lands in f_S of the corrupted word
    p = 2
    code = identity_code(p, 2)
    seed = SeedS([1, 0, 1], 4, 1, 1, p)
    word = np.array([1, 0, 1, 1])
    corrupted = word.copy()
    corrupted[2] ^= 1
    y2, m2 = f_s_split(seed, code.decode_batch(corrupted))
    expect = f_s(seed, corrupted)
    assert np.array_equal(np.concatenate([y2, m2]), expect)


# ---------------------------------------------------------------
# exact leakage vs bound
# ---------------------------------------------------------------

def test_leakage_constant_eve_zero():
    code = identity_code(2, 1)
    assert exact_leakage(code, 1, 0, eve_constant(2, 1)) == 0.0


def test_leakage_noiseless_eve_no_sacrifice():
    # k = n1: Eve learns M' exactly, leakage = 2 (1 - 1/M')
    code = identity_code(2, 1)
    val = exact_leakage(code, 2, 0, eve_noiseless(2, 1))
    assert abs(val - 2 * (1 - 1 / 4)) < 1e-12


def test_leakage_noiseless_eve_one_sacrifice():
    # Eve still learns M' = f_S(l) exactly from the codeword
    code = identity_code(2, 1)
    val = exact_leakage(code, 1, 0, eve_noiseless(2, 1))
    assert abs(val - 2 * (1 - 1 / 2)) < 1e-12


def test_theorem_bound_structure():
    code = identity_code(2, 1)
    bound_noiseless = theorem1_bound(1, eve_noiseless(2, 1), code)
    assert bound_noiseless >= 1.0  # vacuous without sacrifice
    b1 = theorem1_bound(2, eve_constant(2, 1), code)
    b2 = theorem1_bound(4, eve_constant(2, 1), code)
    assert b2 < b1  # decays in the sacrifice size


def test_bound_dominates_exact_classical():
    code = identity_code(2, 1)
    for eve in (eve_noiseless(2, 1), eve_additive(depolarizing(0.3, 2), 1),
                eve_first_symbol(2, 1), eve_constant(2, 1)):
        exact = exact_leakage(code, 1, 0, eve)
        bound, curve = theorem1_bound(2, eve, code, return_curve=True)
        assert exact <= bound + 1e-12
        # the curve against Sibson's form evaluated t by t
        W = eve.states(code.all_codewords()).T
        for t, val in curve:
            info = sibson_mutual_info(np.full(4, 0.25), W, 1.0 + t)
            ref = min(2.0, 2.0 ** ((1 - t) / (1 + t) + t / (1 + t) * (info - 1.0)))
            assert abs(val - ref) <= 1e-14 * ref


def test_bound_dominates_exact_quantum_every_t():
    code = identity_code(2, 1)
    eve = QuantumEveChannel(depolarizing(0.25, 2), 1)
    exact = exact_leakage(code, 1, 0, eve)
    best, curve = theorem1_bound(2, eve, code, return_curve=True)
    assert exact <= best + 1e-12
    assert all(exact <= v + 1e-12 for _, v in curve)


def test_symmetric_eve_message_independent_leakage():
    # additive Eve channel: per-message leakage is the same for every m'
    code = identity_code(2, 1)
    eve = eve_additive(depolarizing(0.4, 2), 1)
    for seed_vec in ([0], [1]):
        vals = next(_seed_norms(code, 1, eve, [np.array(seed_vec)]))
        assert np.max(vals) - np.min(vals) < 1e-12


def test_leakage_d_matches_wiretap_enumeration():
    # Eve's conditional states tau_E|m of one fixed seed, built directly from
    # the f_S preimages: d_bar = sum_m p_m ||tau_E|m - tau_E||_1 must match
    # the wiretap enumeration and sit below the finite-length bound
    p, n2, n3 = 2, 1, 0
    code = identity_code(p, 1)
    eve = QuantumEveChannel(depolarizing(0.25, p), 1)
    seed = SeedS(np.array([1]), code.n1, n2, n3, p)
    infos = all_vectors(p, code.n1)
    states = quantum_eve_states(eve.P, eve.n, code.encode(infos))
    mvals = f_s(seed, infos)
    conds = []
    for m in range(2):
        members = [i for i in range(len(infos)) if mvals[i, 0] == m]
        conds.append(sum(states[i] for i in members) / len(members))
    tau_e = 0.5 * (conds[0] + conds[1])
    dbar = sum(0.5 * np.abs(np.linalg.eigvalsh(c - tau_e)).sum() for c in conds)
    per_seed = exact_leakage(code, n2, n3, eve, seeds=np.array([[1]]))
    assert abs(dbar - per_seed) < 1e-10
    bound = theorem1_bound(2, eve, code)
    assert dbar <= bound + 1e-9


def _unreduced_curve(l2_size, eve, code, t_grid):
    """theorem1_bound's curve from the |C|-state solver."""
    words = code.all_codewords()
    states = quantum_eve_states(eve.P, eve.n, words)
    weights = np.full(len(words), 1.0 / len(words))
    sigma = None
    curve = []
    for t in t_grid:
        f, sigma = qx._minimize_xi(states, weights, 1.0 + t, sigma0=sigma)
        info = np.log2(f) / t
        log2_val = (1.0 - t) / (1.0 + t) + (t / (1.0 + t)) * (-np.log2(l2_size) + info)
        curve.append(min(2.0, float(np.exp2(log2_val))))
    return curve


QUANTUM_BOUND_CASES = {
    # the three criterion-4 quantum instances, then a random linear code
    "identity-n1": lambda: (identity_code(2, 1), 1, 0, depolarizing(0.25, 2), 1),
    "repetition": lambda: (repetition_code(2, 2, 2, depolarizing(0.5, 2)), 1, 0,
                           depolarizing(0.1, 2), 2),
    "identity-n2": lambda: (identity_code(2, 2), 1, 1, depolarizing(0.3, 2), 2),
    "random-linear": lambda: (random_linear_code(2, 2, 3, depolarizing(0.2, 2),
                                                 np.random.default_rng(0)), 1, 1,
                              depolarizing(0.2, 2), 2),
}


def _assert_matches_unreduced(l2_size, eve, code):
    best, curve = theorem1_bound(l2_size, eve, code, return_curve=True)
    reference = _unreduced_curve(l2_size, eve, code, [t for t, _ in curve])
    assert len(curve) == 20
    for (_, got), ref in zip(curve, reference):
        assert abs(got - ref) <= 1e-9 * ref
    assert best == min(v for _, v in curve)
    return curve


@pytest.mark.parametrize("name", sorted(QUANTUM_BOUND_CASES))
def test_theorem_bound_closed_form_matches_unreduced(name):
    # the closed form H_beta(Q_C) against the |C|-state solver
    code, n2, n3, P, n = QUANTUM_BOUND_CASES[name]()
    _assert_matches_unreduced(2 ** (code.n1 - n2 - n3), QuantumEveChannel(P, n), code)


@pytest.mark.parametrize("kind", ["identity", "repetition"])
def test_theorem_bound_closed_form_matches_unreduced_p3(kind):
    # asymmetric P: pairing the syndrome by the dot product x.x' + z.z'
    # instead of the symplectic form moves H_beta(Q_C) of rep(3, 1, 2) by
    # up to 0.06 bit here, far outside the tolerance
    P = PauliDist(np.random.default_rng(5 if kind == "identity" else 6).dirichlet(np.ones(9)), 3)
    code = identity_code(3, 1) if kind == "identity" else repetition_code(3, 1, 2, P)
    curve = _assert_matches_unreduced(3 ** (code.n1 - 1), QuantumEveChannel(P, 1), code)
    assert all(v < 2.0 for _, v in curve)  # uncapped, so every t compares


P3 = PauliDist(np.random.default_rng(7).dirichlet(np.ones(9)), 3)
QUANTUM_LEAKAGE_CASES = {
    **QUANTUM_BOUND_CASES,
    # test_quantum_eve_at_p3's asymmetric P, and the CLI's p = 3 instance
    "identity-p3": lambda: (identity_code(3, 1), 1, 0, P3, 1),
    "identity-p3-depolarizing": lambda: (identity_code(3, 1), 1, 0, depolarizing(0.25, 3), 1),
    "repetition-p3": lambda: (repetition_code(3, 2, 1, P3), 1, 0, P3, 1),
}


@pytest.mark.parametrize("name", sorted(QUANTUM_LEAKAGE_CASES))
def test_syndrome_leakage_matches_dense_oracle(name):
    # the p^{n1}-dimensional syndrome-law spectra against the trace norms of
    # Eve's dense (p^3)^n states
    code, n2, n3, P, n = QUANTUM_LEAKAGE_CASES[name]()
    got = exact_leakage(code, n2, n3, QuantumEveChannel(P, n))
    assert abs(got - quantum_eve_leakage(code, n2, n3, P, n)) <= 1e-12


P3_RANDOM = PauliDist(np.random.default_rng(9).dirichlet(np.ones(9)), 3)
SYNDROME_MATRIX_CASES = {
    # shapes beyond the dense (p^3)^n oracle: (code, n2, n3, P)
    "identity-p2-n3": lambda: (identity_code(2, 3), 1, 0, depolarizing(0.1, 2)),
    "identity-p3-n2": lambda: (identity_code(3, 2), 1, 0, P3_RANDOM),
    "identity-p5-n1": lambda: (identity_code(5, 1), 1, 0, depolarizing(0.1, 5)),
    "repetition-n20": lambda: (repetition_code(2, 4, 10, depolarizing(0.5, 2)), 1, 0,
                               depolarizing(0.1, 2)),
    "random-linear-p3": lambda: (random_linear_code(3, 2, 3, P3_RANDOM, np.random.default_rng(2)),
                                 1, 1, P3_RANDOM),
    # n1 = n2 + n3: no L2, one coset holding all p^{n1} syndromes
    "identity-n1-equals-k": lambda: (identity_code(2, 2), 3, 1, depolarizing(0.3, 2)),
}


@pytest.mark.parametrize("name", sorted(SYNDROME_MATRIX_CASES))
def test_coset_leakage_matches_syndrome_matrices(name):
    # the coset blocks against the p^{n1} x p^{n1} matrices of every message
    code, n2, n3, P = SYNDROME_MATRIX_CASES[name]()
    eve, k = QuantumEveChannel(P, code.n), n2 + n3
    seeds = all_vectors(code.p, code.n1 - 1)
    reference = list(message_norms(code, k, eve, seeds))
    for norms, got in zip(reference, _seed_norms(code, k, eve, seeds)):
        assert len(norms) == code.p**k
        assert max(norms) - min(norms) <= 1e-12  # every message, one norm
        assert len(got) == 1 and abs(got[0] - norms[0]) <= 1e-12
    want = sum(sum(norms) / len(norms) for norms in reference) / len(reference)
    assert abs(exact_leakage(code, n2, n3, eve) - want) <= 1e-12


def test_quantum_eve_state_is_a_weyl_conjugate():
    # the dense oracle: states(c) = U_c states(0) U_c^dag with
    # U_c = (W(c_1) x I_E) x (W(c_2) x I_E), and state 0 is tau_AE^{x 2}
    code = repetition_code(2, 2, 2, depolarizing(0.5, 2))
    P = depolarizing(0.1, 2)
    words = code.all_codewords()
    states = quantum_eve_states(P, 2, words)
    assert states.shape == (len(words), 64, 64)
    tau = qx.partial_trace(qx.purify(P), [0, 2]).matrix
    base = quantum_eve_states(P, 2, np.zeros((1, 4), dtype=np.int64))[0]
    assert np.allclose(base, np.kron(tau, tau), atol=1e-14)
    for word, state in zip(words, states):
        u = np.kron(np.kron(qx.weyl(word[0], word[1], 2), np.eye(4)),
                    np.kron(qx.weyl(word[2], word[3], 2), np.eye(4)))
        assert np.allclose(u @ base @ u.conj().T, state, atol=1e-14)


def test_quantum_eve_at_p3():
    # p = 3, n = 1 is within the dimension cap: 27-dim states, one per word
    # state(c) = (W_c x I_E) tau_AE (W_c x I_E)^dag from the oracle's purification
    P = PauliDist(np.random.default_rng(7).dirichlet(np.ones(9)), 3)
    eve = QuantumEveChannel(P, 1)
    code = identity_code(3, 1)
    words = code.all_codewords()
    states = quantum_eve_states(P, 1, words)
    assert states.shape == (9, 27, 27)
    tau = qx.partial_trace(qx.purify(P), [0, 2]).matrix
    for word, state in zip(words, states):
        u = np.kron(qx.weyl(word[0], word[1], 3), np.eye(9))
        assert np.allclose(state, u @ tau @ u.conj().T, atol=1e-14)
    exact = exact_leakage(code, 1, 0, eve)
    assert 0.0 < exact <= theorem1_bound(3, eve, code) + 1e-12


def test_enumeration_cap():
    code = identity_code(2, 12)
    with pytest.raises(SizeCapError):
        exact_leakage(code, 1, 0, eve_noiseless(2, 12))


def test_quantum_eve_caps():
    # the dense oracle's (p^3)^n states exceed qexact.DIM_CAP = 256 here (512
    # and 729, and at p = 5 the 625-dim purification behind tau_AE), but the
    # coset blocks of the leakage are p^{n2+n3}-dimensional, so the exact
    # value exists and the Theorem-1 bound dominates it
    for p, n in ((2, 3), (3, 2), (5, 1)):
        eve = QuantumEveChannel(depolarizing(0.1, p), n)
        code = identity_code(p, n)
        bound = theorem1_bound(p, eve, code)
        assert 0.0 < bound <= 2.0
        assert 0.0 < exact_leakage(code, 1, 0, eve) <= bound + 1e-12
        with pytest.raises(SizeCapError):
            quantum_eve_states(eve.P, n, code.all_codewords()[:1])
    # p^{n1} = 1024 syndromes fall into 512 cosets of 2; the p^{n1} x p^{n1}
    # syndrome matrices were refused here
    eve, code = QuantumEveChannel(depolarizing(0.1, 2), 5), identity_code(2, 5)
    bound = theorem1_bound(2 ** (code.n1 - 1), eve, code)
    exact = exact_leakage(code, 1, 0, eve)
    assert abs(bound - 0.17991343453) < 1e-11
    assert abs(exact - 0.0250285927696) < 1e-12
    # 2^11 seeds x 2^12 words exceed the enumeration cap; the bound alone runs
    eve, code = QuantumEveChannel(depolarizing(0.1, 2), 6), identity_code(2, 6)
    assert 0.0 < theorem1_bound(2, eve, code) <= 2.0
    with pytest.raises(SizeCapError, match="enumeration of 8388608 states exceeds cap"):
        exact_leakage(code, 1, 0, eve)


def test_quantum_eve_coset_block_caps():
    # each coset block is a p^{n2+n3}-dimensional eigenproblem: k = 9 at
    # identity n = 5 enumerates (2^9 seeds x 2^10 words) but its 512-dim
    # blocks exceed qexact.DIM_CAP
    eve, code = QuantumEveChannel(depolarizing(0.1, 2), 5), identity_code(2, 5)
    with pytest.raises(SizeCapError, match="total dimension 512 exceeds oracle cap 256"):
        exact_leakage(code, 5, 4, eve)
    # one seed of identity n = 9 enumerates 2^18 words, but k = 3 stacks
    # 2^15 blocks of 8 x 8, 2^21 entries, over the 10^6 cap
    eve, code = QuantumEveChannel(depolarizing(0.1, 2), 9), identity_code(2, 9)
    with pytest.raises(SizeCapError, match="enumeration of 2097152 coset-block entries"):
        exact_leakage(code, 2, 1, eve, seeds=np.zeros((1, code.n1 - 1), dtype=np.int64))


def test_exact_leakage_refuses_an_empty_seed_set():
    # the average over no seeds divided by zero (ZeroDivisionError)
    code = identity_code(2, 1)
    for eve in (QuantumEveChannel(depolarizing(0.1, 2), 1), eve_noiseless(2, 1)):
        with pytest.raises(ValueError, match="seed set is empty"):
            exact_leakage(code, 1, 0, eve, seeds=np.empty((0, code.n1 - 1), dtype=np.int64))


def test_exact_leakage_reads_supplied_seeds_as_hash_seeds():
    # supplied seeds go through the hash-seed constructor: a float seed is
    # refused rather than truncated, and residues outside [0, p) are the
    # seeds they reduce to
    code, eve = identity_code(2, 2), eve_additive(depolarizing(0.1, 2), 2)
    one = exact_leakage(code, 1, 1, eve, seeds=np.array([[1, 0, 1]]))
    assert exact_leakage(code, 1, 1, eve, seeds=np.array([[3, -2, 1]])) == one
    for bad in (np.array([[0.5, 0, 1]]), np.array([[1, 0]])):
        with pytest.raises(ValueError):
            exact_leakage(code, 1, 1, eve, seeds=bad)


def test_additive_eve_for_fewer_pairs_is_refused():
    # her kernel looped over her own n pairs, so on a longer word she read
    # only its first pair: 0.39375 instead of the matched 0.81375
    code, noise = identity_code(2, 2), depolarizing(0.3, 2)
    assert abs(exact_leakage(code, 1, 1, eve_additive(noise, 2)) - 0.81375) < 1e-12
    eve = eve_additive(noise, 1)
    message = "Eve was built for p=2, n=1; the code has p=2, n=2"
    with pytest.raises(ValueError, match=message):
        exact_leakage(code, 1, 1, eve)
    with pytest.raises(ValueError, match=message):
        theorem1_bound(2, eve, code)


def test_quantum_eve_for_fewer_pairs_is_refused():
    # the syndrome law reads the code alone, so an Eve built for n = 1 got
    # the n = 2 value from both the exact leakage and the bound; a field
    # other than the code's is refused the same way
    code = identity_code(2, 2)
    for eve in (QuantumEveChannel(depolarizing(0.3, 2), 1),
                QuantumEveChannel(depolarizing(0.3, 3), 2)):
        message = f"Eve was built for p={eve.p}, n={eve.n}; the code has p=2, n=2"
        with pytest.raises(ValueError, match=message):
            exact_leakage(code, 1, 1, eve)
        with pytest.raises(ValueError, match=message):
            theorem1_bound(2, eve, code)


def test_eve_for_more_pairs_is_refused():
    # an Eve built for n = 2 on an n = 1 code indexed past the word
    # (a bare IndexError); now a ValueError names the mismatch
    code, noise = identity_code(2, 1), depolarizing(0.3, 2)
    message = "Eve was built for p=2, n=2; the code has p=2, n=1"
    for eve in (eve_additive(noise, 2), QuantumEveChannel(noise, 2)):
        with pytest.raises(ValueError, match=message):
            exact_leakage(code, 1, 0, eve)
        with pytest.raises(ValueError, match=message):
            theorem1_bound(2, eve, code)


def test_classical_eve_over_another_field_is_refused():
    # nothing compared a classical Eve's p with the code's: additive Eve over
    # F_2 on a p = 3 code gave a leakage of 0.622 and a bound of 1.80 at
    # L2 = 1, and noiseless Eve ended in an IndexError
    code, noise = identity_code(3, 1), depolarizing(0.1, 2)
    message = "Eve was built for p=2, n=1; the code has p=3, n=1"
    for eve in (eve_additive(noise, 1), eve_noiseless(2, 1), eve_constant(2, 1),
                eve_first_symbol(2, 1)):
        assert (eve.p, eve.n) == (2, 1)
        with pytest.raises(ValueError, match=message):
            exact_leakage(code, 1, 0, eve)
        with pytest.raises(ValueError, match=message):
            theorem1_bound(1, eve, code)


def test_classical_eve_channel_checks_its_rows():
    words = identity_code(2, 1).all_codewords()
    assert wiretap.ClassicalEveChannel(lambda w: np.full((len(w), 2), 0.5), 2, 2, 1).states(
        words).shape == (4, 2)
    bad_kernels = {
        "rows sum to 0.9": lambda w: np.full((len(w), 2), 0.45),
        "one row too few": lambda w: np.full((len(w) - 1, 2), 0.5),
        "one output too many": lambda w: np.full((len(w), 3), 1.0 / 3.0),
        "one law, not a row per word": lambda w: np.full(2, 0.5),
        "negative entry": lambda w: np.tile([1.5, -0.5], (len(w), 1)),
    }
    for name, kernel in bad_kernels.items():
        with pytest.raises(ValueError, match="invalid distribution"):
            wiretap.ClassicalEveChannel(kernel, 2, 2, 1).states(words)


def test_classical_eve_law_cap():
    # words x outputs above _ENUM_CAP is refused before the kernel runs
    cap = gf._ENUM_CAP
    words = identity_code(2, 1).all_codewords()

    def uniform(w):
        return np.full((len(w), cap // 4), 4.0 / cap)

    assert wiretap.ClassicalEveChannel(uniform, cap // 4, 2, 1).states(words).shape == (4, cap // 4)

    def never(w):
        raise AssertionError("kernel ran above the cap")

    with pytest.raises(SizeCapError):
        wiretap.ClassicalEveChannel(never, cap // 4 + 1, 2, 1).states(words)
    # noiseless Eve on a 4-word code at n = 14: 4 x 2^28 dense rows
    code = repetition_code(2, 2, 14, dep2())
    for eve in (eve_noiseless(2, 14), eve_additive(dep2(), 14)):
        with pytest.raises(SizeCapError):
            eve.states(code.all_codewords())
        with pytest.raises(SizeCapError):
            exact_leakage(code, 1, 0, eve)
        with pytest.raises(SizeCapError):
            theorem1_bound(2, eve, code)


def test_classical_eve_factories_batch_first():
    # every row is the law the factory's docstring describes, for each word
    p, n = 3, 2
    noise = PauliDist(np.random.default_rng(8).dirichlet(np.ones(9)), p)
    words = all_vectors(p, 2 * n)[::7]
    idx = words @ p ** np.arange(2 * n - 1, -1, -1)
    np.testing.assert_array_equal(eve_noiseless(p, n).states(words), np.eye(p ** (2 * n))[idx])
    np.testing.assert_array_equal(eve_first_symbol(p, n).states(words), np.eye(p)[words[:, 0]])
    np.testing.assert_array_equal(eve_constant(p, n).states(words), np.ones((len(words), 1)))
    additive = eve_additive(noise, n).states(words)
    for word, row in zip(words, additive):
        want = np.kron(np.roll(noise.probs, tuple(word[:2]), axis=(0, 1)).reshape(-1),
                       np.roll(noise.probs, tuple(word[2:]), axis=(0, 1)).reshape(-1))
        np.testing.assert_array_equal(row, want)


def test_generator_code_overflow_guard():
    # encode computes G @ v in int64: at p = 2^31 - 1 three products of
    # maximal residues already overflow, so the code is refused up front
    from pdckit.wiretap import _generator_code

    G = np.ones((4, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        _generator_code(G, 2**31 - 1, 2, dep2())
