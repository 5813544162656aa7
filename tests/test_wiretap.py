import numpy as np
import pytest

from pdckit import qexact as qx
from pdckit.dists import PauliDist, convolve, depolarizing
from pdckit.gf import all_vectors
from pdckit.hashing import SeedS, f_s, f_s_split, psi_s
from pdckit.qexact import SizeCapError
from pdckit.wiretap import (ClassicalChannelWc, QuantumEveChannel,
                            _batch_ml_decoder, _message_norms,
                            check_code_conformance, eve_additive, eve_constant,
                            eve_first_symbol, eve_noiseless, exact_leakage,
                            identity_code, random_linear_code, repetition_code,
                            theorem1_bound)


def dep2():
    return convolve(depolarizing(0.05, 2), depolarizing(0.05, 2))


# ---------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------

def test_channel_noiseless():
    rng = np.random.default_rng(0)
    ch = ClassicalChannelWc(PauliDist.point_mass(0, 0, 2))
    w = rng.integers(0, 2, 16)
    assert np.array_equal(ch.sample(w, rng), w)


def test_channel_uniform_noise():
    rng = np.random.default_rng(1)
    ch = ClassicalChannelWc(PauliDist.uniform(2))
    w = np.ones(8, dtype=np.int64)
    outs = ch.sample_batch(np.tile(w, (4000, 1)), rng)
    pairs = outs[:, 0::2] * 2 + outs[:, 1::2]
    freqs = np.bincount(pairs.reshape(-1), minlength=4) / pairs.size
    assert np.max(np.abs(freqs - 0.25)) < 0.02


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
    decode = _batch_ml_decoder(code.all_codewords(), code.all_messages(), noise)
    words = np.random.default_rng(11).integers(0, p, (2000, n1 * r))
    expect = _zero_label_decisions(words, p, n1, r)
    assert np.array_equal(decode(words), expect)
    assert np.array_equal(code.decode_batch(words), expect)


def test_exhaustive_ml_impossible_pairs():
    # dephasing-only noise: a word no codeword can produce is decoded by
    # the fewest impossible pairs, then by likelihood, then lexicographically
    noise = PauliDist([[0.7, 0.3], [0.0, 0.0]], 2)
    table = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
    decode = _batch_ml_decoder(table, np.array([[0], [1]]), noise)
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


def test_random_linear_caps():
    with pytest.raises(SizeCapError):
        random_linear_code(2, 5, 3, dep2(), np.random.default_rng(0))


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
            rec = ch.sample(word, rng)
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
        bound = theorem1_bound(2, eve, code)
        assert exact <= bound + 1e-12


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
        vals = next(_message_norms(code, 1, eve, [np.array(seed_vec)]))
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
    states = [eve.state(code.encode(v)) for v in infos]
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
    states = np.stack([eve.state(w) for w in words])
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
def test_theorem_bound_group_reduction_matches_unreduced(name):
    # the closed form H_beta(Q_C) against the |C|-state solver
    code, n2, n3, P, n = QUANTUM_BOUND_CASES[name]()
    _assert_matches_unreduced(2 ** (code.n1 - n2 - n3), QuantumEveChannel(P, n), code)


class _QutritEve:
    """Quantum Eve at p = 3, n = 1, which QuantumEveChannel refuses.

    Built from the oracle's purification directly: Eve's state for codeword
    c is (W_c x I_E) tau_AE (W_c x I_E)^dag.
    """

    is_quantum = True

    def __init__(self, P):
        self.P = P
        self._tau = qx.partial_trace(qx.purify(P).density(), [0, 2]).matrix

    def state(self, word):
        u = np.kron(qx.weyl(int(word[0]), int(word[1]), 3), np.eye(9))
        return u @ self._tau @ u.conj().T


@pytest.mark.parametrize("kind", ["identity", "repetition"])
def test_theorem_bound_closed_form_matches_unreduced_p3(kind):
    # asymmetric P: pairing the syndrome by the dot product x.x' + z.z'
    # instead of the symplectic form moves H_beta(Q_C) of rep(3, 1, 2) by
    # up to 0.06 bit here, far outside the tolerance
    P = PauliDist(np.random.default_rng(5 if kind == "identity" else 6).dirichlet(np.ones(9)), 3)
    code = identity_code(3, 1) if kind == "identity" else repetition_code(3, 1, 2, P)
    curve = _assert_matches_unreduced(3 ** (code.n1 - 1), _QutritEve(P), code)
    assert all(v < 2.0 for _, v in curve)  # uncapped, so every t compares


def test_quantum_eve_weyl_group():
    code = repetition_code(2, 2, 2, depolarizing(0.5, 2))
    eve = QuantumEveChannel(depolarizing(0.1, 2), 2)
    words = code.all_codewords()
    perm, phase = eve.weyl_group(words)
    base = eve.state(np.zeros(4, dtype=np.int64))
    for word, pm, ph in zip(words, perm, phase):
        conj = ph[:, None] * base[np.ix_(pm, pm)] * ph.conj()[None, :]
        assert np.allclose(conj, eve.state(word), atol=1e-14)


def test_enumeration_cap():
    code = identity_code(2, 12)
    with pytest.raises(SizeCapError):
        exact_leakage(code, 1, 0, eve_noiseless(2, 12))


def test_quantum_eve_caps():
    with pytest.raises(ValueError):
        QuantumEveChannel(depolarizing(0.1, 3), 1)
    with pytest.raises(ValueError):
        QuantumEveChannel(depolarizing(0.1, 2), 3)


def test_generator_code_overflow_guard():
    # encode computes G @ v in int64: at p = 2^31 - 1 three products of
    # maximal residues already overflow, so the code is refused up front
    from pdckit.wiretap import _generator_code

    G = np.ones((4, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        _generator_code(G, 2**31 - 1, 2, dep2())
