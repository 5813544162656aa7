import itertools
import math

import numpy as np
import pytest

from pdckit.dists import PauliDist, convolve, depolarizing
from pdckit import gf, protocol
from pdckit.gf import FieldVec, SizeCapError
from pdckit.hashing import SeedSPrime
from pdckit.protocol import (AdversaryMode, ProtocolConfig, lnm_check,
                             monte_carlo, run_protocol1, run_protocol3,
                             verify, wilson_interval)
from pdckit.wiretap import identity_code, repetition_code


def noiseless_config(seed=0):
    p = 2
    delta = PauliDist.point_mass(0, 0, p)
    return ProtocolConfig(p=p, n=8, n1=4, n2=1, n3=2, P=delta, P_tilde=delta,
                          code=repetition_code(p, 4, 4, delta),
                          master_seed=seed)


def dep_config(seed=0, mix=0.05):
    p = 2
    d = depolarizing(mix, p)
    eff = convolve(d, d)
    return ProtocolConfig(p=p, n=8, n1=4, n2=1, n3=2, P=d, P_tilde=d,
                          code=repetition_code(p, 4, 4, eff), master_seed=seed)


# ---------------------------------------------------------------
# single runs
# ---------------------------------------------------------------

def test_noiseless_always_accepts():
    for seed in range(20):
        cfg = noiseless_config(seed)
        m = FieldVec([seed % 2], 2)
        tr = run_protocol1(cfg, m)
        assert tr.verdict == "accept"
        assert tr.m_hat == m.tolist()


def test_intercept_aborts_and_reports_bound():
    cfg = dep_config(3)
    tr = run_protocol1(cfg, FieldVec([1], 2), AdversaryMode.intercept())
    assert tr.verdict == "abort"
    assert tr.x_hat is None
    stats = monte_carlo(cfg, 10, AdversaryMode.intercept())
    assert stats["abort_rate"] == 1.0
    assert stats["eps_E_bound"] is not None


def test_monte_carlo_returns_one_key_set_in_every_mode():
    modes = [AdversaryMode.none(), AdversaryMode.intercept(), AdversaryMode.tamper(),
             AdversaryMode.tamper(lambda x, rng: x)]
    stats = [monte_carlo(dep_config(5), 20, mode) for mode in modes]
    assert all(s.keys() == stats[0].keys() for s in stats)
    assert stats[1]["wrong_trials"] == 0


def test_transcript_determinism():
    m = FieldVec([1], 2)
    a = run_protocol1(dep_config(17), m).to_json()
    b = run_protocol1(dep_config(17), m).to_json()
    assert a == b
    c = run_protocol1(dep_config(18), m).to_json()
    assert a != c


def test_public_communication_ordering():
    tr = run_protocol1(dep_config(5), FieldVec([0], 2))
    ack = tr.events.index("reception_ack")
    pub = next(i for i, e in enumerate(tr.events) if e.startswith("public"))
    assert pub > ack
    tr3 = run_protocol3(dep_config(5), FieldVec([0], 2))
    ack = tr3.events.index("reception_ack")
    pub = next(i for i, e in enumerate(tr3.events) if e.startswith("public"))
    assert pub > ack


def test_accept_implies_hash_match():
    cfg = dep_config(23)
    sp = None
    for seed in range(30):
        cfg = dep_config(seed)
        tr = run_protocol1(cfg, FieldVec([1], 2))
        if tr.verdict == "accept":
            sp = SeedSPrime(tr.s_prime, cfg.n2, cfg.n3, 2)
            assert verify(sp, tr.m_hat, tr.y_hat, tr.c)


# ---------------------------------------------------------------
# masked/unmasked coupling
# ---------------------------------------------------------------

def test_protocol_coupling():
    rng = np.random.default_rng(0)
    for trial in range(200):
        cfg = dep_config(int(rng.integers(0, 2**31)), mix=0.1)
        m = FieldVec(rng.integers(0, 2, 1), 2)
        t1 = run_protocol1(cfg, m)
        t3 = run_protocol3(cfg, m)
        assert t1.verdict == t3.verdict
        assert t1.m_hat == t3.m_hat
        assert t1.x_hat == t3.x_hat  # the pad cancels exactly


def test_mask_uniformizes_transmission():
    # transmitted word (x + x_bar) is uniform regardless of the message
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    trials = 4000
    for i in range(trials):
        cfg = dep_config(i, mix=0.0)
        tr = run_protocol3(cfg, FieldVec([1], 2))
        sent = (np.array(tr.x) + np.array(tr.x_bar)) % 2
        counts[2 * sent[0] + sent[1]] += 1
    freqs = counts / trials
    # chi-square against uniform on the first pair
    chi2 = trials * np.sum((freqs - 0.25) ** 2 / 0.25)
    assert chi2 < 16.27  # 99.9% quantile of chi2(3)


# ---------------------------------------------------------------
# verification
# ---------------------------------------------------------------

def test_verify_exhaustive_tightness():
    p = 2
    n2 = n3 = 1
    for m in range(p):
        for mh in range(p):
            if m == mh:
                continue
            for y in range(p):
                for yh in range(p):
                    accepts = 0
                    for s in range(p ** (n2 + n3 - 1)):
                        sp = SeedSPrime([s], n2, n3, p)
                        c = [(y + s * m) % p]
                        accepts += verify(sp, [mh], [yh], c)
                    assert accepts == p ** (n2 + n3 - 1 - n3) * 1  # = 1 of 2


def test_monte_carlo_tamper_bounded_by_verification():
    p = 2
    delta = PauliDist.point_mass(0, 0, p)
    # identity code at n = 8 gives n1 = 16, room for n2 = 1, n3 = 10
    cfg = ProtocolConfig(p=p, n=8, n1=16, n2=1, n3=10, P=delta, P_tilde=delta,
                         code=identity_code(p, 8), master_seed=0)
    stats = monte_carlo(cfg, 10**5, AdversaryMode.tamper())
    q = 2.0**-10
    sigma = np.sqrt(q * (1 - q) / stats["wrong_trials"])
    assert stats["undetected_error_rate"] <= q + 3 * sigma


def test_monte_carlo_noiseless():
    stats = monte_carlo(noiseless_config(4), 500)
    assert stats["abort_rate"] == 0.0
    assert stats["accepted_and_correct_rate"] == 1.0


def test_monte_carlo_abort_below_block_error():
    stats = monte_carlo(dep_config(9), 10**4)
    assert stats["abort_rate"] <= stats["ecc_block_error_rate"] + 1e-12


@pytest.mark.parametrize("n1,trials", [(64, 2000), (1000, 1000)])
def test_monte_carlo_long_repetition_code(n1, trials):
    # p^n1 codewords, far past the enumeration cap, decoded per symbol;
    # n1 = 1000 is n = 3000, with fewer trials to stay well under a second
    p, r = 2, 6
    d = depolarizing(0.05, p)
    eff = convolve(d, d)
    # exact symbol error: under depolarizing noise ML picks the value with
    # the most identity-labelled pairs among the symbol's r/2, ties to 0
    q = eff.flat()
    e_sym = 0.0
    for s in range(p):
        for labels in itertools.product(range(p * p), repeat=r // 2):
            pairs = [((s + lab // p) % p, (s + lab % p) % p) for lab in labels]
            counts = [sum(pair == (c, c) for pair in pairs) for c in range(p)]
            if int(np.argmax(counts)) != s:
                e_sym += math.prod(q[lab] for lab in labels) / p
    exact = 1.0 - (1.0 - e_sym) ** n1
    cfg = ProtocolConfig(p=p, n=r * n1 // 2, n1=n1, n2=8, n3=8, P=d, P_tilde=d,
                         code=repetition_code(p, n1, r, eff), master_seed=5)
    stats = monte_carlo(cfg, trials)
    errors = round(stats["ecc_block_error_rate"] * trials)
    lo, hi = wilson_interval(errors, trials)
    assert lo <= exact <= hi
    assert stats["abort_rate"] <= stats["ecc_block_error_rate"] + 1e-12


def test_monte_carlo_transforms_each_seed_once(monkeypatch):
    # the mc_hash benchmark shape: all four Toeplitz products take the FFT
    # path; per row chunk, S serves psi_S and f_S and S' both g_S' calls,
    # each transformed once
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _n=name, _f=fn, **k:
                            calls.__setitem__(_n, calls[_n] + 1) or _f(*a, **k))
    d = depolarizing(1e-3, 2)
    config = ProtocolConfig(p=2, n=256, n1=512, n2=128, n3=64, P=d, P_tilde=d,
                            code=identity_code(2, 256), master_seed=21)
    rows = protocol._CHUNK_BYTES // (16 * config.n)
    assert 250 > rows and 250 % rows  # several chunks, the last one ragged
    for trials, chunks in ((250, math.ceil(250 / rows)), (rows - 1, 1)):
        calls.update(rfft=0, irfft=0)
        stats = monte_carlo(config, trials)
        assert calls == {"rfft": 6 * chunks, "irfft": 4 * chunks}
        assert stats["trials"] == trials


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0


# ---------------------------------------------------------------
# verification variables leak nothing extra
# ---------------------------------------------------------------

def test_lnm_independent():
    kernel = np.full((1, 4), 1.0)
    left, right = lnm_check(2, 1, 1, kernel)
    assert left < 1e-9 and right < 1e-9


def test_lnm_exact_copy():
    left, right = lnm_check(2, 1, 1, np.eye(4))
    assert left <= right + 1e-9
    assert right > 1.0  # Eve holding M' exactly is maximally revealing


def test_lnm_noisy_copy():
    rng = np.random.default_rng(2)
    kernel = 0.7 * np.eye(4) + 0.3 * rng.dirichlet(np.ones(4), size=4).T
    kernel /= kernel.sum(axis=0, keepdims=True)
    left, right = lnm_check(2, 1, 1, kernel)
    assert left <= right + 1e-9


@pytest.mark.parametrize("p,n2,n3,outputs", [(2, 2, 2, 64), (3, 1, 2, 27)])
def test_lnm_past_one_symbol(p, n2, n3, outputs):
    # at (2, 2, 2) with 64 outputs a dense LP over the joint needs a 1.3 GB matrix
    rng = np.random.default_rng(4)
    words = p ** (n2 + n3)
    kernel = 0.6 * np.eye(outputs, words) + 0.4 * rng.dirichlet(np.ones(outputs), size=words).T
    kernel /= kernel.sum(axis=0)
    left, right = lnm_check(p, n2, n3, kernel)
    assert left <= right + 1e-12


def test_lnm_refuses_a_joint_above_the_enumeration_cap():
    # at p = 2, n2 = n3 = 1 the joint holds 2 seeds x 4 (Y, M) x E cells
    outputs = gf._ENUM_CAP // 8 + 1
    kernel = np.full((outputs, 4), 1.0 / outputs)
    with pytest.raises(SizeCapError, match="verification joint"):
        lnm_check(2, 1, 1, kernel)


@pytest.mark.parametrize("kernel", [
    2 * np.eye(4),
    -np.eye(4),
    np.vstack([1.5 * np.eye(4), -0.5 * np.eye(4)]),
    np.full(4, 0.25),
    np.full((4, 4), np.nan),
    np.where(np.eye(4) > 0, np.inf, 0.0),
    (1 + 1e-8) * np.eye(4),
], ids=["mass-2", "negative", "negative-summing-to-1", "1-D", "nan", "inf", "sum-off-by-1e-8"])
def test_lnm_rejects_a_kernel_that_is_not_a_channel(kernel):
    with pytest.raises(ValueError):
        lnm_check(2, 1, 1, kernel)


# ---------------------------------------------------------------
# config validation
# ---------------------------------------------------------------

def test_config_validation():
    p = 2
    d = depolarizing(0.05, p)
    eff = convolve(d, d)
    with pytest.raises(ValueError):
        ProtocolConfig(p=p, n=1, n1=4, n2=1, n3=2, P=d, P_tilde=d,
                       code=repetition_code(p, 4, 4, eff))
    with pytest.raises(ValueError):
        ProtocolConfig(p=p, n=8, n1=4, n2=2, n3=2, P=d, P_tilde=d,
                       code=repetition_code(p, 4, 4, eff))


def test_message_validation():
    cfg = dep_config(1)
    with pytest.raises(ValueError):
        run_protocol1(cfg, FieldVec([1], 3))  # modulus differs from the config's
    with pytest.raises(ValueError):
        run_protocol3(cfg, FieldVec([1, 0], 2))  # n2 = 1


def test_substitution_rule_needs_the_tamper_kind():
    # a rule given with another kind used to be dropped: "none" ran no adversary
    def rule(x_hat, rng):
        return np.zeros_like(x_hat)

    for kind in ("none", "intercept"):
        with pytest.raises(ValueError, match="tamper"):
            AdversaryMode(kind, rule)
    assert AdversaryMode("tamper", rule).tamper_fn is rule
    assert AdversaryMode.tamper(rule) == AdversaryMode("tamper", rule)


def test_verify_rowwise_batch():
    p, n2, n3 = 3, 2, 2
    rng = np.random.default_rng(4)
    sp = SeedSPrime(rng.integers(0, p, (5, n2 + n3 - 1)), n2, n3, p)
    m = rng.integers(0, p, (5, n2))
    y = rng.integers(0, p, (5, n3))
    c = (y + np.stack([[sum(int(sp.vec[r, i - j + n2 - 1]) * int(m[r, j]) for j in range(n2))
                        for i in range(n3)] for r in range(5)])) % p
    assert verify(sp, m, y, c).tolist() == [True] * 5
    c[2, 0] = (c[2, 0] + 1) % p
    assert verify(sp, m, y, c).tolist() == [True, True, False, True, True]
