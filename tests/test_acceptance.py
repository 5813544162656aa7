"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime limit is pinned here.
"""

import math
import time
from itertools import product

import numpy as np
from scipy.stats import linregress

from pdckit import qexact as qx
from pdckit.bounds import SecurityTargets, asymptotic_rates, finite_length_report
from pdckit.dists import PauliDist, convolve, depolarizing, marginal, shannon
from pdckit.estimation import (char_table_from_marginals,
                               estimate, reconstruct, settings,
                               twirled_statistics_check)
from pdckit.gf import FieldVec, toeplitz_apply_batch
from pdckit.hashing import SeedS, f_s
from pdckit.identities import (bell_diagonality_residual, check_identities,
                               random_pauli_dist, side_swap_residual)
from pdckit.protocol import (ProtocolConfig, lnm_check, monte_carlo,
                             run_protocol1, run_protocol3)
from pdckit.wiretap import (QuantumEveChannel, eve_additive, eve_constant,
                            eve_first_symbol, eve_noiseless, exact_leakage,
                            identity_code, random_linear_code, repetition_code,
                            theorem1_bound)


def report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} - {detail} "
          f"[{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded runtime: {elapsed:.2f}s"


def test_criterion_1_asymptotic_rate_curve():
    t0 = time.perf_counter()
    mixes = np.linspace(0.0, 0.25, 100)
    rates = []
    for mix in mixes:
        P = depolarizing(float(mix), 2)
        rates.append(2.0 - shannon(P.flat()) - shannon(convolve(P, P).flat()))
    crossings = [mixes[i] for i in range(len(mixes) - 1)
                 if rates[i] > 0 >= rates[i + 1]]
    ok = (len(crossings) == 1 and 0.17 <= crossings[0] <= 0.19
          and abs(rates[0] - 2.0) < 1e-12)
    elapsed = time.perf_counter() - t0
    report(1, "rate curve zero crossing", ok,
           f"crossing at mix = {crossings[0]:.4f}" if crossings else "no crossing",
           elapsed, 1.0)


def test_criterion_2_finite_length_rates():
    t0 = time.perf_counter()
    P = depolarizing(0.05, 2)
    targets = SecurityTargets(0.2, 1e-9, 1e-9)
    grid = [10**3, 10**4, 10**5, 10**6]
    reports = [finite_length_report(targets, n, P, P) for n in grid]
    rs = [r.R for r in reports]
    r_star = asymptotic_rates(P, P).R_star
    monotone = all(rs[i] <= rs[i + 1] + 1e-12 for i in range(len(rs) - 1))
    close = abs(rs[-1] - r_star) <= 0.05
    ok = monotone and close
    elapsed = time.perf_counter() - t0
    report(2, "finite-length rates", ok,
           f"R(1e6) = {rs[-1]:.4f} vs R* = {r_star:.4f} "
           f"(gap {abs(rs[-1] - r_star):.4f}), grid R = "
           + "/".join(f"{r:.3f}" for r in rs), elapsed, 30.0)


def test_criterion_3_identity_suite():
    t0 = time.perf_counter()
    ts = np.arange(1, 10) / 10.0
    worst = {"eq": 0.0, "slack": np.inf, "model": 0.0}
    ok = True
    for p in (2, 3):
        rng = np.random.default_rng(100 + p)
        for _ in range(20):
            P = random_pauli_dist(p, rng)
            Pt = random_pauli_dist(p, rng)
            res = check_identities(P, Pt, ts=ts)
            # the model identities: Bob receives the Bell-diagonal state of
            # Ptilde * P, and the forward channel moves to Bob's side
            model = max(bell_diagonality_residual(P, Pt),
                        side_swap_residual(P, Pt))
            ok = ok and res.within(1e-8) and model < 1e-8
            worst["eq"] = max(worst["eq"], res.shannon_ab, res.shannon_ae,
                              res.petz_down_ab, res.lemma_petz_mi,
                              res.lemma_sandwich_mi)
            worst["slack"] = min(worst["slack"], res.sandwich_ae_min_slack)
            worst["model"] = max(worst["model"], model)
    elapsed = time.perf_counter() - t0
    report(3, "entropy identities", ok,
           f"worst equality residual {worst['eq']:.2e}, "
           f"worst inequality slack {worst['slack']:.2e}, "
           f"worst model-identity residual {worst['model']:.2e}", elapsed, 60.0)


def test_criterion_4_leakage_bound_domination():
    t0 = time.perf_counter()
    p = 2
    code_n1 = identity_code(p, 1)
    rep2 = repetition_code(p, 2, 2, depolarizing(0.5, p))
    rl = random_linear_code(p, 2, 3, depolarizing(0.2, p),
                            np.random.default_rng(0))
    id2 = identity_code(p, 2)
    instances = [
        ("classical noiseless", code_n1, 1, 0, eve_noiseless(p, 1)),
        ("classical additive 0.3", code_n1, 1, 0,
         eve_additive(depolarizing(0.3, p), 1)),
        ("classical constant", code_n1, 1, 0, eve_constant(p, 1)),
        ("classical first-symbol", code_n1, 1, 0, eve_first_symbol(p, 1)),
        ("classical additive 0.1", code_n1, 1, 0,
         eve_additive(depolarizing(0.1, p), 1)),
        ("classical no-sacrifice", code_n1, 2, 0, eve_noiseless(p, 1)),
        ("classical repetition", rep2, 1, 0,
         eve_additive(depolarizing(0.5, p), 2)),
        ("classical random-linear", rl, 1, 1,
         eve_additive(depolarizing(0.2, p), 2)),
        ("quantum n=1 dep 0.25", code_n1, 1, 0,
         QuantumEveChannel(depolarizing(0.25, p), 1)),
        ("quantum repetition dep 0.1", rep2, 1, 0,
         QuantumEveChannel(depolarizing(0.1, p), 2)),
        ("quantum n=2 identity dep 0.3", id2, 1, 1,
         QuantumEveChannel(depolarizing(0.3, p), 2)),
    ]
    ok = True
    strict = 0
    details = []
    for name, code, n2, n3, eve in instances:
        exact = exact_leakage(code, n2, n3, eve)
        bound = theorem1_bound(p ** (code.n1 - n2 - n3), eve, code)
        dominated = exact <= bound + 1e-12
        ok = ok and dominated
        if exact < bound - 1e-9:
            strict += 1
        details.append(f"{name}: {exact:.4f} <= {bound:.4f}")
    ok = ok and strict >= 1 and len(instances) >= 10
    # public verification variables: d(M; E' S' C) <= d(M'; E') for Eve
    # independent of M', holding M' exactly, and two noisy copies of it
    rng = np.random.default_rng(2)
    noisy2 = 0.7 * np.eye(4) + 0.3 * rng.dirichlet(np.ones(4), size=4).T
    rng = np.random.default_rng(3)
    noisy3 = 0.6 * np.eye(9) + 0.4 * rng.dirichlet(np.ones(9), size=9).T
    kernels = [(2, np.full((1, 4), 1.0)), (2, np.eye(4)),
               (2, noisy2 / noisy2.sum(axis=0)), (3, noisy3 / noisy3.sum(axis=0))]
    for kp, kernel in kernels:
        left, right = lnm_check(kp, 1, 1, kernel)
        ok = ok and left <= right + 1e-9
    elapsed = time.perf_counter() - t0
    report(4, "leakage bound domination", ok,
           f"{len(instances)} instances, strict in {strict}, "
           f"{len(kernels)} verification-variable kernels; "
           + "; ".join(details[:3]) + " ...", elapsed, 120.0)


def test_criterion_5_error_verification_exactness():
    t0 = time.perf_counter()
    p = 2
    ok = True
    # exhaustive tightness: every (m != m', y, y', s') tuple accepts on
    # exactly a p^{-n3} fraction of seeds
    for n2, n3 in product((1, 2), (1, 2)):
        n_seed = p ** (n2 + n3 - 1)
        sup_prob = 0.0
        for mv in product(range(p), repeat=n2):
            for mhv in product(range(p), repeat=n2):
                if mv == mhv:
                    continue
                worst_pair = 0.0
                for yv in product(range(p), repeat=n3):
                    for yhv in product(range(p), repeat=n3):
                        hits = 0
                        for sidx in range(n_seed):
                            sv = [(sidx >> j) & 1 for j in range(n2 + n3 - 1)]
                            c = (np.array(yv) + toeplitz_apply_batch(sv, mv, n3, n2, p)) % p
                            ch = (np.array(yhv) + toeplitz_apply_batch(sv, mhv, n3, n2, p)) % p
                            hits += int(np.array_equal(c, ch))
                        frac = hits / n_seed
                        ok = ok and (abs(frac - p**-n3) < 1e-15)
                        worst_pair = max(worst_pair, frac)
                sup_prob = max(sup_prob, worst_pair)
        ok = ok and abs(sup_prob - p**-n3) < 1e-15
    # Monte Carlo at n3 = 10: forced-wrong message, random seeds and covers
    rng = np.random.default_rng(55)
    n2, n3, trials = 1, 10, 10**5
    seeds = rng.integers(0, p, (trials, n2 + n3 - 1))
    ys = rng.integers(0, p, (trials, n3))
    yhs = rng.integers(0, p, (trials, n3))
    m = np.zeros((trials, n2), dtype=np.int64)
    mh = np.ones((trials, n2), dtype=np.int64)
    c = (ys + toeplitz_apply_batch(seeds, m, n3, n2, p)) % p
    ch = (yhs + toeplitz_apply_batch(seeds, mh, n3, n2, p)) % p
    acc = np.mean(np.all(c == ch, axis=1))
    q = 2.0**-10
    sigma = math.sqrt(q * (1 - q) / trials)
    mc_ok = abs(acc - q) <= 3 * sigma
    ok = ok and mc_ok
    elapsed = time.perf_counter() - t0
    report(5, "error verification exactness", ok,
           f"sup accept prob exact at p^-n3; MC rate {acc:.2e} "
           f"vs 2^-10 = {q:.2e} (3 sigma = {3 * sigma:.2e})", elapsed, 30.0)


def test_criterion_6_estimation():
    t0 = time.perf_counter()
    # exact inversion on 100 random distributions per prime
    rng = np.random.default_rng(66)
    worst = 0.0
    for p in (2, 3, 5):
        for _ in range(100):
            P = PauliDist(rng.dirichlet(np.ones(p * p)), p)
            margs = {s: marginal(P, s.l, s.k) for s in settings(p)}
            raw = reconstruct(char_table_from_marginals(margs, p), p)
            worst = max(worst, float(np.max(np.abs(raw - P.probs))))
    inversion_ok = worst < 1e-12
    # shot-noise scaling of the TV error
    P = depolarizing(0.05, 2)
    shots_grid = [1000, 4000, 16000, 64000]
    medians = []
    for s in shots_grid:
        tvs = [estimate(P, s, rng).tv_to_truth for _ in range(80)]
        medians.append(float(np.median(tvs)))
    slope = float(linregress(np.log(shots_grid), np.log(medians)).slope)
    slope_ok = -0.6 <= slope <= -0.4
    # twirled-statistics equality on random non-Bell-diagonal states
    tw_worst = 0.0
    for i in range(10):
        p = 2 if i % 2 == 0 else 3
        a = rng.normal(size=(p * p, p * p)) + 1j * rng.normal(size=(p * p, p * p))
        m = a @ a.conj().T
        rho = qx.DensityMatrix(m / np.trace(m).real, [p, p])
        for s in settings(p):
            direct, twirled = twirled_statistics_check(rho, s)
            tw_worst = max(tw_worst, float(np.max(np.abs(direct.probs
                                                         - twirled.probs))))
    twirl_ok = tw_worst < 1e-10
    ok = inversion_ok and slope_ok and twirl_ok
    elapsed = time.perf_counter() - t0
    report(6, "estimation", ok,
           f"inversion error {worst:.2e}; TV slope {slope:.3f}; "
           f"twirl deviation {tw_worst:.2e}", elapsed, 60.0)


def test_criterion_7_protocol_coupling_and_completeness():
    t0 = time.perf_counter()
    p = 2
    d = depolarizing(0.05, p)
    eff = convolve(d, d)
    # coupled masked/unmasked equivalence over 1000 trials
    rng = np.random.default_rng(77)
    code_small = repetition_code(p, 4, 4, eff)
    coupled_ok = True
    for _ in range(1000):
        cfg = ProtocolConfig(p=p, n=8, n1=4, n2=1, n3=2, P=d, P_tilde=d,
                             code=code_small,
                             master_seed=int(rng.integers(0, 2**31)))
        m = FieldVec(rng.integers(0, p, 1), p)
        t1 = run_protocol1(cfg, m)
        t3 = run_protocol3(cfg, m)
        coupled_ok = coupled_ok and (t1.verdict == t3.verdict
                                     and t1.m_hat == t3.m_hat)
    # abort frequency vs ECC block-error rate under coupled noise
    code = repetition_code(p, 10, 6, eff)
    cfg = ProtocolConfig(p=p, n=30, n1=10, n2=1, n3=8, P=d, P_tilde=d,
                         code=code, master_seed=2024)
    trials = 10**4
    stats = monte_carlo(cfg, trials)
    b = stats["ecc_block_error_rate"]
    halfwidth = 1.96 * math.sqrt(max(b * (1 - b), 1e-12) / trials)
    match_ok = (abs(stats["abort_rate"] - b) <= halfwidth
                and stats["abort_rate"] <= b + 1e-12)
    ok = coupled_ok and match_ok
    elapsed = time.perf_counter() - t0
    report(7, "protocol coupling and completeness", ok,
           f"coupled verdicts identical over 1000 trials; abort "
           f"{stats['abort_rate']:.4f} vs block error {b:.4f} "
           f"(95% halfwidth {halfwidth:.4f})", elapsed, 60.0)


def test_criterion_8_uhf_exactness():
    t0 = time.perf_counter()
    p = 2
    ok = True
    for n1 in (2, 3, 4):
        for k in range(1, n1):
            # the collision and balance laws depend only on k = n2 + n3
            n2, n3 = (k - 1, 1) if k > 1 else (k, 0)
            seeds = [SeedS([(si >> j) & 1 for j in range(n1 - 1)],
                           n1, n2, n3, p) for si in range(p ** (n1 - 1))]
            vecs = [np.array(v) for v in product(range(p), repeat=n1)]
            for lv in vecs:
                for lpv in vecs:
                    if np.array_equal(lv, lpv):
                        continue
                    hits = sum(
                        np.array_equal(f_s(s, lv), f_s(s, lpv))
                        for s in seeds)
                    frac = hits / len(seeds)
                    expect = 0.0 if np.array_equal(lv[k:], lpv[k:]) else p**-k
                    ok = ok and (abs(frac - expect) < 1e-15)
            # balanced condition: exact preimage counts
            for s in seeds:
                counts = {}
                for lv in vecs:
                    key = tuple(f_s(s, lv).tolist())
                    counts[key] = counts.get(key, 0) + 1
                ok = ok and len(counts) == p**k
                ok = ok and all(c == p ** (n1 - k) for c in counts.values())
    elapsed = time.perf_counter() - t0
    report(8, "UHF exactness", ok,
           "collision probabilities and preimage counts exact for n1 <= 4",
           elapsed, 10.0)
