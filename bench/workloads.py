"""The four benchmark workloads and the checks on every operation's output.

Each workload is a fixed cycle of operations.  An operation's ``make``
draws its inputs from the workload's seeded generator (outside the timed
region) and returns the call to time plus a check of its result; the check
returns an error message, or None when the output is correct.  pdckit is
always reached through module attributes at call time, so the traced run
sees the wrapped entry points.

Why these four (see README.md for the per-layer predictions):

* mc_hash      -- batched Toeplitz hashing in ``monte_carlo`` does nearly
                  all the work; decoding is a mod-p copy.
* mc_decode    -- exhaustive ML ``decode_batch`` does nearly all the work;
                  the Toeplitz products are tiny.
* oracle       -- the sandwiched-Renyi solver (identity suite and
                  quantum-Eve leakage bounds); both mc_* workloads bypass it.
* short_calls  -- per-call transcripts and in-process CLI runs, the only
                  path through the scalar hashing, gf, bounds, dists,
                  estimation and cli layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pdckit import bounds, cli, dists, identities, protocol, wiretap
from pdckit.gf import FieldVec


@dataclass
class Op:
    """One kind of operation; ``make()`` returns (timed call, check)."""

    name: str
    make: Callable[[], tuple[Callable[[], object], Callable[[object], str | None]]]


@dataclass
class Workload:
    cycle: list[Op]
    tail_pct: int       # op_tail_s is this nearest-rank percentile of op times
    trace_cycles: int   # the traced run repeats the cycle exactly this often


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def _check_mc(stats: dict, trials: int, tamper: bool,
              block_exact: float) -> str | None:
    n_abort = stats["abort_rate"] * trials
    n_good = stats["accepted_and_correct_rate"] * trials
    n_wrong = stats["wrong_trials"]
    n_undetected = stats["undetected_error_rate"] * n_wrong
    counts = (n_abort, n_good, n_undetected)
    if any(abs(c - round(c)) > 1e-6 for c in counts):
        return f"rates do not come from whole counts: {counts}"
    if sum(round(c) for c in counts) != trials:
        return f"abort + accepted-correct + undetected = {sum(counts)} != {trials}"
    if tamper:
        # accepting a uniform substitute needs a collision of an n3-symbol hash
        return None if round(n_abort) == trials else f"tamper accepted: {stats}"
    block = stats["ecc_block_error_rate"]
    if stats["abort_rate"] > block + 1e-12:
        return f"abort rate {stats['abort_rate']} exceeds block error {block}"
    # six standard deviations: a correct program fails this about 2e-9 of the time
    tol = 6.0 * math.sqrt(block_exact * (1.0 - block_exact) / trials) + 1.0 / trials
    if abs(block - block_exact) > tol:
        return f"block error {block} vs exact {block_exact:.6f} (tol {tol:.4f})"
    return None


def _mc_op(name: str, rng, make_config, trials: int, tamper: bool,
           block_exact: float) -> Op:
    adversary = protocol.AdversaryMode.tamper() if tamper else protocol.AdversaryMode.none()

    def make():
        cfg = make_config(int(rng.integers(0, 2**31)))
        return (lambda: protocol.monte_carlo(cfg, trials, adversary),
                lambda stats: _check_mc(stats, trials, tamper, block_exact))

    return Op(name, make)


def repetition_block_error(eff: dists.PauliDist, r: int, n1: int) -> float:
    """Exact ML block-error rate of the r-fold repetition code (r even).

    Each information symbol fills r/2 whole symplectic pairs, so ML decoding
    factorises per symbol; ties go to the smallest symbol, which is the
    exhaustive decoder's lexicographic rule.  Information words are uniform.
    """
    p = eff.p
    q = eff.flat()
    err = 0.0
    for s in range(p):
        for labels in itertools.product(range(p * p), repeat=r // 2):
            received = [((s + lab // p) % p, (s + lab % p) % p) for lab in labels]
            like = [math.prod(q[((x - c) % p) * p + (z - c) % p] for x, z in received)
                    for c in range(p)]
            if int(np.argmax(like)) != s:
                err += math.prod(q[lab] for lab in labels) / p
    return 1.0 - (1.0 - err) ** n1


def mc_hash(seed: int, tracer, out_dir: Path) -> Workload:
    p, n = 2, 256
    P = dists.depolarizing(1e-3, p)
    code = wiretap.identity_code(p, n)
    if tracer:
        tracer.wrap_decode_batch(code, 0)
    block_exact = 1.0 - float(dists.convolve(P, P).probs[0, 0]) ** n
    rng = np.random.default_rng(seed)

    def config(master):
        return protocol.ProtocolConfig(p=p, n=n, n1=512, n2=128, n3=64, P=P,
                                       P_tilde=P, code=code, master_seed=master)

    cycle = [_mc_op("mc-none", rng, config, 250, False, block_exact),
             _mc_op("mc-tamper", rng, config, 250, True, block_exact)]
    return Workload(cycle, tail_pct=70, trace_cycles=24)


def mc_decode(seed: int, tracer, out_dir: Path) -> Workload:
    p, n1, r = 2, 10, 6
    P = dists.depolarizing(0.05, p)
    eff = dists.convolve(P, P)
    code = wiretap.repetition_code(p, n1, r, eff)
    if tracer:
        tracer.wrap_decode_batch(code, p**n1)
    block_exact = repetition_block_error(eff, r, n1)
    rng = np.random.default_rng(seed)

    def config(master):
        return protocol.ProtocolConfig(p=p, n=30, n1=n1, n2=1, n3=8, P=P,
                                       P_tilde=P, code=code, master_seed=master)

    return Workload([_mc_op("mc-none", rng, config, 1000, False, block_exact)],
                    tail_pct=80, trace_cycles=70)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _identity_op(rng) -> Op:
    """One criterion-3 case at p = 2 and one at p = 3."""

    def make():
        pairs = [(identities.random_pauli_dist(p, rng), identities.random_pauli_dist(p, rng))
                 for p in (2, 3)]

        def check(results):
            bad = [r for r in results if not r.within(1e-8)]
            return f"identity residuals above 1e-8: {bad}" if bad else None

        return (lambda: [identities.check_identities(P, Pt) for P, Pt in pairs], check)

    return Op("identities", make)


def _leakage_op(name: str, code, n2: int, n3: int, eve) -> Op:
    l2_size = code.p ** (code.n1 - n2 - n3)

    def run():
        return (wiretap.exact_leakage(code, n2, n3, eve),
                wiretap.theorem1_bound(l2_size, eve, code))

    def check(result):
        exact, bound = result
        return None if exact <= bound + 1e-12 else f"exact {exact} > bound {bound}"

    return Op(name, lambda: (run, check))


def oracle(seed: int, tracer, out_dir: Path) -> Workload:
    p = 2
    dep = dists.depolarizing
    rng = np.random.default_rng(seed)
    ident = _identity_op(rng)
    # the criterion-4 quantum-Eve instances
    leak_n1 = _leakage_op("leak-n1", wiretap.identity_code(p, 1), 1, 0,
                          wiretap.QuantumEveChannel(dep(0.25, p), 1))
    leak_rep = _leakage_op("leak-rep", wiretap.repetition_code(p, 2, 2, dep(0.5, p)), 1, 0,
                           wiretap.QuantumEveChannel(dep(0.1, p), 2))
    leak_id2 = _leakage_op("leak-id2", wiretap.identity_code(p, 2), 1, 1,
                           wiretap.QuantumEveChannel(dep(0.3, p), 2))
    cycle = [leak_n1, *[ident] * 10, leak_rep, *[ident] * 10, leak_id2]
    return Workload(cycle, tail_pct=70, trace_cycles=2)


# ---------------------------------------------------------------------------
# short_calls
# ---------------------------------------------------------------------------

# sha256 of each invocation's stdout.  The arguments do not depend on the
# workload seed, so these hold at every seed.
CLI_DIGESTS = {
    "rates --p 2 --mix-grid 0:0.25:0.0025":
        "77bddd1cd879b670d54bfada6ea2b0b8bb247a8d208aacc4fcec8e4417188cea",
    "finite --p 2 --mix 0.05 --n-grid 1000,10000,100000,1000000 "
    "--eps-c 0.2 --eps-e 1e-9 --eps-b 1e-9":
        "b564be3be58acaa72251d156ea1ac2bd271ac29edccf13823f5b891183c2658b",
    "simulate --config {config} --trials 10000 --adversary tamper":
        "89bcc4aa9b91a289f2c29f636a40b6f10259e6a44850d075056635d40513f4ff",
    "estimate --p 2 --mix 0.05 --shots 10000 --seed 1":
        "8b985ef15c4a58c91667fed5a1264267453f2af913efc4953add6b3960f77fba",
    "leakage --n 1 --n2 1 --n3 0 --code identity --eve quantum:0.25":
        "c5b0ae775152968190f0aa368c1e532ca37aaa79a0ed98eeb8026f47c74de43c",
    "verify-identities --p 2 --count 5 --seed 0":
        "03669c288d8d256b34c5184649cdc82eee718b97f0a0c757c88936be19119715",
    "rates --p 31 --mix-grid 0:0.25:0.0125":
        "32718cc25984befd0a7904ff936012c11d0a55064e947cf999e838b7f9a56fe3",
    "finite --p 31 --mix 0.05 --n-grid 1000,10000,100000,1000000":
        "449f56735f721feed069580b9e5b9eddd341ccd3f8e2d23dd3a46dd386a0085b",
    "estimate --p 31 --mix 0.05 --shots 10000 --seed 1":
        "f63c1ec31c724e3c6997b41cb9648aeacbc6de89301ef5cb9a628f9b2523841a",
}

# the simulate config from the README
SIMULATE_CONFIG = {"p": 2, "n": 8, "n1": 4, "n2": 1, "n3": 2,
                   "mix_bob_to_alice": 0.05, "mix_alice_to_bob": 0.05,
                   "code": "repetition:4", "seed": 7}


def _check_finite(argv: list[str], text: str) -> str | None:
    """Both inversions are exact: each length is the first to meet its target."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    p = int(opts["--p"])
    P = dists.depolarizing(float(opts["--mix"]), p)
    P_eff = dists.convolve(P, P)
    eps_c = float(opts.get("--eps-c", 0.2))
    eps_e = float(opts.get("--eps-e", 1e-9))
    log_p = math.log2(p)
    for line in text.splitlines()[1:]:
        n, r1, r2, _r3, _r, status = line.split(",")
        if status != "ok":
            continue
        n = int(n)
        m1 = round(float(r1) * n / log_p)
        m2 = round(float(r2) * n / log_p)
        if not (bounds.eps_E_bound(n, m2, P) <= eps_e
                and (m2 == 0 or bounds.eps_E_bound(n, m2 - 1, P) > eps_e)):
            return f"m2 = {m2} is not the eps_E inversion at n = {n}"
        if not (bounds.eps_C_bound(n, m1, P_eff) <= eps_c
                and (m1 == 2 * n or bounds.eps_C_bound(n, m1 + 1, P_eff) > eps_c)):
            return f"m1 = {m1} is not the eps_C inversion at n = {n}"
    return None


def _cli_op(key: str, config_path: str) -> Op:
    argv = key.format(config=config_path).split()
    digest = CLI_DIGESTS[key]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return f"{key}: exit code {code}"
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != digest:
            return f"{key}: stdout digest {got} != pinned {digest}"
        return _check_finite(argv, text) if argv[0] == "finite" else None

    p = argv[argv.index("--p") + 1] if "--p" in argv else "2"
    return Op(f"cli {argv[0]} p={p}", lambda: (run, check))


def _pair_op(rng, code) -> Op:
    """A coupled run_protocol1 / run_protocol3 pair (criterion-7 shape)."""
    P = dists.depolarizing(0.05, 2)

    def make():
        cfg = protocol.ProtocolConfig(p=2, n=8, n1=4, n2=1, n3=2, P=P, P_tilde=P,
                                      code=code, master_seed=int(rng.integers(0, 2**31)))
        msg = FieldVec(rng.integers(0, 2, 1), 2)

        def check(pair):
            t1, t3 = pair
            same = (t1.verdict, t1.m_hat, t1.y_hat, t1.x_hat) == \
                   (t3.verdict, t3.m_hat, t3.y_hat, t3.x_hat)
            return None if same else f"coupled transcripts differ: {t1} vs {t3}"

        return (lambda: (protocol.run_protocol1(cfg, msg),
                         protocol.run_protocol3(cfg, msg)), check)

    return Op("transcript-pair", make)


def short_calls(seed: int, tracer, out_dir: Path) -> Workload:
    P = dists.depolarizing(0.05, 2)
    code = wiretap.repetition_code(2, 4, 4, dists.convolve(P, P))
    config_path = out_dir / "simulate_config.json"
    config_path.write_text(json.dumps(SIMULATE_CONFIG))
    pair = _pair_op(np.random.default_rng(seed), code)
    cycle = [pair] * 6
    for key in CLI_DIGESTS:
        cycle += [pair] * 15 + [_cli_op(key, str(config_path))]
    # 150 ops: the p99 tail falls in the middle of the three p=31 runs
    return Workload(cycle, tail_pct=99, trace_cycles=12)


# name -> builder(seed, tracer or None, output directory)
BUILDERS = {"mc_hash": mc_hash, "mc_decode": mc_decode, "oracle": oracle,
            "short_calls": short_calls}
