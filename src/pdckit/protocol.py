"""End-to-end protocol orchestration with adversary modes and Monte Carlo.

The quantum legs are replaced everywhere by their exact classical
equivalent: Bob's generalized Bell measurement outcome is X_hat_i =
X_i + N_i with N_i i.i.d. from the convolved noise, which is justified by
the Bell-diagonality of the received state and checked against the exact
oracle in the tests.  The masked variant (run_protocol3) adds a public
uniform one-time pad X_bar and decodes on X_under - X_bar; under coupled
randomness it is verdict-identical to the unmasked run.

One batched engine runs the protocol for every caller: a transcript is
row 0 of a one-row pass, and Monte Carlo runs the engine over consecutive
row chunks of ``_CHUNK_BYTES`` worth of (rows, 2n) int64 words and adds up
the counts, so its memory does not grow with the trial count.  Randomness
discipline: one master seed derives a fixed tuple of named substreams
(seed-S, seed-S', Y, L2, channel noise, mask, adversary, message).  Every
stream draws in row order: each engine pass draws its rows' values from
each stream in one block, and Monte Carlo draws a chunk's messages just
before that chunk.  numpy's generators give the same values whether a
block is drawn at once or in consecutive pieces, so the chunked run equals
one pass over all trials byte for byte, transcripts are reproducible, and
the masked/unmasked pair can be coupled.  Secrecy under interception is
never sampled; intercept mode aborts at reception and reports the analytic
secrecy bound instead.

At low noise almost nothing changes in transit, so the engine pays only for
what did.  Each shortcut is an exact integer identity, and none assumes the
decoder is right on clean words, so every drawn value, decision and verdict
is the one the full computation gives:

* the channel draws one uniform per pair, and only the pairs hit (a nonzero
  label) go through the inverse CDF and the mod-p add;
* the default tamper rule replaces every word, so the channel is not
  sampled; the noise stream is its own, and no other draw moves;
* f_S(psi_S(M, Y, L2)) = (Y || M): a row whose ECC decision equals its
  information word decodes to (Y, M), and f_S runs on the other rows only;
* C = g_S'(M, Y): a row whose (Y_hat, M_hat) is (Y, M) is accepted, and
  g_S' runs only on the rows where they differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .bounds import eps_E_bound
from .dists import PauliDist, convolve
from .gf import FieldVec, _check_enum, _mod, all_vectors, word_index
from .hashing import SeedS, SeedSPrime, f_s_split, g_sprime, psi_s
from .wiretap import ClassicalChannelWc, LinearCodeSpec

_STREAMS = ("s", "s_prime", "y", "l2", "noise", "mask", "adversary", "message")
_STREAM_INDEX = {name: i for i, name in enumerate(_STREAMS)}

# Bytes of (rows, 2n) int64 words in one Monte Carlo chunk.  Measured with
# one BLAS thread on a 2-vCPU machine (2 MiB of L2 per core), median op time
# over 100 in-process ops, 10 alternating runs per shape: 512 KiB beat
# 256 KiB in 6 of 10 runs at the identity n = 256, 250-trial shape (7.32 vs
# 7.63 ms) and in 10 of 10 at the repetition n = 30, 1000-trial shape (1.86
# vs 1.94 ms); 1 MiB lost most of the gain at n = 256, and 128 KiB cost the
# repetition shape about 10%.  It must not depend on the machine, since it
# fixes the chunk rows.
_CHUNK_BYTES = 512 * 1024


class _Streams(dict):
    """The named substreams of one master seed, each built on first use.

    Stream i is seeded with the i-th child of SeedSequence(master_seed), the
    same child ``spawn`` would hand out, whichever streams are used first.
    """

    def __init__(self, master_seed: int):
        super().__init__()
        self.master_seed = master_seed

    def __missing__(self, name: str) -> np.random.Generator:
        child = np.random.SeedSequence(self.master_seed, spawn_key=(_STREAM_INDEX[name],))
        rng = self[name] = np.random.default_rng(child)
        return rng


@dataclass(frozen=True)
class AdversaryMode:
    """Exactly one of: none, intercept, or tamper with a substitution rule.

    ``tamper_fn(x_hat, rng)`` returns the substituted reception; the default
    tamper rule replaces it with a uniformly random word.  A rule given with
    any other kind raises ValueError rather than being dropped.
    """

    kind: str = "none"
    tamper_fn: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("none", "intercept", "tamper"):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.tamper_fn is not None and self.kind != "tamper":
            raise ValueError(f"a substitution rule needs kind 'tamper', got {self.kind!r}")

    @staticmethod
    def none() -> "AdversaryMode":
        return AdversaryMode("none")

    @staticmethod
    def intercept() -> "AdversaryMode":
        return AdversaryMode("intercept")

    @staticmethod
    def tamper(fn=None) -> "AdversaryMode":
        return AdversaryMode("tamper", fn)


@dataclass(frozen=True)
class ProtocolConfig:
    p: int
    n: int
    n1: int
    n2: int
    n3: int
    P: PauliDist
    P_tilde: PauliDist
    code: LinearCodeSpec
    master_seed: int = 0

    def __post_init__(self):
        if self.n1 > 2 * self.n:
            raise ValueError(f"n1 = {self.n1} exceeds 2n = {2 * self.n}")
        if not (self.n1 > self.n2 + self.n3 and self.n2 >= 1 and self.n3 >= 1):
            raise ValueError("need n1 > n2 + n3 with n2, n3 >= 1, got (n1, n2, n3) = "
                             f"{(self.n1, self.n2, self.n3)}")
        if self.P.p != self.p or self.P_tilde.p != self.p:
            raise ValueError("noise distributions must share the config modulus")
        if self.code.p != self.p or self.code.n != self.n or self.code.n1 != self.n1:
            raise ValueError("code parameters do not match the config")

    @cached_property
    def _effective_noise(self) -> PauliDist:
        return convolve(self.P_tilde, self.P)

    def effective_noise(self) -> PauliDist:
        """Bob's pair noise P_tilde * P, convolved once per config."""
        return self._effective_noise

    def streams(self) -> dict[str, np.random.Generator]:
        """Fresh named substreams of the master seed, built on first use."""
        return _Streams(self.master_seed)


@dataclass
class Transcript:
    """Full run record; ``events`` keeps the public-communication ordering."""

    s: list[int]
    s_prime: list[int]
    c: list[int]
    x_bar: list[int] | None
    x: list[int]
    x_hat: list[int] | None
    m_hat: list[int] | None
    y_hat: list[int] | None
    verdict: str
    events: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def verify(seed_sprime: SeedSPrime, m_hat, y_hat, c) -> np.ndarray:
    """Accept iff g_S'(M_hat, Y_hat) = C, row-wise."""
    return (g_sprime(seed_sprime, m_hat, y_hat) == c).all(axis=-1)


def _engine(config: ProtocolConfig, msgs: np.ndarray, streams,
            adversary: AdversaryMode, masked: bool = False) -> dict:
    """One batched protocol pass; every returned array has one row per trial.

    Each stream it uses gets one block of draws for all the rows, in row
    order, so consecutive passes over the consecutive row chunks of a batch
    on one stream dict return, row for row, what one pass returns.
    Draws the seed S, covers, L2 and (masked) the public pad, encodes, and
    in intercept mode stops there.  Otherwise the words cross the channel
    (whose sampler pays only for the pairs it hits), are tampered with if
    asked, and are decoded and hashed back.  The default tamper rule is one
    bulk uniform draw from the adversary stream that replaces every word, so
    the channel is not sampled: the noise stream is its own, and skipping
    it moves no other value.  A custom rule is called per row on the
    channel's output.  S' and C = g_S'(M, Y) come last, with the verdict:
    S' has its own stream, so the draw order changes no value, and its seed
    and spectrum are not held through decoding.

    Bob's side works only on the rows the channel or the decoder changed,
    by two exact identities that do not assume the decoder is right on
    clean words:

    * f_S(psi_S(M, Y, L2)) = (Y || M), so a row whose decision equals its
      information word has (Y_hat, M_hat) = (Y, M), and f_S runs on the
      other rows (``block_error``) with those rows of S's spectrum;
    * C = g_S'(M, Y), so a row with (Y_hat, M_hat) = (Y, M) is accepted,
      and g_S' runs only on the rows where they differ.
    """
    p, n1, n2, n3 = config.p, config.n1, config.n2, config.n3
    k = n2 + n3
    trials = msgs.shape[0]
    seed_s = SeedS(streams["s"].integers(0, p, (trials, n1 - 1)), n1, n2, n3, p)
    ys = streams["y"].integers(0, p, (trials, n3))
    infos = psi_s(seed_s, msgs, ys, streams["l2"].integers(0, p, (trials, n1 - k)))
    x = config.code.encode(infos)
    x_bar = streams["mask"].integers(0, p, (trials, 2 * config.n)) if masked else None
    run = {"s": seed_s.vec, "x": x, "x_bar": x_bar, "x_hat": None, "m_hat": None,
           "y_hat": None, "accept": None, "block_error": None}
    if adversary.kind != "intercept":
        if adversary.kind == "tamper" and adversary.tamper_fn is None:
            x_hat = streams["adversary"].integers(0, p, x.shape)
        else:
            channel = ClassicalChannelWc(config.effective_noise())
            if masked:
                x_hat = _mod(channel.sample_batch(x + x_bar, streams["noise"]) - x_bar, p)
            else:
                x_hat = channel.sample_batch(x, streams["noise"])
            if adversary.kind == "tamper":
                rng = streams["adversary"]
                x_hat = np.stack([adversary.tamper_fn(r, rng) for r in x_hat])
        decoded = config.code.decode_batch(x_hat)
        block_error = np.any(decoded != infos, axis=-1)
        y_hat, m_hat = ys.copy(), msgs.copy()
        rows = _row_index(block_error)
        if rows is not None:
            y_hat[rows], m_hat[rows] = f_s_split(seed_s.rows(rows), decoded[rows])
        run.update(x_hat=x_hat, y_hat=y_hat, m_hat=m_hat, block_error=block_error)
    del seed_s, infos
    seed_sp = SeedSPrime(streams["s_prime"].integers(0, p, (trials, k - 1)), n2, n3, p)
    c = g_sprime(seed_sp, msgs, ys)
    run.update(s_prime=seed_sp.vec, c=c)
    if run["m_hat"] is not None:
        accept = np.ones(trials, dtype=bool)
        rows = _row_index(np.any(y_hat != ys, axis=-1) | np.any(m_hat != msgs, axis=-1))
        if rows is not None:
            accept[rows] = verify(seed_sp.rows(rows), m_hat[rows], y_hat[rows], c[rows])
        run["accept"] = accept
    return run


def _row_index(mask: np.ndarray) -> np.ndarray | slice | None:
    """The rows where ``mask`` holds: None for no row, ``slice(None)`` for
    every row (indexing by it copies nothing), else their indices."""
    if not mask.any():
        return None
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _transcript(config: ProtocolConfig, M: FieldVec, adversary: AdversaryMode | None,
                masked: bool) -> Transcript:
    """Row 0 of a trials = 1 engine pass, with the public-communication events."""
    adversary = adversary or AdversaryMode.none()
    if M.p != config.p:
        raise ValueError(f"message modulus {M.p} != config modulus {config.p}")
    run = _engine(config, M.values[None, :], config.streams(), adversary, masked)
    events = ["encode", "transmit_masked" if masked else "transmit"]
    if adversary.kind == "intercept":
        events.append("intercepted")
    else:
        events += ["reception_ack", "public:s,s_prime,c,x_bar" if masked else "public:s,s_prime,c"]
        if adversary.kind == "tamper":
            events.append("tampered")
        events += ["decode", "verdict"]
    rows = {key: None if run[key] is None else run[key][0].tolist()
            for key in ("s", "s_prime", "c", "x_bar", "x", "x_hat", "m_hat", "y_hat")}
    accepted = run["accept"] is not None and bool(run["accept"][0])
    return Transcript(**rows, verdict="accept" if accepted else "abort", events=events)


def run_protocol1(config: ProtocolConfig, M: FieldVec,
                  adversary: AdversaryMode | None = None) -> Transcript:
    """One unmasked run: encode, channel, reception, public S/S'/C, decode."""
    return _transcript(config, M, adversary, masked=False)


def run_protocol3(config: ProtocolConfig, M: FieldVec,
                  adversary: AdversaryMode | None = None) -> Transcript:
    """Masked run: public uniform pad X_bar, decode on X_under - X_bar.

    Under the same master seed the pad cancels exactly, so the verdict and
    recovered message coincide with run_protocol1's.
    """
    return _transcript(config, M, adversary, masked=True)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    z = 1.96
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def monte_carlo(config: ProtocolConfig, trials: int,
                adversary: AdversaryMode | None = None) -> dict:
    """Vectorized Monte Carlo over i.i.d. protocol runs with uniform messages.

    Returns abort/undetected/accepted-and-correct rates with Wilson 95%
    intervals, the coupled ECC block-error rate, and (for intercept mode)
    the analytic secrecy bound, since Eve's advantage is a trace distance
    and not an event frequency.  The engine runs over consecutive chunks of
    rows whose (rows, 2n) int64 words fill ``_CHUNK_BYTES``, each chunk's
    messages drawn just before it, so memory stays flat in ``trials`` and
    every count equals that of one pass over all trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    adversary = adversary or AdversaryMode.none()
    p, n1, n2, n3 = config.p, config.n1, config.n2, config.n3
    if adversary.kind == "intercept":
        return {
            "trials": trials, "abort_rate": 1.0, "undetected_error_rate": 0.0,
            "accepted_and_correct_rate": 0.0, "ecc_block_error_rate": None,
            "abort_ci": (1.0, 1.0), "undetected_ci": (0.0, 0.0),
            "accepted_correct_ci": (0.0, 0.0), "wrong_trials": 0,
            "eps_E_bound": eps_E_bound(config.n, n1 - n2 - n3, config.P),
        }
    streams = config.streams()
    rows = max(1, _CHUNK_BYTES // (16 * config.n))
    block_err = n_accept = n_wrong = n_undetected = 0
    for start in range(0, trials, rows):
        msgs = streams["message"].integers(0, p, (min(rows, trials - start), n2))
        run = _engine(config, msgs, streams, adversary)
        accept = run["accept"]
        wrong = np.any(run["m_hat"] != msgs, axis=1)
        block_err += int(run["block_error"].sum())
        n_accept += int(accept.sum())
        n_wrong += int(wrong.sum())
        n_undetected += int((accept & wrong).sum())
    n_abort = trials - n_accept
    n_good = n_accept - n_undetected
    return {
        "trials": trials,
        "abort_rate": n_abort / trials,
        "undetected_error_rate": (n_undetected / n_wrong) if n_wrong else 0.0,
        "accepted_and_correct_rate": n_good / trials,
        "ecc_block_error_rate": block_err / trials,
        "abort_ci": wilson_interval(n_abort, trials),
        "undetected_ci": wilson_interval(n_undetected, n_wrong) if n_wrong else (0.0, 0.0),
        "accepted_correct_ci": wilson_interval(n_good, trials),
        "wrong_trials": n_wrong,
        "eps_E_bound": None,
    }


# ---------------------------------------------------------------------------
# Lemma-style leakage comparison for the public verification variables
# ---------------------------------------------------------------------------

def _min_sigma_distance(joint: np.ndarray) -> float:
    """min over distributions sigma of sum_{m,f} |P(m,f) - P(m) sigma(f)|.

    Column f of the nonnegative (M, F) ``joint`` costs the convex
    g_f(s) = sum_m |a_mf - p_m s|: its slope starts at -sum_m p_m and rises
    by 2 p_m at each breakpoint a_mf / p_m (rows with p_m = 0 add nothing).
    Under sum_f sigma_f = 1, filling the segments of every column, the last
    one unbounded, in ascending slope order is optimal (the stable sort
    keeps a column's ties in order).  Returns the objective at that sigma.
    """
    pm = joint.sum(axis=1)
    breaks = np.divide(joint, pm[:, None], out=np.zeros_like(joint), where=pm[:, None] > 0)
    order = np.argsort(breaks, axis=0, kind="stable")
    rises = np.cumsum(np.vstack([np.zeros(joint.shape[1]), pm[order]]), axis=0)
    rank = np.argsort(2.0 * rises - pm.sum(), axis=None, kind="stable")
    seg = np.diff(np.sort(breaks, axis=0), axis=0, prepend=0.0, append=np.inf).ravel()[rank]
    start = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    sigma = np.bincount(rank % joint.shape[1], np.clip(1.0 - start, 0.0, seg), joint.shape[1])
    return float(np.abs(joint - pm[:, None] * sigma).sum())


def lnm_check(p: int, n2: int, n3: int, eve_kernel: np.ndarray) -> tuple[float, float]:
    """Both sides of the public-verification leakage comparison.

    ``eve_kernel[e, m']`` is a classical channel from the wiretap message
    M' = (Y, M) to Eve's register E'.  Returns (d(M; E' S' C), d(M'; E')),
    each exact, for uniform M, Y, S' and C = g_S'(M, Y).  For fixed (S', M),
    Y -> Y + T(S') M is a bijection, so each (s', m, y) has its own
    (m, s', c) cells of the joint.  The first never exceeds the second: the
    verification variables give no extra information about the message.
    """
    kernel = np.asarray(eve_kernel, dtype=float)
    m_count, y_count, s_count = p**n2, p**n3, p ** (n2 + n3 - 1)
    # NaN and -inf fail ">= 0", and +inf fails its column's sum
    if (kernel.ndim != 2 or kernel.shape[1] != m_count * y_count or not np.all(kernel >= 0.0)
            or not np.all(np.abs(kernel.sum(axis=0) - 1.0) <= 1e-9)):
        raise ValueError("kernel must hold a probability column per (Y, M) pair")
    _check_enum(kernel.size * s_count, "cells of the verification joint")
    seeds = SeedSPrime(all_vectors(p, n2 + n3 - 1)[:, None, None], n2, n3, p)
    covers = g_sprime(seeds, all_vectors(p, n2)[:, None], all_vectors(p, n3))  # (s', m, y)
    eve = (1.0 / (m_count * y_count * s_count) * kernel).T.reshape(y_count, m_count, -1)
    joint = np.zeros((m_count, s_count, y_count, len(kernel)))  # (m, s', c, e')
    joint[np.arange(m_count)[:, None], np.arange(s_count)[:, None, None],
          word_index(covers, p)] = eve.swapaxes(0, 1)
    return (_min_sigma_distance(joint.reshape(m_count, -1)),
            _min_sigma_distance(kernel.T / (m_count * y_count)))
