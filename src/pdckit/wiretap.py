"""Modular wire-tap coding: ECC baselines, the induced classical channel,
exact leakage enumeration, and the finite-length leakage bound.

A codeword is a vector in F_p^{2n} read as n symplectic pairs; the channel
adds i.i.d. pair noise drawn from a PauliDist (the convolution of the two
Pauli channel legs).  The wiretap code composes a linear error-correcting
code with the inverse-hash randomization from the hashing module: encoding
draws L2 uniformly and sends phi_e(psi_S(M, Y, L2)); decoding applies f_S
to the ECC decision.  The protocol engine runs that composition; this
module enumerates it for the exact leakage.

A code is two batch-first callables, like the hashing module: ``encode``
maps (..., n1) information words to (..., 2n) codewords and
``decode_batch`` maps (..., 2n) received words to (..., n1) decisions,
both keeping the leading axes.  Classical Eve channels are batch-first
too: ``states`` maps a (words, 2n) codeword stack to Eve's stacked laws,
which ``exact_leakage`` requests once.  Quantum Eve is read through the
code's syndrome law alone, for her bound and for her exact leakage, which
splits the law into the cosets of (ker f_S)^perp, one real p^{n2+n3}-
dimensional block each (``_seed_norms``).

Baseline codes: identity (n1 = 2n), r-fold symbol repetition, and random
linear codes.  Random linear codes are decoded by exhaustive maximum
likelihood against all p^{n1} codewords, so they stay at desk scale.  The
repetition code is a direct sum of short inner codes and the pair noise is
i.i.d., so its ML decoding factorises into independent blocks of one or two
symbols; it builds no p^{n1} table and the enumeration cap does not apply
to it.  The exhaustive decoder scores a received word against every
codeword.  When the p^{2n} possible received words times the codewords are
at most ``_TABLE_MAX_WORK`` (2^14, from a measurement of the build time),
it scores each of them once, at construction, and then decodes by table
lookup (standard-array decoding).  Polar/LDPC codes are deliberately only
an interface; check_code_conformance validates third-party plug-ins against
the same contract, including agreement with exhaustive ML on enumerable
instances.

The finite-length bound needs no numerical solver: classical Eve channels
use Sibson's closed form, and quantum Eve (her half of the preshared state
plus the intercepted system) the Renyi entropy of the code's syndrome law,
whose derivation is in ``theorem1_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qexact
from .dists import PauliDist, renyi_entropy, sibson_mutual_info
from .gf import _ENUM_CAP, SizeCapError, Toeplitz, _check_int64_dot, _mod, all_vectors

# theorem1_bound's t grids
_QUANTUM_T_GRID = np.linspace(0.05, 1.0, 20)
_CLASSICAL_T_GRID = np.linspace(0.01, 1.0, 100)
_QUANTUM_T_GRID.flags.writeable = False
_CLASSICAL_T_GRID.flags.writeable = False


def _check_enum(total: int, what: str) -> None:
    if total > _ENUM_CAP:
        raise SizeCapError(f"enumeration of {total} {what} exceeds cap {_ENUM_CAP}")


# ---------------------------------------------------------------------------
# linear codes
# ---------------------------------------------------------------------------

@dataclass
class LinearCodeSpec:
    """Pluggable linear code phi = (encode, decode_batch) on F_p^{n1} -> F_p^{2n}.

    ``encode`` maps (..., n1) int arrays to (..., 2n) codewords and
    ``decode_batch`` maps (..., 2n) received words back to (..., n1)
    information vectors.  Both keep the leading axes, so a 1-d vector is the
    unbatched case and the protocol engine makes one call of each per pass.
    """

    p: int
    n: int
    n1: int
    encode: Callable[[np.ndarray], np.ndarray]
    decode_batch: Callable[[np.ndarray], np.ndarray]

    def all_messages(self) -> np.ndarray:
        """All p^{n1} information vectors, one per row."""
        _check_enum(self.p**self.n1, "messages")
        return all_vectors(self.p, self.n1)

    def all_codewords(self) -> np.ndarray:
        return self.encode(self.all_messages())


# Largest (p^2)^{n_pairs} * n_codewords for which _batch_ml_decoder builds a
# decision table: received patterns times codewords, the scores its build
# adds up.  Measured with one BLAS thread on a 2-vCPU machine, best of five,
# build time over the per-call scorer's setup: p = 2 repetition blocks of 2
# codewords on 4, 6 and 7 pairs (work 512, 8192, 32768) 0.18, 2.1 and 8.9 ms;
# 4 codewords on 7 pairs (65536) 11.7 ms; generator codes at p = 2, n = 4
# with 16 and 64 codewords (4096, 16384) 0.23 and 0.40 ms; p = 3, n = 3 with
# 27 and 81 codewords (19683, 59049) 0.53 and 0.94 ms.  Below 2^14 no build
# took over 2.1 ms; at 2^15 and 2^16 the few-codeword blocks cost more than
# the whole of random_linear_code(3, 4, 8)'s construction (about 6 ms).  A
# table decodes 10,000 words in 0.1 to 0.35 ms, where scoring took 2 to 19 ms.
_TABLE_MAX_WORK = 2**14


def _check_noise_modulus(p: int, noise: PauliDist) -> None:
    if noise.p != p:
        raise ValueError(f"noise law is over F_{noise.p}, the code over F_{p}")


def _pair_labels(words, p: int) -> np.ndarray:
    """The (..., n) pair labels x * p + z of (..., 2n) words."""
    words = np.asarray(words, dtype=np.int64)
    return words[..., 0::2] * p + words[..., 1::2]


def _ml_scorer(p: int, table: np.ndarray, messages: np.ndarray, noise: PauliDist):
    """Exhaustive ML decisions for (rows, n_pairs) received pair labels.

    A label v stands for the pair (v // p, v % p).  A codeword scores the
    number of its pairs the noise cannot produce, then the summed
    log-likelihood of the others.  Among the codewords with the fewest such
    pairs, the first (in table order) whose log-likelihood lies within a
    relative 1e-9 of the best wins, so codewords that tie in exact
    arithmetic go to the lexicographically smallest message whatever the
    rounding.  Scores accumulate pair by pair, in chunk x codewords memory,
    and each row's decision depends on that row alone.
    """
    flat = noise.flat()
    impossible = flat <= 0
    logq = np.log(np.where(impossible, 1.0, flat))
    n_pairs = table.shape[1] // 2
    n_codewords = table.shape[0]
    cw_pairs = _pair_labels(table, p)
    # difference table on pair labels: d[v, v'] = (x-x', z-z') as a label
    v = np.arange(p * p)
    vx, vz = v // p, v % p
    diff = ((vx[:, None] - vx[None, :]) % p) * p + (vz[:, None] - vz[None, :]) % p
    # noise_label[j, v, c]: the noise label that turns codeword c into label v at pair j
    noise_label = diff[:, cw_pairs.T].transpose(1, 0, 2)
    pair_ll = logq[noise_label]
    pair_bad = impossible[noise_label]
    chunk = max(1, 2**20 // n_codewords)

    def decide(labels: np.ndarray) -> np.ndarray:
        out = np.empty((labels.shape[0], messages.shape[1]), dtype=np.int64)
        for start in range(0, labels.shape[0], chunk):
            rp = labels[start:start + chunk]
            ll = np.zeros((rp.shape[0], n_codewords))
            bad = np.zeros((rp.shape[0], n_codewords), dtype=np.int64)
            for j in range(n_pairs):
                ll += pair_ll[j, rp[:, j]]
                bad += pair_bad[j, rp[:, j]]
            ll[bad > bad.min(axis=1, keepdims=True)] = -np.inf
            best = ll.max(axis=1, keepdims=True)
            winner = np.argmax(ll >= best - 1e-9 * np.abs(best), axis=1)
            out[start:start + chunk] = messages[winner]
        return out

    return decide


def _batch_ml_decoder(p: int, table: np.ndarray, messages: np.ndarray,
                      noise: PauliDist):
    """Exhaustive ML decoding against a codeword table under pair noise.

    Returns ``decode_batch`` on (..., 2n) received words, read mod p, with
    the decisions of ``_ml_scorer``.  When (p^2)^n * n_codewords is at most
    ``_TABLE_MAX_WORK``, every received pattern is scored once, here, into a
    decision table (standard-array decoding, Slepian 1956).  A word's row in
    it is the word read as a base-p number, which is its pair labels read in
    base p^2, so decoding is one matrix-vector product and one ``take``.
    Above that size each call scores its own words.  Raises ValueError when
    the noise law is over another field than the code.
    """
    _check_noise_modulus(p, noise)
    decide = _ml_scorer(p, table, messages, noise)
    length = table.shape[1]
    if int(p) ** length * table.shape[0] <= _TABLE_MAX_WORK:
        decisions = decide(_pair_labels(all_vectors(p, length), p))
        weights = p ** np.arange(length - 1, -1, -1, dtype=np.int64)

        def decode_batch(words: np.ndarray) -> np.ndarray:
            return np.take(decisions, _mod(np.asarray(words, dtype=np.int64), p) @ weights,
                           axis=0)
    else:
        def decode_batch(words: np.ndarray) -> np.ndarray:
            labels = _pair_labels(_mod(np.asarray(words, dtype=np.int64), p), p)
            return decide(labels.reshape(-1, length // 2)).reshape(
                labels.shape[:-1] + messages.shape[1:])

    return decode_batch


def identity_code(p: int, n: int) -> LinearCodeSpec:
    """The trivial rate-1 code with n1 = 2n; ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    ident = lambda v: _mod(np.asarray(v, dtype=np.int64), p)
    return LinearCodeSpec(p=p, n=n, n1=2 * n, encode=ident, decode_batch=ident)


def _generator_code(G: np.ndarray, p: int, n: int, noise: PauliDist) -> LinearCodeSpec:
    n1 = G.shape[1]
    _check_int64_dot(p, n1)  # encode's v @ G.T must not overflow int64

    def encode(v):
        return _mod(_mod(np.asarray(v, dtype=np.int64), p) @ G.T, p)

    msgs = all_vectors(p, n1)
    return LinearCodeSpec(p=p, n=n, n1=n1, encode=encode,
                          decode_batch=_batch_ml_decoder(p, encode(msgs), msgs, noise))


def repetition_code(p: int, n1: int, r: int, noise: PauliDist) -> LinearCodeSpec:
    """Each information symbol repeated r times; per-block ML decoding.

    Needs r * n1 even so codewords split into symplectic pairs.  The code is
    the direct sum of n1 length-r repetition codes and the pair noise is
    i.i.d., so ML decoding factorises over blocks of g symbols whose copies
    fill whole pairs: g = 1 for even r (r/2 pairs per symbol), g = 2 for odd
    r (r pairs per two symbols).  ``decode_batch`` cuts the words into
    blocks and decodes all of them at once against the p^g-word inner table
    with the exhaustive decoder, so the decisions, ties included, are those
    of exhaustive ML on the whole code.  No p^{n1} table is built, so the
    enumeration cap does not apply.  Where the p^{gr} possible blocks times
    the p^g inner codewords are at most ``_TABLE_MAX_WORK`` (even r <= 12 or
    odd r <= 5 at p = 2; even r <= 6 or r <= 3 at p = 3), the inner decoder
    holds every block's decision and a block costs one lookup.
    Raises ValueError for n1 < 1 or r < 1, and when the noise law is over
    another field than F_p.
    """
    if n1 < 1 or r < 1:
        raise ValueError(f"need n1, r >= 1, got n1={n1}, r={r}")
    if (r * n1) % 2 != 0:
        raise ValueError("r * n1 must be even (codewords hold symplectic pairs)")
    g = 1 if r % 2 == 0 else 2
    inner = all_vectors(p, g)
    decode_blocks = _batch_ml_decoder(p, np.repeat(inner, r, axis=1), inner, noise)

    def encode(v):
        return np.repeat(_mod(np.asarray(v, dtype=np.int64), p), r, axis=-1)

    def decode_batch(words):
        words = np.asarray(words, dtype=np.int64)
        return decode_blocks(words.reshape(-1, g * r)).reshape(words.shape[:-1] + (n1,))

    return LinearCodeSpec(p=p, n=(r * n1) // 2, n1=n1, encode=encode,
                          decode_batch=decode_batch)


def random_linear_code(p: int, n: int, n1: int, noise: PauliDist,
                       rng: np.random.Generator) -> LinearCodeSpec:
    """Random full-rank generator with exhaustive ML decoding (2n <= 8, p <= 3).

    A full-rank 2n x n1 generator needs 1 <= n1 <= 2n; ValueError otherwise.
    """
    if not 1 <= n1 <= 2 * n:
        raise ValueError(f"need 1 <= n1 <= 2n, got n1={n1}, n={n}")
    if 2 * n > 8 or p > 3:
        raise SizeCapError("random linear baseline limited to 2n <= 8, p <= 3")
    for _ in range(200):
        G = rng.integers(0, p, size=(2 * n, n1))
        if _gf_rank(G, p) == n1:
            return _generator_code(G.astype(np.int64), p, n, noise)
    raise RuntimeError("failed to draw a full-rank generator")


def _gf_rank(mat: np.ndarray, p: int) -> int:
    m = mat.astype(np.int64) % p
    m = m.copy()
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if m[r, c] % p:
                piv = r
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, c]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] = (m[r] - m[r, c] * m[rank]) % p
        rank += 1
    return rank


def check_code_conformance(code: LinearCodeSpec, rng: np.random.Generator | None = None,
                           samples: int = 50, noise: PauliDist | None = None) -> None:
    """Validate the plug-in contract: linearity, injectivity, round trip.

    Linearity and the noiseless round trip are checked on a (samples, n1)
    batch through ``encode`` and ``decode_batch``, and the batch must encode
    row for row like the single vectors.  With ``noise`` given and
    p^{n1} <= 4096, also checks that the code's decoder agrees exactly, ties
    included, with exhaustive ML under that pair noise, on ``samples``
    uniform words and ``samples`` noisy codewords.  Last, ``decode_batch``
    must read received symbols mod p: adding p to every symbol of the words
    the ML check used, or else of the encoded batch, leaves its output
    unchanged.  Raises ValueError on the first violated property.
    """
    rng = rng or np.random.default_rng(0)
    p, n1 = code.p, code.n1
    if noise is not None:
        _check_noise_modulus(p, noise)
    zero = code.encode(np.zeros(n1, dtype=np.int64))
    if zero.shape != (2 * code.n,) or zero.any():
        raise ValueError("encode(0) must be the zero word of length 2n")
    a = rng.integers(0, p, (samples, n1))
    b = rng.integers(0, p, (samples, n1))
    c = rng.integers(0, p, (samples, 1))
    coded = code.encode(a)
    if coded.shape != (samples, 2 * code.n) or any(
            not np.array_equal(w, code.encode(v)) for w, v in zip(coded, a)):
        raise ValueError("encode of a batch differs from encode of its rows")
    if not np.array_equal(code.encode((a + c * b) % p) % p, (coded + c * code.encode(b)) % p):
        raise ValueError("encode is not linear")
    if not np.array_equal(code.decode_batch(coded) % p, a):
        raise ValueError("decode_batch(encode(x)) != x on noiseless input")
    checked = coded
    if p**n1 <= 4096:
        table = code.all_codewords()
        if len({tuple(w.tolist()) for w in table}) != p**n1:
            raise ValueError("encode is not injective")
        if noise is not None:
            sent = table[rng.integers(0, p**n1, samples)]
            words = np.concatenate([rng.integers(0, p, (samples, 2 * code.n)),
                                    ClassicalChannelWc(noise).sample_batch(sent, rng)])
            got = code.decode_batch(words)
            ml = _batch_ml_decoder(p, table, code.all_messages(), noise)(words)
            if not np.array_equal(np.asarray(got) % p, ml):
                raise ValueError("decode disagrees with exhaustive ML decoding")
            checked = words
    if not np.array_equal(code.decode_batch(checked + p), code.decode_batch(checked)):
        raise ValueError("decode_batch does not read received symbols mod p")


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalChannelWc:
    """Additive pair-noise channel W^c(x,z | x',z') = noise(x-x', z-z')."""

    noise: PauliDist

    def sample_batch(self, codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Noisy copies of (..., 2n) codewords reduced mod p, one pair label
        drawn per pair.

        The labels are drawn as one (words, n) block of ``rng.random`` over
        the words in row-major order, whatever the leading axes.  Each is the
        inverse CDF of the pair law at its draw u, the way
        ``rng.choice(p * p, p=law)`` draws, without its per-call validation
        of a law PauliDist has already checked.  Label 0 is the pair (0, 0)
        and the first CDF entry, so a pair is hit, its label nonzero, exactly
        when u >= cdf[0].  Only the hit pairs pay for the inverse CDF and
        the mod-p add of their label v as the pair (v // p, v % p); every
        other symbol is the codeword's own residue.  A law with no mass at
        (0, 0) hits every pair.
        """
        cw = np.asarray(codewords, dtype=np.int64)
        p = self.noise.p
        if cw.ndim == 0 or cw.shape[-1] % 2:
            raise ValueError("codewords must hold whole symplectic pairs")
        cdf = np.cumsum(self.noise.flat())
        cdf /= cdf[-1]
        u = rng.random((math.prod(cw.shape[:-1]), cw.shape[-1] // 2)).ravel()
        hits = np.flatnonzero(u >= cdf[0])
        # one row per pair, in the row-major order of the draws; label v adds
        # (v // p, v), which is (v // p, v % p) once the sum is reduced
        pairs = _mod(cw, p).reshape(-1, 2)
        labels = cdf.searchsorted(u[hits], side="right")
        pairs[hits] = (pairs[hits] + labels[:, None] // (p, 1)) % p
        return pairs.reshape(cw.shape)


class ClassicalEveChannel:
    """Eve observes each codeword of a code with n pairs over F_p through a
    classical channel: ``kernel`` maps a (words, 2n) int64 codeword stack to
    the (words, outputs) laws of Eve's observation, one row per word."""

    is_quantum = False

    def __init__(self, kernel: Callable[[np.ndarray], np.ndarray], outputs: int,
                 p: int, n: int):
        self._kernel, self.outputs, self.p, self.n = kernel, outputs, p, n

    def states(self, words: np.ndarray) -> np.ndarray:
        """The kernel's rows; SizeCapError when words x outputs exceeds
        ``_ENUM_CAP``, before the kernel runs, and ValueError unless each word
        gets a probability row over the outputs."""
        words = np.asarray(words, dtype=np.int64)
        if len(words) * self.outputs > _ENUM_CAP:
            raise SizeCapError(
                f"Eve's law of {len(words)} words x {self.outputs} outputs "
                f"exceeds cap {_ENUM_CAP}")
        rows = np.asarray(self._kernel(words), dtype=float)
        if (rows.shape != (len(words), self.outputs) or np.any(rows < 0.0)
                or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9)):
            raise ValueError("Eve channel returned an invalid distribution")
        return rows


def eve_noiseless(p: int, n: int) -> ClassicalEveChannel:
    """Eve sees the transmitted word exactly: a point mass on its base-p index."""
    weights = p ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)

    def kernel(words):
        rows = np.zeros((len(words), p ** (2 * n)))
        rows[np.arange(len(words)), words @ weights] = 1.0
        return rows

    return ClassicalEveChannel(kernel, p ** (2 * n), p, n)


def eve_constant(p: int, n: int) -> ClassicalEveChannel:
    """Eve's observation carries no signal."""
    return ClassicalEveChannel(lambda words: np.ones((len(words), 1)), 1, p, n)


def eve_additive(noise: PauliDist, n: int) -> ClassicalEveChannel:
    """Eve sees the word through the additive pair-noise channel: her law is
    the Kronecker product over pairs c_i of noise(v - c_i) on labels v = x p + z."""
    p = noise.p
    v = np.arange(p * p)

    def kernel(words):
        rows = np.ones((len(words), 1))
        for i in range(n):
            pair = noise.probs[(v // p - words[:, 2 * i, None]) % p,
                               (v % p - words[:, 2 * i + 1, None]) % p]
            rows = (rows[:, :, None] * pair[:, None, :]).reshape(len(words), -1)
        return rows

    return ClassicalEveChannel(kernel, p ** (2 * n), p, n)


def eve_first_symbol(p: int, n: int) -> ClassicalEveChannel:
    """Eve learns only the first symbol of the word (deterministic)."""
    return ClassicalEveChannel(lambda words: np.eye(p)[words[:, 0]], p, p, n)


class QuantumEveChannel:
    """Eve holds (U_{g_1} x ... x U_{g_n}) tau_AE^{x n} (.)^dag per codeword.

    U_g = W(g) x I_E.  Her exact leakage and bound read ``P`` only through
    the code's syndrome law.  The bound runs wherever p^{n1} enumerates; the
    leakage, one trace norm per seed over coset blocks of size p^{n2+n3},
    wherever p^{n2+n3} <= ``qexact.DIM_CAP`` (256) and seeds x p^{n1}
    enumerates.
    """

    is_quantum = True

    def __init__(self, P: PauliDist, n: int):
        self.P, self.p, self.n = P, P.p, n


def _check_eve(eve, code: LinearCodeSpec) -> None:
    """ValueError unless Eve was built for the code's field and n pairs."""
    if (eve.p, eve.n) != (code.p, code.n):
        raise ValueError(f"Eve was built for p={eve.p}, n={eve.n}; "
                         f"the code has p={code.p}, n={code.n}")


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def _seed_norms(code: LinearCodeSpec, k: int, eve, seeds):
    """Per seed, the distinct norms ||tau_{E|m'} - tau_E||_1 over the messages
    m', whose mean is the seed's leakage d_S.

    The hash is f_S(x) = x1 + T x2 (M' = L1 + T(S) L2, n1 = k allowed), with
    a vector v = (v1, v2) of F_p^{n1} split after k = n2 + n3 symbols.  T is
    read off the seed, with no product: T[i, j] = V[i + n1-k-1 - j] (0-based),
    the seed's sliding windows of length n1 - k, each reversed.  Each row v of the p^{n1}
    enumeration, a word for classical Eve and a syndrome for quantum Eve,
    gets a label, and one stable sort of the base-p labels groups the rows
    into equal-size groups, each in index order.

    Classical Eve gets one l1 norm per message, in index order: her laws
    averaged over the preimage of m' (labelled f_S(x)) minus the overall
    mean.  Each group's rows are added in index order.

    Quantum Eve's states are never built.  By step 1 of ``theorem1_bound``
    she holds (I_A x Z_m) tau^{x n} (I_A x Z_m)^dag for the word m, and the
    mean of omega^{m.D} over all m is delta_{D,0}.  So a preimage's average
    state minus the overall one is X = p^{-n} V (I_A x K) V^dag, with the
    unitary V = sum_g W_g x |g><g|, K(g, g') = sqrt(P(g) P(g')) c(s(g) - s(g'))
    and c(D) the preimage mean of omega^{m.D} minus delta_{D,0}.  I_A is
    p^n-dimensional, so ||X||_1 = ||K||_1.  K = D^{1/2} S^T C S D^{1/2} with
    D = diag(P), S the 0/1 map g -> s(g) and C(s, s') = c(s - s'); AB and BA
    share their nonzero spectrum and S D S^T = diag(Q_C), so ||X||_1 is
    sum |eig(M)| for the p^{n1} x p^{n1} M(s, s') = sqrt(Q_C(s) Q_C(s')) c(s - s').

    The preimage of m' is a coset x0 + K of K = ker f_S = {(-T y, y)}, so
    c(D) = omega^{x0.D} [D in K^perp] - delta_{D,0}, with K^perp =
    {(D1, T^T D1)}.  M(s, s') therefore vanishes unless s and s' share the
    coset label s2 - T^T s1 of K^perp, and on one coset B it is
    U (r r^T - diag(r^2)) U^dag with r = sqrt(Q_C) on B and the diagonal
    unitary U = diag(omega^{x0.s}).  U drops out of the spectrum, so every
    message has the same norm: sum |eig| over the p^{n1-k} cosets, each a
    real p^k x p^k block, given once.  SizeCapError when p^k exceeds
    ``qexact.DIM_CAP`` or the blocks hold more than ``_ENUM_CAP`` entries.
    """
    p, n1 = code.p, code.n1
    infos = all_vectors(p, n1)
    v1, v2 = infos[:, :k], infos[:, k:]
    if eve.is_quantum:
        qexact._check_dims([p] * k)  # each coset block is p^k-dimensional
        _check_enum(p ** (n1 + k), "coset-block entries")  # p^{n1} syndromes too
        root = np.sqrt(_syndrome_law(eve.P, code))
    else:
        states = eve.states(code.encode(infos))
        avg = states.mean(axis=0)
    for seed_vec in seeds:
        t = np.lib.stride_tricks.sliding_window_view(seed_vec, n1 - k)[:, ::-1]  # T(seed)
        labels = _mod(v2 - v1 @ t if eve.is_quantum else v1 + v2 @ t.T, p)
        order = np.argsort(labels @ p ** np.arange(labels.shape[1] - 1, -1, -1), kind="stable")
        if eve.is_quantum:
            r = root[order.reshape(-1, p**k)]
            blocks = r[:, :, None] * (r[:, None, :] - r[:, :, None] * np.eye(p**k))
            yield [float(np.abs(np.linalg.eigvalsh(blocks)).sum())]
        else:
            # rows[j, m] is the j-th word of m's preimage: axis 0 adds them in order
            rows = states[order.reshape(p**k, -1).T.ravel()].reshape(-1, p**k, states.shape[1])
            yield np.abs(rows.sum(axis=0) / len(rows) - avg).sum(axis=1).tolist()


def exact_leakage(code: LinearCodeSpec, n2: int, n3: int, eve,
                  seeds: np.ndarray | None = None) -> float:
    """Exact average leakage d_bar(M'; E S) by full enumeration.

    Enumerates every seed S (or the supplied subset, read as f_S seeds:
    integers, reduced mod p), every message m', and the uniform
    randomization inside each hash preimage (``_seed_norms``).  Uses the
    paper's unhalved 1-norm, so values range up to 2.  ValueError on an
    empty seed set, on supplied seeds that are not integers or not of
    length n1 - 1, and when Eve was built for another p or n than the code.
    """
    _check_eve(eve, code)
    p, n1, k = code.p, code.n1, n2 + n3
    if not (n1 >= k > 0):
        raise ValueError("need n1 >= n2 + n3 > 0")
    if seeds is not None and len(seeds) == 0:
        raise ValueError("the seed set is empty: exact_leakage averages over at least one seed S")
    _check_enum((p ** (n1 - 1) if seeds is None else len(seeds)) * p**n1, "states")
    seeds = all_vectors(p, n1 - 1) if seeds is None else Toeplitz(seeds, k, n1 - k, p).vec
    total = 0.0
    for norms in _seed_norms(code, k, eve, seeds):
        d_s = 0.0
        for norm in norms:
            d_s += norm / len(norms)
        total += d_s
    return total / len(seeds)


def _syndrome_law(P: PauliDist, code: LinearCodeSpec) -> np.ndarray:
    """Law Q_C over F_p^{n1} (flat, row-major) of the syndrome of g ~ P^{x n}.

    s(g)_j = <g, c_j> with c_j the codeword of the j-th unit vector and
    <g, c> = sum_i g_x,i c_z,i - g_z,i c_x,i the symplectic form on the
    pairs (x_i, z_i) = (word[2i], word[2i+1]).  Each site adds the shift
    g_x c_z,i - g_z c_x,i, so the law is built by n convolutions of p^2
    shifted copies of a p^{n1} array.
    """
    p, n1 = P.p, code.n1
    gens = code.encode(np.eye(n1, dtype=np.int64))
    law = np.zeros((p,) * n1)
    law[(0,) * n1] = 1.0
    axes = tuple(range(n1))
    for i in range(code.n):
        cx, cz = gens[:, 2 * i], gens[:, 2 * i + 1]
        site = np.zeros_like(law)
        for (gx, gz), w in np.ndenumerate(P.probs):
            if w > 0.0:
                shift = (gx * cz - gz * cx) % p
                site += w * np.roll(law, tuple(shift.tolist()), axis=axes)
        law = site
    return law.reshape(-1)


def theorem1_bound(l2_size: int, eve, code: LinearCodeSpec,
                   return_curve: bool = False):
    """Finite-length leakage bound, capped at 2.

        d_bar <= min_t 2^{(1-t)/(1+t)} 2^{(t/(1+t)) (-log2 L2 + I(t))}

    with I(t) the optimized sandwiched Renyi mutual information
    I~up_{1+t}(M : E) of Eve's channel restricted to the code, under the
    uniform message distribution.  Classical Eve channels use the Sibson
    closed form.

    Quantum Eve holds tau_AE^{x n} rotated by W_c on A, where
    tau_AE = Tr_B |Psi><Psi| and |Psi> = sum_g sqrt(P(g)) |Phi_g>_AB |g>_E
    purifies the Bell-diagonal preshared state (``qexact.purify``).  For her
    I(t) = H_beta(Q_C) with beta = (1+t)/(1+2t), where Q_C is the law of the
    syndrome s(g)_j = <g, c_j> over the generator words c_j
    (``_syndrome_law``).  Sketch, with log p^{n1} written as n1 log p:

    1. W_c W_g W_c^dag = omega^{<g,c>} W_g, and tau_AE^{x n} =
       p^{-n} sum_{g,g'} sqrt(P(g) P(g')) W_g W_{g'}^dag x |g><g'|.  So W_c
       on A acts as the diagonal phase Z_m = sum_g omega^{m.s(g)} |g><g| on
       E, where c = encode(m): Eve's state for m is
       rho_m = (I_A x Z_m) tau^{x n} (I_A x Z_m)^dag.
    2. M is uniform, so I~up_alpha(M : AE) = n1 log p - H~up_alpha(M|AE).
    3. |Omega> = p^{-n1/2} sum_m |m>_M |m>_M' (Z_m)_E |Psi^{x n}>_ABE
       purifies rho_MAE.  Duality of the optimised sandwiched conditional
       entropies gives H~up_alpha(M|AE) = -H~up_beta(M|M'B) with
       1/alpha + 1/beta = 2 (Mueller-Lennert et al., J. Math. Phys. 54,
       122203 (2013); Beigi, J. Math. Phys. 54, 122202 (2013)).
    4. Tracing out E keeps only the g = g' terms, and every Bell state has
       Tr_A |Phi_g><Phi_g| = I_B / p^n.  So rho_MM'B = rho_MM' x I_B / p^n
       with rho_MM' = p^{-n1} sum_{m,m'} chi(m - m') |mm><m'm'|, where chi
       is the characteristic function of Q_C.  This matrix is circulant in
       m, so its eigenvalues are the masses of Q_C.  B is in a fixed
       product state, so H~up_beta(M|M'B) = H~up_beta(M|M').
    5. rho_MM' is invariant under X^a x X^a and Z^k x Z^{-k}.  Data
       processing (beta >= 1/2) under that twirl puts the optimal sigma_M'
       at I / p^{n1}, so H~up_beta(M|M') = H_beta(Q_C) - n1 log p.

    Together, H~up_alpha(M|AE) = n1 log p - H_beta(Q_C), and step 2 gives
    I(t) = H_beta(Q_C).  On the t grid alpha = 1+t lies in (1, 2] and beta
    in [2/3, 1).  The tests check the closed form against the solver's
    |C|-state infimum at every t, at p = 2 and p = 3.  ValueError when Eve
    was built for another p or n than the code.
    """
    _check_eve(eve, code)
    if l2_size < 1:
        raise ValueError("L2 size must be >= 1")
    if eve.is_quantum:
        ts = _QUANTUM_T_GRID
        _check_enum(code.p**code.n1, "messages")
        info = renyi_entropy(_syndrome_law(eve.P, code), (1.0 + ts) / (1.0 + 2.0 * ts))
    else:
        ts = _CLASSICAL_T_GRID
        words = code.all_codewords()
        weights, W = np.full(len(words), 1.0 / len(words)), eve.states(words).T
        # one order at a time: a stack of W^alpha over all t would hold 100 W's
        info = np.array([sibson_mutual_info(weights, W, 1.0 + t) for t in ts])
    log2_val = (1.0 - ts) / (1.0 + ts) + (ts / (1.0 + ts)) * (-np.log2(l2_size) + info)
    curve = np.minimum(2.0, np.exp2(log2_val))
    best = float(curve.min())
    return (best, list(zip(ts.tolist(), curve.tolist()))) if return_curve else best
