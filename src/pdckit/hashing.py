"""Toeplitz universal-hash families and the wiretap randomization encoder.

Two seeded linear hash families over F_p and the matching encoder:

  * f_S : F_p^{n1} -> F_p^{n2+n3},  M' = L1 + T(S) L2, the privacy hash
    whose preimages carry the wiretap randomization;
  * g_S': F_p^{n2} x F_p^{n3} -> F_p^{n3},  C = Y + T(S') M, the error
    verification hash;
  * psi_S, the inverse map feeding the error-correcting encoder.

The combined message block M' is always ordered (Y || M): the covering
variable Y occupies the first n3 symbols and the message M the last n2.
Everything is batch-first: a seed holds an int array of shape (..., length)
and every input is an int array whose last axis is the vector; leading
axes broadcast, so one call hashes a whole Monte Carlo batch and a single
vector is just the unbatched case.  Every input (L in f_S, Y and M in
g_S', Y, M and L2 in psi_S) must hold residues in [0, p); anything else
raises ValueError: the Toeplitz product checks what it reads, and each
hash checks what it adds to the unreduced product in int64.  Seeds
are drawn by the protocol layer from its seeded RNG streams; hashing itself
is deterministic.

A seed is a ``gf.Toeplitz`` batch with the hash's split and a prime
modulus: immutable, with its ``vec`` reduced mod p once and read-only, so
it owns its Toeplitz spectrum, computed on first use and reused by every
later hash under that seed (psi_S at encode and f_S at decode share one;
the two g_S' calls of a run share another).  ``seed.rows(idx)`` is the
seed of a row subset of a batch, with those rows of the spectrum, so
hashing a few rows of a batch transforms no seed again.  Each hash adds
into the seed's exact, unreduced Toeplitz product and reduces the sum mod
p once; psi_S reduces only its first n2+n3 symbols, since L2 is a residue
word already.
"""

from __future__ import annotations

import numpy as np

from .gf import Toeplitz, _check_len, _check_prime, _check_residues, _mod


class SeedS(Toeplitz):
    """Seeds for f_S: an int array (..., n1 - 1) plus the (n1, n2, n3) split.

    T(S) is the (n2+n3) x (n1-n2-n3) Toeplitz batch of ``gf.Toeplitz``.
    """

    __slots__ = ("n1", "n2", "n3")

    def __init__(self, vec, n1: int, n2: int, n3: int, p: int):
        if not (n1 > n2 + n3 > 0):
            raise ValueError(f"need n1 > n2 + n3 > 0, got {(n1, n2, n3)}")
        super().__init__(vec, n2 + n3, n1 - n2 - n3, _check_prime(p))
        self._set(n1=n1, n2=n2, n3=n3)


class SeedSPrime(Toeplitz):
    """Seeds for g_S': an int array (..., n2 + n3 - 1); T(S') is n3 x n2."""

    __slots__ = ("n2", "n3")

    def __init__(self, vec, n2: int, n3: int, p: int):
        if n2 < 1 or n3 < 1:
            raise ValueError(f"need n2, n3 >= 1, got {(n2, n3)}")
        super().__init__(vec, n3, n2, _check_prime(p))
        self._set(n2=n2, n3=n3)


def f_s(seed: SeedS, L) -> np.ndarray:
    """M' = L1 + T(S) L2 row-wise, with L1 the first n2+n3 symbols of L.

    The output packs (Y, M): Y = M'[..., :n3], M = M'[..., n3:].
    """
    L = np.asarray(L, dtype=np.int64)
    _check_len("input", L, seed.n1)
    L1 = L[..., :seed.d1]
    _check_residues("input", L1, seed.p)  # the product checks L2
    return _mod(L1 + seed._product(L[..., seed.d1:]), seed.p)


def f_s_split(seed: SeedS, L) -> tuple[np.ndarray, np.ndarray]:
    """f_S with the (Y, M) slots returned separately."""
    mp = f_s(seed, L)
    return mp[..., :seed.n3], mp[..., seed.n3:]


def g_sprime(seed: SeedSPrime, M, Y) -> np.ndarray:
    """Error-verification hash C = Y + T(S') M, row-wise."""
    Y = np.asarray(Y, dtype=np.int64)
    _check_len("Y", Y, seed.n3)
    _check_residues("Y", Y, seed.p)
    return _mod(Y + seed._product(M), seed.p)


def psi_s(seed: SeedS, M, Y, L2) -> np.ndarray:
    """Randomized preimage (M' - T(S) L2, L2) of M' = (Y || M) under f_S.

    This is the information word handed to the error-correcting encoder;
    f_s(seed, psi_s(seed, M, Y, L2)) = (Y || M) for every L2 by cancellation.
    M, Y and L2 share their leading axes; the seed's broadcast against them.
    """
    M, Y, L2 = (np.asarray(v, dtype=np.int64) for v in (M, Y, L2))
    _check_len("M", M, seed.n2)
    _check_len("Y", Y, seed.n3)
    word = np.concatenate([Y, M, L2], axis=-1)
    head = word[..., :seed.d1]  # (Y, M); the product checks L2
    _check_residues("input", head, seed.p)
    head[...] = _mod(head - seed._product(L2), seed.p)
    return word
