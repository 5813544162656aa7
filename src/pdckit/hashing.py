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
vector is just the unbatched case.  Seeds are drawn by the protocol layer
from its seeded RNG streams; hashing itself is deterministic.

A seed object is read-only: its ``vec`` is reduced mod p once and cannot
be written, so it owns its Toeplitz spectrum, computed by the gf kernel on
first use and reused by every later hash under that seed (psi_S at encode
and f_S at decode share one; the two g_S' calls of a run share another).
The spectrum of a batch is one row per seed, so ``_seed_rows`` gives the
seeds of a row subset with those rows of the spectrum, and hashing a few
rows of a batch transforms no seed again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .gf import _check_prime, _mod, _seed_spectrum, _toeplitz


def _check_len(name: str, arr: np.ndarray, length: int) -> None:
    if arr.shape[-1:] != (length,):
        raise ValueError(f"{name} shape {arr.shape} needs a last axis of length {length}")


def _seed_array(vec, length: int, p: int) -> np.ndarray:
    arr = _mod(np.asarray(vec, dtype=np.int64), p)
    _check_len("seed", arr, length)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SeedS:
    """Seeds for f_S: an int array (..., n1 - 1) plus the (n1, n2, n3) split."""

    vec: np.ndarray
    n1: int
    n2: int
    n3: int
    p: int

    def __post_init__(self):
        if not (self.n1 > self.n2 + self.n3 > 0):
            raise ValueError(f"need n1 > n2 + n3 > 0, got {(self.n1, self.n2, self.n3)}")
        object.__setattr__(self, "p", _check_prime(self.p))
        object.__setattr__(self, "vec", _seed_array(self.vec, self.n1 - 1, self.p))

    @cached_property
    def _spectrum(self) -> np.ndarray | None:
        k = self.n2 + self.n3
        return _seed_spectrum(self.vec, k, self.n1 - k, self.p)

    def _apply(self, L2: np.ndarray) -> np.ndarray:
        """T(S) L2 mod p, the (n2+n3) x (n1-n2-n3) product."""
        k = self.n2 + self.n3
        return _toeplitz(self.vec, self._spectrum, L2, k, self.n1 - k, self.p)


@dataclass(frozen=True)
class SeedSPrime:
    """Seeds for g_S': an int array (..., n2 + n3 - 1)."""

    vec: np.ndarray
    n2: int
    n3: int
    p: int

    def __post_init__(self):
        if self.n2 < 1 or self.n3 < 1:
            raise ValueError(f"need n2, n3 >= 1, got {(self.n2, self.n3)}")
        object.__setattr__(self, "p", _check_prime(self.p))
        object.__setattr__(self, "vec", _seed_array(self.vec, self.n2 + self.n3 - 1, self.p))

    @cached_property
    def _spectrum(self) -> np.ndarray | None:
        return _seed_spectrum(self.vec, self.n3, self.n2, self.p)

    def _apply(self, M: np.ndarray) -> np.ndarray:
        """T(S') M mod p, the n3 x n2 product."""
        return _toeplitz(self.vec, self._spectrum, M, self.n3, self.n2, self.p)


def _seed_rows(seed: SeedS | SeedSPrime, rows: np.ndarray | slice) -> SeedS | SeedSPrime:
    """The seeds in ``rows`` (indices into the first axis, or ``slice(None)``
    for all of them) of a batch, with those rows of its spectrum."""
    if isinstance(rows, slice):
        return seed
    spectrum = seed._spectrum
    sub = replace(seed, vec=seed.vec[rows])
    sub.__dict__["_spectrum"] = None if spectrum is None else spectrum[rows]
    return sub


def f_s(seed: SeedS, L) -> np.ndarray:
    """M' = L1 + T(S) L2 row-wise, with L1 the first n2+n3 symbols of L.

    The output packs (Y, M): Y = M'[..., :n3], M = M'[..., n3:].
    """
    L = np.asarray(L, dtype=np.int64)
    _check_len("input", L, seed.n1)
    k = seed.n2 + seed.n3
    return _mod(L[..., :k] + seed._apply(L[..., k:]), seed.p)


def f_s_split(seed: SeedS, L) -> tuple[np.ndarray, np.ndarray]:
    """f_S with the (Y, M) slots returned separately."""
    mp = f_s(seed, L)
    return mp[..., :seed.n3], mp[..., seed.n3:]


def g_sprime(seed: SeedSPrime, M, Y) -> np.ndarray:
    """Error-verification hash C = Y + T(S') M, row-wise."""
    Y = np.asarray(Y, dtype=np.int64)
    _check_len("Y", Y, seed.n3)
    M = np.asarray(M, dtype=np.int64)
    _check_len("M", M, seed.n2)
    return _mod(Y + seed._apply(M), seed.p)


def psi_s(seed: SeedS, M, Y, L2) -> np.ndarray:
    """Randomized preimage (M' - T(S) L2, L2) of M' = (Y || M) under f_S.

    This is the information word handed to the error-correcting encoder;
    f_s(seed, psi_s(seed, M, Y, L2)) = (Y || M) for every L2 by cancellation.
    M, Y and L2 share their leading axes; the seed's broadcast against them.
    """
    M, Y, L2 = (np.asarray(v, dtype=np.int64) for v in (M, Y, L2))
    _check_len("M", M, seed.n2)
    _check_len("Y", Y, seed.n3)
    _check_len("L2", L2, seed.n1 - seed.n2 - seed.n3)
    head = np.concatenate([Y, M], axis=-1) - seed._apply(L2)
    return _mod(np.concatenate([head, L2], axis=-1), seed.p)
