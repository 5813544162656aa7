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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import FieldVec, _check_prime, toeplitz_apply_batch


def _check_len(name: str, arr: np.ndarray, length: int) -> None:
    if arr.shape[-1:] != (length,):
        raise ValueError(f"{name} shape {arr.shape} needs a last axis of length {length}")


def _seed_array(vec, length: int, p: int) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.int64) % p
    _check_len("seed", arr, length)
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


def f_s(seed: SeedS, L) -> np.ndarray:
    """M' = L1 + T(S) L2 row-wise, with L1 the first n2+n3 symbols of L.

    The output packs (Y, M): Y = M'[..., :n3], M = M'[..., n3:].
    """
    L = np.asarray(L, dtype=np.int64)
    _check_len("input", L, seed.n1)
    k = seed.n2 + seed.n3
    t = toeplitz_apply_batch(seed.vec, L[..., k:], k, seed.n1 - k, seed.p)
    return (L[..., :k] + t) % seed.p


def f_s_split(seed: SeedS, L) -> tuple[np.ndarray, np.ndarray]:
    """f_S with the (Y, M) slots returned separately."""
    mp = f_s(seed, L)
    return mp[..., :seed.n3], mp[..., seed.n3:]


def _t_sprime(seed: SeedSPrime, M) -> np.ndarray:
    M = np.asarray(M, dtype=np.int64)
    _check_len("M", M, seed.n2)
    return toeplitz_apply_batch(seed.vec, M, seed.n3, seed.n2, seed.p)


def g_sprime(seed: SeedSPrime, M, Y) -> np.ndarray:
    """Error-verification hash C = Y + T(S') M, row-wise."""
    Y = np.asarray(Y, dtype=np.int64)
    _check_len("Y", Y, seed.n3)
    return (Y + _t_sprime(seed, M)) % seed.p


def y_of(M, seed: SeedSPrime, C) -> np.ndarray:
    """The unique Y with g_S'(M, Y) = C, namely Y = C - T(S') M."""
    C = np.asarray(C, dtype=np.int64)
    _check_len("C", C, seed.n3)
    return (C - _t_sprime(seed, M)) % seed.p


def psi_s(seed: SeedS, M, Y, L2) -> np.ndarray:
    """Randomized preimage (M' - T(S) L2, L2) of M' = (Y || M) under f_S.

    This is the information word handed to the error-correcting encoder;
    f_s(seed, psi_s(seed, M, Y, L2)) = (Y || M) for every L2 by cancellation.
    M, Y and L2 share their leading axes; the seed's broadcast against them.
    """
    M, Y, L2 = (np.asarray(v, dtype=np.int64) for v in (M, Y, L2))
    _check_len("M", M, seed.n2)
    _check_len("Y", Y, seed.n3)
    k = seed.n2 + seed.n3
    _check_len("L2", L2, seed.n1 - k)
    t = toeplitz_apply_batch(seed.vec, L2, k, seed.n1 - k, seed.p)
    head = (np.concatenate([Y, M], axis=-1) - t) % seed.p
    return np.concatenate([head, L2 % seed.p], axis=-1)


def collision_probability(l: FieldVec, lp: FieldVec, n1: int, n2: int, n3: int) -> Fraction:
    """Exact Pr over uniform seeds S that f_S(l) = f_S(l').

    The difference f_S(l) - f_S(l') = (L1 - L1') + T(S)(L2 - L2') is an
    affine function of the seed.  If the L2 parts agree the hash values
    collide never (for l != l'); otherwise the map S -> T(S)(L2 - L2') is
    surjective onto F_p^{n2+n3} (triangular in the seed entries), giving
    probability exactly p^-(n2+n3) = 1/M'.
    """
    if l == lp:
        raise ValueError("collision probability needs distinct inputs")
    if len(l) != n1 or len(lp) != n1:
        raise ValueError("inputs must have length n1")
    k = n2 + n3
    if np.array_equal(l.values[k:], lp.values[k:]):
        return Fraction(0)
    return Fraction(1, l.p**k)
