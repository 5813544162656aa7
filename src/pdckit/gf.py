"""Prime-field vectors, F_p enumeration, and the batched Toeplitz product.

Everything downstream (hashing, coding, protocol transcripts) works with
residues modulo a prime p held in int64 numpy arrays.  FieldVec is the
validated message type at the API edge; inside, vectors are plain arrays
with leading batch axes.  ``toeplitz_apply_batch`` is the one Toeplitz
product in the package, over any batch of seeds, with two algorithms that
return the same integers: a strided-window einsum guarded against int64
overflow, and for long blocks a zero-padded real FFT, taken only where its
float error is provably below 1/2 so that rounding recovers the exact sum.

Index convention for Toeplitz matrices: with a seed vector V of length
d1+d2-1 (1-based entries V_1..V_{d1+d2-1}), the d1 x d2 matrix is

    T[i, j] = V_{i-j+d2}   (1-based i, j)

so every diagonal is constant and the whole seed is consumed.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (fine for desk-scale p)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> int:
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


class FieldVec:
    """A nonempty vector over F_p with a uniform modulus.

    Stores an int64 numpy array of residues in ``.values``, the form the
    batched hashing and protocol layers consume.
    """

    __slots__ = ("p", "values")

    def __init__(self, values, p: int):
        self.p = _check_prime(p)
        arr = np.asarray(values, dtype=np.int64) % self.p
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("FieldVec requires a nonempty 1-d sequence")
        self.values = arr

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldVec)
            and self.p == other.p
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"FieldVec({self.values.tolist()}, p={self.p})"

    def tolist(self) -> list[int]:
        return self.values.tolist()


def _check_int64_dot(p: int, length: int) -> None:
    """Raise ValueError unless a sum of ``length`` products of residues fits int64."""
    if (p - 1) ** 2 * length >= 2**63:
        raise ValueError(
            f"a length-{length} dot product of residues mod {p} can overflow int64")


def all_vectors(p: int, length: int) -> np.ndarray:
    """All p**length vectors over F_p, one per row, in lexicographic order."""
    idx = np.arange(p**length, dtype=np.int64)
    return idx[:, None] // p ** np.arange(length - 1, -1, -1, dtype=np.int64) % p


# Smallest d1*d2 that takes the FFT path.  Measured with one BLAS thread on
# a 2-vCPU machine, p = 2, batch of 250 rows (einsum vs FFT, microseconds):
# 32x32 122 vs 99, 48x48 247 vs 306, 64x64 408 vs 265, 192x320 5,617 vs
# 1,317.  A single row pays up to about 10 us more per call in the FFT from
# 4,096 to about 30,000, where the two meet; a transcript does not notice.
_FFT_MIN_PRODUCT = 4096


def toeplitz_apply_batch(seeds, xs, d1: int, d2: int, p: int) -> np.ndarray:
    """Row-wise y = T(seed) x mod p; leading batch axes of seeds and xs broadcast.

    ``seeds`` has shape (..., d1+d2-1) and ``xs`` (..., d2); the result has
    shape (..., d1).  With 0-based indices y[i] = sum_k V[i+k] x[d2-1-k].
    Entries must be residues in [0, p), which both algorithms assume.

    Direct: each seed is viewed through a read-only (d1, d2) strided window
    and contracted with x reversed by an int64 einsum; no matrix is ever
    materialized.  It raises ValueError when (p-1)^2 d2 can overflow int64.

    FFT: y is entries d2-1 .. d1+d2-2 of the linear convolution V * x,
    which a circular convolution of length N >= d1+d2-1 holds unwrapped.
    N is the next power of two (250 rows of 511-point transforms took 2.5
    times as long as of 512-point ones).  The float64 result is rounded and
    reduced mod p.  This path runs only when both rules hold, and they read
    d1, d2 and p alone:

    * size: d1*d2 >= ``_FFT_MIN_PRODUCT``, the measured crossover;
    * exactness: (p-1)^2 sqrt((d1+d2-1) d2) <= 2^30.  Residue entries give
      ||V||_2 ||x||_2 <= 2^30, and the float64 FFT convolution error is at
      most ||V||_2 ||x||_2 c u log2(N), with u = 2^-53 and c about 13 when
      the twiddle factors are accurate to u (Percival, Math. Comp. 72
      (2003) 387-395).  That is below 1e-4 for N <= 2^20 and below 1/2 for
      any N that fits in memory, so rounding returns the einsum's integers
      bit for bit.

    Above the exactness rule (large p) only the direct path is exact.
    """
    _check_int64_dot(p, d2)
    seeds = np.asarray(seeds, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    if seeds.shape[-1:] != (d1 + d2 - 1,):
        raise ValueError(f"seed shape {seeds.shape} needs a last axis of d1+d2-1 = {d1 + d2 - 1}")
    if xs.shape[-1:] != (d2,):
        raise ValueError(f"input shape {xs.shape} needs a last axis of d2 = {d2}")
    if d1 * d2 >= _FFT_MIN_PRODUCT and (p - 1) ** 4 * (d1 + d2 - 1) * d2 <= 2**60:
        n = 1 << (d1 + d2 - 2).bit_length()
        full = np.fft.irfft(np.fft.rfft(seeds, n) * np.fft.rfft(xs, n), n)
        return np.rint(full[..., d2 - 1:d1 + d2 - 1]).astype(np.int64) % p
    step = seeds.strides[-1]
    window = as_strided(seeds, seeds.shape[:-1] + (d1, d2),
                        seeds.strides[:-1] + (step, step), writeable=False)
    return np.einsum("...ik,...k->...i", window, xs[..., ::-1]) % p
