"""Prime-field vectors, F_p enumeration, and the batched Toeplitz product.

Everything downstream (hashing, coding, protocol transcripts) works with
residues modulo a prime p held in int64 numpy arrays.  FieldVec is the
validated message type at the API edge; inside, vectors are plain arrays
with leading batch axes.  This module owns the one order of F_p words:
``all_vectors(p, L)`` lists all p^L words of length L lexicographically,
``word_index`` maps a word back to its row there (the word read as a
base-p number), and ``_check_enum`` refuses, before any array is built,
an enumeration of more than ``_ENUM_CAP`` cells.  The batched layers
reduce mod p through ``_mod``, which equals ``a % p`` for every int64
array but computes a - (a // p) p on large arrays: numpy divides by a
scalar through a precomputed multiplier, while its ``%`` runs a hardware
division per entry.  A large array that already holds residues is copied,
not divided again.
``Toeplitz`` is the one Toeplitz product in the package: an immutable
batch of seeds, reduced mod p into a read-only array, applied to any batch
of inputs by one of two algorithms that return the same integers: a
strided-window einsum guarded against int64 overflow, and for long blocks
a zero-padded real FFT, taken only where its float error is provably below
1/2 so that rounding recovers the exact sum.  A seed's spectrum (its FFT)
depends only on the seed, so a seed computes it once, on first use, and
every later product under it reuses it.  A batch's spectrum has one row
per seed, so ``Toeplitz.rows`` gives a row subset of a batch with those
rows of the spectrum and transforms no seed again.  The hash seeds of
``hashing`` are Toeplitz seeds, and ``toeplitz_apply_batch`` is a one-off
product.  A product builds its zero-padded float input once and
transforms back into that buffer; neither choice changes an arithmetic
step of the FFT convolution, and the error bound below makes its rounded
integers exact.

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


# the most cells a dense law or an enumeration may hold
_ENUM_CAP = 10**6


class SizeCapError(ValueError):
    """An instance exceeds a size cap; raised before its arrays are built."""


def _check_enum(total: int, what: str) -> None:
    """SizeCapError when an enumeration of ``total`` ``what`` exceeds ``_ENUM_CAP``."""
    if total > _ENUM_CAP:
        raise SizeCapError(f"enumeration of {total} {what} exceeds cap {_ENUM_CAP}")


class FieldVec:
    """A nonempty vector over F_p with a uniform modulus.

    Stores an int64 numpy array of residues in ``.values``, the form the
    batched hashing and protocol layers consume.  Symbols must be integers
    (Python or numpy); floats and strings raise ValueError rather than being
    truncated or parsed, and so do symbols outside [0, p) rather than being
    reduced: at the API edge they are more likely a typo than an intended
    residue.
    """

    __slots__ = ("p", "values")

    def __init__(self, values, p: int):
        self.p = _check_prime(p)
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("FieldVec requires a nonempty 1-d sequence")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"FieldVec symbols must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
        bad = arr[(arr < 0) | (arr >= self.p)]
        if bad.size:
            raise ValueError(f"symbol {bad[0]} is outside [0, {self.p})")
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
    """Raise ValueError unless a sum of ``length`` products of residues, plus
    one more residue, fits int64."""
    if (p - 1) ** 2 * length + p - 1 >= 2**63:
        raise ValueError(
            f"a length-{length} dot product of residues mod {p} can overflow int64")


# Smallest array that ``_mod`` reduces by division: below it one ``%`` beats
# three ufunc calls.  Measured on a 2-vCPU machine for (1, size) arrays at
# p = 2, 31 and 65521: the two meet between 512 and 1,024 entries; at 2,048
# entries ``%`` takes 10 us and the division 7 us.
_DIV_MIN_SIZE = 1024


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """``a % p`` for an int64 array and a prime p, as a new array.

    The result never shares memory with ``a``, so a caller may write into
    it.  Large arrays that already hold residues are copied, not divided:
    one unsigned max finds them, since a negative entry reads as at least
    2^63 there.  Other large arrays take a - (a // p) p, computed in the one
    output array.  It is exact for every int64 entry: where q p wraps near
    INT64_MIN, the true result fits int64, so the wrap in the subtraction
    cancels it.  Every step is an array ufunc with ``out=``, so a 0-d input
    cannot reach numpy's scalar arithmetic, which warns on the wrap.
    """
    if a.size < _DIV_MIN_SIZE:
        return a % p
    if a.view(np.uint64).max() < p:
        return a.copy()
    out = np.floor_divide(a, p, out=np.empty_like(a))
    np.multiply(out, p, out=out)
    return np.subtract(a, out, out=out)


def _place_values(p: int, length: int) -> np.ndarray:
    """p^{length-1}, ..., p, 1: the base-p place value of each symbol of a word."""
    return p ** np.arange(length - 1, -1, -1, dtype=np.int64)


def all_vectors(p: int, length: int) -> np.ndarray:
    """All p**length vectors over F_p, one per row, in lexicographic order."""
    idx = np.arange(p**length, dtype=np.int64)
    return idx[:, None] // _place_values(p, length) % p


def word_index(words, p: int) -> np.ndarray:
    """The row of each (..., L) word of residues in ``all_vectors(p, L)``.

    The word read as a base-p number, one int64 per word; the symbols must
    lie in [0, p), which is not checked.
    """
    words = np.asarray(words, dtype=np.int64)
    return words @ _place_values(p, words.shape[-1])


# Smallest d1*d2 that takes the FFT path.  Measured with one BLAS thread on
# a 2-vCPU machine, p = 2, batch of 250 rows, best of three runs (einsum vs
# FFT vs FFT given the seed's spectrum, microseconds): 32x32 187 vs 191 vs
# 136, 48x48 393 vs 626 vs 349, 64x64 1,028 vs 517 vs 249, 192x320 12,597
# vs 3,374 vs 1,898.  The paths meet between 48x48 and 64x64 with or without
# the reused spectrum.  A single row pays 12 to 20 us more per call in the
# FFT at 64x64 and 4 to 9 us at 96x320; a transcript does not notice.
_FFT_MIN_PRODUCT = 4096


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    """``a`` as float64, zero-padded along its last axis to length n, in one array."""
    buf = np.zeros(a.shape[:-1] + (n,))
    buf[..., :a.shape[-1]] = a
    return buf


def _check_len(name: str, arr: np.ndarray, length: int) -> None:
    if arr.shape[-1:] != (length,):
        raise ValueError(f"{name} shape {arr.shape} needs a last axis of length {length}")


_UNSET = object()


class Toeplitz:
    """A batch of d1 x d2 Toeplitz matrices over F_p: y = T(seed) x mod p, row-wise.

    ``seeds`` has shape (..., d1+d2-1) and ``xs`` (..., d2); leading batch
    axes broadcast and the product has shape (..., d1).  With 0-based
    indices y[i] = sum_k V[i+k] x[d2-1-k].  Seeds must be integers (floats,
    strings and bools raise ValueError rather than being truncated, parsed
    or counted); they are reduced mod p into a read-only int64 ``vec``.
    Inputs must be residues in [0, p), which both algorithms assume; any
    other input raises ValueError, as at ``FieldVec``, rather than returning
    wrong integers.  A seed is immutable: assigning any attribute raises
    AttributeError.

    Direct: each seed is viewed through a read-only (d1, d2) strided window
    and contracted with x reversed by an int64 einsum; no matrix is ever
    materialized.  The constructor raises ValueError when (p-1)^2 d2 plus a
    residue can overflow int64, so no product is attempted that neither
    algorithm can return exactly, and a hash can add a residue to the
    unreduced product (``_product``) and reduce the sum once.

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

    Above the exactness rule (large p) only the direct path is exact.  The
    seeds' transform, ``spectrum``, is the only part of the FFT path that
    does not depend on x, so a seed computes it on first use and every later
    product reuses it.  It has one row per seed, so ``rows`` hands a row
    subset of a batch those rows of it and transforms no seed again.
    """

    __slots__ = ("vec", "d1", "d2", "p", "_spectrum")

    def __init__(self, seeds, d1: int, d2: int, p: int):
        arr = np.asarray(seeds)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"seeds must be integers, got dtype {arr.dtype}")
        _check_len("seed", arr, d1 + d2 - 1)
        _check_int64_dot(p, d2)
        vec = _mod(np.asarray(arr, dtype=np.int64), p)
        vec.flags.writeable = False
        fft = d1 * d2 >= _FFT_MIN_PRODUCT and (p - 1) ** 4 * (d1 + d2 - 1) * d2 <= 2**60
        self._set(vec=vec, d1=d1, d2=d2, p=p, _spectrum=_UNSET if fft else None)

    def _set(self, **attrs) -> None:
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @property
    def spectrum(self) -> np.ndarray | None:
        """The seeds' real FFT where products take the FFT path, else None."""
        if self._spectrum is _UNSET:
            n = 1 << (self.d1 + self.d2 - 2).bit_length()
            self._set(_spectrum=np.fft.rfft(_padded(self.vec, n)))
        return self._spectrum

    def rows(self, idx: np.ndarray | slice) -> Toeplitz:
        """The seeds in ``idx`` (indices into the first axis) with those rows
        of the spectrum; ``slice(None)`` is the seed itself."""
        if isinstance(idx, slice) and idx == slice(None):
            return self
        spectrum, sub = self.spectrum, object.__new__(type(self))
        sub._set(**{name: getattr(self, name) for cls in type(self).__mro__
                    for name in getattr(cls, "__slots__", ())})
        vec = self.vec[idx]
        vec.flags.writeable = False
        sub._set(vec=vec, _spectrum=None if spectrum is None else spectrum[idx])
        return sub

    def __call__(self, xs) -> np.ndarray:
        """T(seed) xs mod p, row-wise."""
        return _mod(self._product(xs), self.p)

    def _product(self, xs) -> np.ndarray:
        """T(seed) xs over the integers, row-wise, each entry in
        [0, (p-1)^2 d2].

        The FFT path transforms x from one padded buffer and, when the seeds
        do not broadcast x to more rows, multiplies in place and transforms
        back into that same buffer, so a product holds the buffer and one
        spectrum.
        """
        xs = np.asarray(xs, dtype=np.int64)
        _check_len("input", xs, self.d2)
        if xs.size and xs.view(np.uint64).max() >= self.p:  # negatives read >= 2^63
            raise ValueError(f"input symbols must be residues in [0, {self.p})")
        d1, d2, spectrum = self.d1, self.d2, self.spectrum
        if spectrum is not None:
            n = 1 << (d1 + d2 - 2).bit_length()
            buf = _padded(xs, n)
            prod = np.fft.rfft(buf)
            if np.broadcast_shapes(prod.shape, spectrum.shape) == prod.shape:
                prod *= spectrum
            else:
                prod, buf = prod * spectrum, None
            full = np.fft.irfft(prod, n, out=buf)[..., d2 - 1:d1 + d2 - 1]
            del prod
            return np.rint(full, out=full).astype(np.int64)
        step = self.vec.strides[-1]
        window = as_strided(self.vec, self.vec.shape[:-1] + (d1, d2),
                            self.vec.strides[:-1] + (step, step), writeable=False)
        return np.einsum("...ik,...k->...i", window, xs[..., ::-1])


def toeplitz_apply_batch(seeds, xs, d1: int, d2: int, p: int) -> np.ndarray:
    """Row-wise y = T(seed) x mod p, ``Toeplitz(seeds, d1, d2, p)(xs)``.

    The seeds are reduced mod p and the inputs must be residues.  A seed
    applied to several inputs should be built once as a ``Toeplitz``, so
    that its spectrum is computed once.
    """
    return Toeplitz(seeds, d1, d2, p)(xs)
