"""Pauli-error distributions over F_p^2 and the classical entropy functionals.

A PauliDist assigns a probability to each symplectic pair (x, z) in F_p^2.
It is the classical heart of every rate and bound: the preshared-state noise,
the forward-channel noise, and their convolution all live here, as do the
Shannon and Renyi entropies the bound formulas consume.

Conventions fixed once for the whole package:
  * all logarithms are base 2 (bits), including log d_A = log2 p;
  * 0 * log 0 := 0 and 0^alpha := 0: entropies drop exact zeros and keep
    every positive mass, however small (``_masses``);
  * distributions are normalized at construction when within 1e-9 of total
    mass 1, and rejected otherwise (a NaN mass included);
  * a PauliDist holds at most 10^6 cells (p <= 997): a larger p raises
    SizeCapError before any (p, p) array is built.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gf import _ENUM_CAP, SizeCapError, _check_prime

_NORMALIZE_TOL = 1e-9


def _check_pair_modulus(p: int) -> int:
    """p as a prime whose p^2 cells are within ``_ENUM_CAP``, checked before
    any (p, p) array exists: SizeCapError above it."""
    p = _check_prime(p)
    if p * p > _ENUM_CAP:
        raise SizeCapError(f"a Pauli law over F_{p}^2 has {p * p} cells, above {_ENUM_CAP}")
    return p


def _validated_probs(probs, n: int, what: str) -> np.ndarray:
    arr = np.asarray(probs, dtype=float).reshape(-1)
    if arr.size != n:
        raise ValueError(f"{what} needs {n} entries, got {arr.size}")
    if np.any(arr < -1e-12):
        raise ValueError(f"{what} has negative entries")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if not abs(total - 1.0) <= _NORMALIZE_TOL:  # NaN fails it too
        raise ValueError(f"{what} mass {total} is not within {_NORMALIZE_TOL} of 1")
    return arr / total


class PauliDist:
    """Probability distribution over F_p^2, indexed by (x, z).

    ``probs`` is stored as a (p, p) array with probs[x, z]; serialization is
    the flat row-major list (x outer, z inner).
    """

    __slots__ = ("p", "probs")

    def __init__(self, probs, p: int):
        self.p = _check_pair_modulus(p)
        flat = _validated_probs(probs, self.p**2, "PauliDist")
        self.probs = flat.reshape(self.p, self.p)

    def __getitem__(self, xz) -> float:
        x, z = xz
        return float(self.probs[int(x) % self.p, int(z) % self.p])

    def flat(self) -> np.ndarray:
        return self.probs.reshape(-1)

    def to_json(self) -> list[float]:
        """Flat row-major (x, z) list, the transcript/report wire format."""
        return [float(v) for v in self.flat()]

    @classmethod
    def from_json(cls, data, p: int) -> "PauliDist":
        return cls(data, p)

    @classmethod
    def point_mass(cls, x: int, z: int, p: int) -> "PauliDist":
        p = _check_pair_modulus(p)
        arr = np.zeros((p, p))
        arr[x % p, z % p] = 1.0
        return cls(arr, p)

    @classmethod
    def uniform(cls, p: int) -> "PauliDist":
        p = _check_pair_modulus(p)
        return cls(np.full(p * p, 1.0 / (p * p)), p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliDist)
            and self.p == other.p
            and np.allclose(self.probs, other.probs, atol=1e-14)
        )

    def __repr__(self) -> str:
        return f"PauliDist(p={self.p}, probs={self.flat().tolist()})"


class MarginalDist:
    """Distribution over F_p, e.g. the law of lX - kZ under a PauliDist."""

    __slots__ = ("p", "probs")

    def __init__(self, probs, p: int):
        self.p = _check_prime(p)
        self.probs = _validated_probs(probs, self.p, "MarginalDist")

    def __getitem__(self, s) -> float:
        return float(self.probs[int(s) % self.p])

    def __repr__(self) -> str:
        return f"MarginalDist(p={self.p}, probs={self.probs.tolist()})"


def depolarizing(mix: float, p: int) -> PauliDist:
    """Pauli distribution of the depolarizing channel (1-mix) rho + mix rho_mix.

    Expanding the maximally mixing term in the Weyl basis puts weight
    (1-mix) + mix/p^2 on (0,0) and mix/p^2 on every other pair.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must be in [0, 1], got {mix}")
    p = _check_pair_modulus(p)
    arr = np.full((p, p), mix / p**2)
    arr[0, 0] += 1.0 - mix
    return PauliDist(arr, p)


def convolve(P: PauliDist, Q: PauliDist) -> PauliDist:
    """Group convolution (P * Q)(x, z) = sum P(x', z') Q(x-x', z-z').

    Each output cell is the sum of the p^2 products P(x', z') Q(x-x', z-z')
    over x' outer, z' inner, reduced by numpy's pairwise sum, so the result is
    byte-identical to summing each cell with its own ``np.sum``.  A window
    view of the reversed, 2x2-tiled Q lines up Q(x-x', z-z') for every (z, x',
    z') of one row x, and each row is one (p, p^2) multiply-and-sum: no
    Python loop over cells and no p^4 index array.  Every row's products go
    into one reused C-contiguous (p, p, p) buffer, whose (p, p^2) view is
    summed in place, so no row allocates and no reshape copies the
    negatively strided product.  An FFT (or a separable transform) would be
    O(p^2 log p) but rounds differently and would change printed digits, so
    it is not used.
    """
    if P.p != Q.p:
        raise ValueError(f"modulus mismatch: {P.p} vs {Q.p}")
    p = P.p
    # windows[u, v, a, b] = Q[(-1-u-a) % p, (-1-v-b) % p]; u = p-1-x lines
    # up win[x, z, x', z'] = Q[(x - x') % p, (z - z') % p]
    windows = sliding_window_view(np.tile(Q.probs, (2, 2))[::-1, ::-1], (p, p))
    win = windows[p - 1::-1, p - 1::-1]
    out = np.empty((p, p))
    products = np.empty((p, p, p))
    rows = products.reshape(p, p * p)  # a view: products is C-contiguous
    for x in range(p):
        np.multiply(P.probs, win[x], out=products)
        rows.sum(axis=1, out=out[x])
    return PauliDist(out, p)


def shift(P: PauliDist, x, z) -> PauliDist:
    """Translate indices: F_{x,z}[P](x', z') = P(x'-x, z'-z)."""
    p = P.p
    dx = int(x) % p
    dz = int(z) % p
    return PauliDist(np.roll(P.probs, (dx, dz), axis=(0, 1)), p)


def _masses(probs) -> np.ndarray:
    """The positive masses of a law, flat.  The one mass rule: only exact
    zeros go, since at alpha < 1 even a 1e-20 mass adds 1e-20^alpha."""
    x = np.asarray(probs, dtype=float).reshape(-1)
    return x[x > 0.0]


def _renyi_of_masses(masses: np.ndarray, orders) -> np.ndarray:
    """The one Renyi power sum log2(sum x^alpha) / (1 - alpha), in the shape
    of ``orders``: unvalidated, for ``_masses`` output and orders >= 0, != 1."""
    orders = np.asarray(orders)
    return np.log2(np.power(masses, orders[..., None]).sum(axis=-1)) / (1.0 - orders)


def shannon(probs) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    x = _masses(probs)
    return float(-(x * np.log2(x)).sum())


def renyi_entropy(probs, alpha):
    """Renyi entropy H_alpha in bits at one order (a float) or an array of
    orders (an array), each >= 0: alpha = 0 is H_0, and within 1e-12 of 1
    the Shannon entropy.  Raises ValueError on a negative or NaN order."""
    orders = np.asarray(alpha, dtype=float)
    if not np.all(orders >= 0.0):
        raise ValueError(f"Renyi orders must be >= 0, got {alpha}")
    x = _masses(probs)
    at_one = np.abs(orders - 1.0) < 1e-12
    h = _renyi_of_masses(x, np.where(at_one, 0.0, orders))
    if at_one.any():
        h = np.where(at_one, shannon(x), h)
    return float(h) if h.ndim == 0 else h


def marginal(P: PauliDist, l, k) -> MarginalDist:
    """Law of lX - kZ: probs[s] = sum over (x,z) with lx - kz = s of P(x,z)."""
    p = P.p
    li = int(l) % p
    ki = int(k) % p
    if li == 0 and ki == 0:
        raise ValueError("(l, k) = (0, 0) has no informative marginal")
    out = np.zeros(p)
    xs, zs = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    s = (li * xs - ki * zs) % p
    for v in range(p):
        out[v] = P.probs[s == v].sum()
    return MarginalDist(out, p)


def sibson_mutual_info(px, channel, alpha: float) -> float:
    """Sibson's Renyi mutual information min_Q D_alpha(P_XE || P_X x Q), in bits.

    ``channel`` is a (n_outputs, n_inputs) column-stochastic matrix W[e, x];
    ``px`` an input distribution.  The minimizer over Q is closed form and
    yields  (alpha / (alpha - 1)) log2 sum_e [sum_x P(x) W(e|x)^alpha]^{1/alpha}.

    For classical channels the Petz and sandwiched optimized mutual
    informations coincide with this quantity.
    """
    if alpha <= 0 or abs(alpha - 1.0) < 1e-12:
        raise ValueError("sibson_mutual_info requires alpha > 0, alpha != 1")
    W = np.asarray(channel, dtype=float)
    px = np.asarray(px, dtype=float).reshape(-1)
    if W.ndim != 2 or W.shape[1] != px.size:
        raise ValueError("channel must be (n_outputs, n_inputs) matching px")
    inner = (np.clip(W, 0.0, None) ** alpha) @ px  # A(e) = sum_x P(x) W(e|x)^alpha
    inner = inner[inner > 0]
    return float((alpha / (alpha - 1.0)) * np.log2(np.sum(inner ** (1.0 / alpha))))
