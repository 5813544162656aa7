"""Pauli-error distributions over F_p^2 and the classical entropy functionals.

A PauliDist assigns a probability to each symplectic pair (x, z) in F_p^2.
It is the classical heart of every rate and bound: the preshared-state noise,
the forward-channel noise, and their convolution all live here, as do the
Shannon and Renyi entropies the bound formulas consume.

Conventions fixed once for the whole package:
  * all logarithms are base 2 (bits), including log d_A = log2 p;
  * 0 * log 0 := 0, with a 1e-15 floor before raising tiny masses to powers;
  * distributions are normalized at construction when within 1e-9 of total
    mass 1, and rejected otherwise.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gf import _check_prime

_NORMALIZE_TOL = 1e-9
_MASS_FLOOR = 1e-15


def _validated_probs(probs, n: int, what: str) -> np.ndarray:
    arr = np.asarray(probs, dtype=float).reshape(-1)
    if arr.size != n:
        raise ValueError(f"{what} needs {n} entries, got {arr.size}")
    if np.any(arr < -1e-12):
        raise ValueError(f"{what} has negative entries")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if abs(total - 1.0) > _NORMALIZE_TOL:
        raise ValueError(f"{what} mass {total} is not within {_NORMALIZE_TOL} of 1")
    return arr / total


class PauliDist:
    """Probability distribution over F_p^2, indexed by (x, z).

    ``probs`` is stored as a (p, p) array with probs[x, z]; serialization is
    the flat row-major list (x outer, z inner).
    """

    __slots__ = ("p", "probs")

    def __init__(self, probs, p: int):
        self.p = _check_prime(p)
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
        arr = np.zeros((p, p))
        arr[x % p, z % p] = 1.0
        return cls(arr, p)

    @classmethod
    def uniform(cls, p: int) -> "PauliDist":
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
    p = _check_prime(p)
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
    Python loop over cells, no p^4 index array, a p^3 temporary.  An FFT (or
    a separable transform) would be O(p^2 log p) but rounds differently and
    would change printed digits, so it is not used.
    """
    if P.p != Q.p:
        raise ValueError(f"modulus mismatch: {P.p} vs {Q.p}")
    p = P.p
    # windows[u, v, a, b] = Q[(-1-u-a) % p, (-1-v-b) % p]; u = p-1-x lines
    # up win[x, z, x', z'] = Q[(x - x') % p, (z - z') % p]
    windows = sliding_window_view(np.tile(Q.probs, (2, 2))[::-1, ::-1], (p, p))
    win = windows[p - 1::-1, p - 1::-1]
    out = np.empty((p, p))
    for x in range(p):
        out[x] = (P.probs * win[x]).reshape(p, p * p).sum(axis=1)
    return PauliDist(out, p)


def shift(P: PauliDist, x, z) -> PauliDist:
    """Translate indices: F_{x,z}[P](x', z') = P(x'-x, z'-z)."""
    p = P.p
    dx = int(x) % p
    dz = int(z) % p
    return PauliDist(np.roll(P.probs, (dx, dz), axis=(0, 1)), p)


def shannon(probs) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    x = np.asarray(probs, dtype=float).reshape(-1)
    x = x[x > _MASS_FLOOR]
    return float(-(x * np.log2(x)).sum())


def renyi_entropy(probs, alpha: float) -> float:
    """Renyi entropy H_alpha in bits; alpha = 1 routes to Shannon.

    H_alpha(P) = log2(sum P(x)^alpha) / (1 - alpha) for alpha > 0, alpha != 1.
    """
    if alpha <= 0:
        raise ValueError(f"Renyi order must be positive, got {alpha}")
    if abs(alpha - 1.0) < 1e-12:
        return shannon(probs)
    x = np.asarray(probs, dtype=float).reshape(-1)
    x = x[x > _MASS_FLOOR]
    return float(np.log2(np.sum(x**alpha)) / (1.0 - alpha))


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


def char_value(P: PauliDist, l, k) -> complex:
    """Characteristic value E[omega^{lX - kZ}] with omega = e^{2 pi i / p}."""
    p = P.p
    li = int(l) % p
    ki = int(k) % p
    if li == 0 and ki == 0:
        return complex(1.0)
    m = marginal(P, li, ki)
    omega = np.exp(2j * np.pi / p)
    return complex(np.sum(m.probs * omega ** np.arange(p)))


def sibson_mutual_info(px, channel, alpha: float) -> float:
    """Sibson's Renyi mutual information min_Q D_alpha(P_XE || P_X x Q), in bits.

    ``channel`` is a (n_outputs, n_inputs) column-stochastic matrix W[e, x];
    ``px`` an input distribution.  The minimizer over For Q is closed form and
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
