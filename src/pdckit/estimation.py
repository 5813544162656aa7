"""Bell-diagonal state estimation from p+1 local measurement settings.

Each setting (l, k) measures the marginal law of lX - kZ; the p+1
scalar-inequivalent settings determine every characteristic value
E[omega^{aX + bZ}] by index scaling, and the two-dimensional character
inversion recovers the full Pauli distribution exactly.  Finite-shot
estimates are projected back onto the simplex by clipping negatives and
renormalizing.

The same setting statistics computed on an arbitrary two-qudit state and on
its twirl agree exactly, which is what lets the twirled-state estimate be
collected without ever applying the twirl; twirled_statistics_check verifies
this on the exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qexact
from .dists import MarginalDist, PauliDist, marginal
from .gf import _check_prime


@dataclass(frozen=True)
class MeasurementSetting:
    """Coefficient pair (l, k) of the measured linear form lX - kZ."""

    l: int
    k: int
    p: int

    def __post_init__(self):
        _check_prime(self.p)
        if self.l % self.p == 0 and self.k % self.p == 0:
            raise ValueError("(l, k) = (0, 0) is not a measurement setting")


def settings(p: int) -> list[MeasurementSetting]:
    """The canonical p+1 class representatives (1,0), (1,1), ..., (1,p-1), (0,1)."""
    p = _check_prime(p)
    out = [MeasurementSetting(1, k, p) for k in range(p)]
    out.append(MeasurementSetting(0, 1, p))
    return out


def simulate_setting(P_true: PauliDist, setting: MeasurementSetting, shots: int,
                     rng: np.random.Generator) -> MarginalDist:
    """Empirical marginal from i.i.d. measurement outcomes of one setting."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    true = marginal(P_true, setting.l, setting.k)
    counts = rng.multinomial(shots, true.probs)
    return MarginalDist(counts / shots, P_true.p)


def char_table_from_marginals(margs: dict[MeasurementSetting, MarginalDist],
                              p: int) -> dict[tuple[int, int], complex]:
    """All E[omega^{aX + bZ}] derived from the p+1 measured marginals.

    For a setting (l, k) and any scalar c, E[omega^{c(lX - kZ)}] is read off
    the single measured marginal, covering the whole scalar class of
    (a, b) = (cl, -ck); together with (0,0) -> 1 the table is complete.
    """
    omega = np.exp(2j * np.pi / p)
    table: dict[tuple[int, int], complex] = {(0, 0): 1.0 + 0.0j}
    for setting, m in margs.items():
        vals = m.probs
        for c in range(1, p):
            e = complex(np.sum(vals * omega ** ((c * np.arange(p)) % p)))
            table[((c * setting.l) % p, (-c * setting.k) % p)] = e
    return table


def reconstruct(char_table: dict[tuple[int, int], complex], p: int) -> np.ndarray:
    """Invert the character table: P(x,z) = p^-2 sum_{a,b} omega^{-(ax+bz)} E[omega^{aX+bZ}].

    Returns the raw real array, which may carry small negative entries when
    the characteristic values are empirical; project with simplex_project.
    Raises KeyError listing any missing (a, b) class.

    The result is byte-identical to accumulating each cell's p^2 terms one
    by one in (a, b) order, from 0, with Python complex arithmetic.  Only
    real parts are kept: the twiddles omega^{-k} are the Python powers, each
    term's real part is Re w Re E - Im w Im E (the complex product's own
    formula, in separate float64 operations), and ``np.add.reduce`` over a
    leading axis adds the p^2 terms of every cell in sequence.  That is still
    O(p^4) work, but in C.  An FFT or a separable DFT along x and then z
    would be O(p^3) or less but sums in another order, which changes the low
    bits of the estimate and so the printed digits.
    """
    p = _check_prime(p)
    missing = [(a, b) for a in range(p) for b in range(p)
               if (a, b) not in char_table]
    if missing:
        raise KeyError(f"character table is missing entries {missing}")
    omega = np.exp(2j * np.pi / p)
    tw = np.array([omega ** (-k) for k in range(p)])
    E = np.array([[char_table[(a, b)] for b in range(p)] for a in range(p)],
                 dtype=complex)
    # terms[a, b, k] = Re(omega^{-k} E[a, b]), stored twice along k so that
    # (a x % p) + (b z % p) < 2p indexes it without a modulus
    terms = E.real[:, :, None] * tw.real - E.imag[:, :, None] * tw.imag
    terms = np.concatenate([terms, terms], axis=2)
    ks = np.arange(p)
    # flat offset of terms[a][b, (b z) % p], indexed [b, x, z]
    base = (ks[:, None] * 2 * p + np.outer(ks, ks) % p)[:, None, :]
    # buf[0] is the running sum, buf[1 + b] the terms of one a; reducing
    # over the leading axis adds them to it in b order
    buf = np.zeros((p + 1, p, p))
    for a in range(p):
        np.take(terms[a], base + ((a * ks) % p)[None, :, None], out=buf[1:])
        np.add.reduce(buf, axis=0, out=buf[0])
    return buf[0] / p**2


def simplex_project(raw: np.ndarray) -> tuple[np.ndarray, bool]:
    """Clip negatives to zero and renormalize; flags whether clipping fired."""
    arr = np.asarray(raw, dtype=float)
    clipped = bool(np.any(arr < 0))
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if total <= 0:
        raise ValueError("projection received an all-nonpositive array")
    return arr / total, clipped


@dataclass
class EstimationReport:
    """Everything one estimation run produced, JSON-serializable."""

    p: int
    shots_per_setting: int
    settings: list[tuple[int, int]]
    empirical_marginals: list[list[float]]
    estimate: PauliDist
    projection_applied: bool
    negative_mass: float
    tv_to_truth: float | None = None

    def to_json_dict(self) -> dict:
        return {**vars(self), "estimate": self.estimate.to_json()}


def estimate(P_true: PauliDist, shots_per_setting: int,
             rng: np.random.Generator) -> EstimationReport:
    """Measure, invert, and project; shots_per_setting = 0 uses exact marginals.

    A negative ``shots_per_setting`` raises ``ValueError``.
    """
    if shots_per_setting < 0:
        raise ValueError(f"shots_per_setting must be >= 0, got {shots_per_setting}")
    p = P_true.p
    sets = settings(p)
    margs = {}
    emp = []
    for s in sets:
        if shots_per_setting == 0:
            m = marginal(P_true, s.l, s.k)
        else:
            m = simulate_setting(P_true, s, shots_per_setting, rng)
        margs[s] = m
        emp.append([float(v) for v in m.probs])
    raw = reconstruct(char_table_from_marginals(margs, p), p)
    negative_mass = float(-np.clip(raw, None, 0.0).sum() + 0.0)
    proj, applied = simplex_project(raw)
    est = PauliDist(proj, p)
    tv = 0.5 * float(np.abs(est.flat() - P_true.flat()).sum())
    return EstimationReport(
        p=p, shots_per_setting=shots_per_setting,
        settings=[(s.l, s.k) for s in sets], empirical_marginals=emp,
        estimate=est, projection_applied=applied,
        negative_mass=negative_mass, tv_to_truth=tv)


def setting_distribution_exact(tau_ab: qexact.DensityMatrix,
                               setting: MeasurementSetting) -> MarginalDist:
    """Exact outcome law of the local difference measurement on any state.

    The measurement pairs the eigenbasis of W(k, l) on A with its conjugate
    basis on B and records the label difference; on Bell-diagonal states
    this reproduces the lX - kZ marginal.
    """
    if len(tau_ab.dims) != 2 or tau_ab.dims[0] != tau_ab.dims[1]:
        raise ValueError("setting statistics need a two-qudit state")
    p = tau_ab.dims[0]
    basis = qexact.weyl_eigenbasis(setting.k, setting.l, p)
    # va[:, s, j] = |v_{j+s}> on A, paired with conj(|v_j>) on B
    va = basis[:, np.add.outer(np.arange(p), np.arange(p)) % p]
    tensor = tau_ab.matrix.reshape(p, p, p, p)
    amps = np.einsum("asj,bj,abcd,csj,dj->s", va.conj(), basis, tensor, va, basis.conj(),
                     optimize=True)
    probs = np.clip(amps.real, 0.0, None)
    return MarginalDist(probs / probs.sum(), p)


def twirled_statistics_check(tau_ab: qexact.DensityMatrix,
                             setting: MeasurementSetting) -> tuple[MarginalDist, MarginalDist]:
    """Setting statistics on tau_AB and on twirl(tau_AB); they agree exactly."""
    direct = setting_distribution_exact(tau_ab, setting)
    twirled = setting_distribution_exact(qexact.twirl(tau_ab), setting)
    return direct, twirled
