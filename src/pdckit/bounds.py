"""Asymptotic rates and finite-length completeness/secrecy/reliability bounds.

Rates for the Weyl-Heisenberg model with Bell-diagonal preshared state:

    R1* = 2 log2 p - H(Ptilde * P)      (error-correcting rate)
    R2* = H(P)                          (sacrificed rate for secrecy)
    R*  = R1* - R2*                     (message rate, R3* = 0 asymptotically)

Finite-length bounds, all capped at 1 before reporting:

    eps_B <= p^-n3
    eps_E <= min_t 2^{(1-t)/(1+t)} 2^{(t/(1+t)) (n H_{1/(1+t)}(P) - m log2 p)}
    eps_C <= 4 min_t 2^{t [n1 log2 p - n (2 log2 p - H_{1-t}(Ptilde * P))]}

where m = n1 - n2 - n3 is the sacrificed symbol count.  The secrecy
prefactor has three inconsistent printed variants; the largest one,
2^{(1-t)/(1+t)} <= 2, is used so the bound stays an upper bound.  The
inversions to sacrificed lengths work directly on these n-fold bounds
(integer bisection with an inner optimization over t), so the n-scaling of
the per-copy Renyi entropies is explicit.

Minimization over t uses a 200-point logarithmic grid on (0.001, 1] plus
bounded scalar refinement around the grid optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .dists import PauliDist, convolve, shannon


class InfeasibleTargets(ValueError):
    """Raised when no sacrificed length can meet the requested epsilon."""


# the t grid of the module docstring; read-only, shared by every call
_T_GRID = np.logspace(-3.0, 0.0, 200)
_T_GRID.flags.writeable = False


def _refine_min(fn, grid: np.ndarray, vals: np.ndarray) -> float:
    """Grid minimum of a smooth scalar function plus bounded refinement."""
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    best = float(vals[i])
    if hi > lo:
        res = minimize_scalar(fn, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        if np.isfinite(res.fun):
            best = min(best, float(res.fun))
    return best


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTriple:
    """Asymptotic rates in bits per channel use; R_star may be negative."""

    R1_star: float
    R2_star: float
    R_star: float


@dataclass(frozen=True)
class SecurityTargets:
    eps_C: float
    eps_E: float
    eps_B: float

    def __post_init__(self):
        for name, v in (("eps_C", self.eps_C), ("eps_E", self.eps_E), ("eps_B", self.eps_B)):
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {v}")


@dataclass(frozen=True)
class FiniteLengthReport:
    """Sacrificed lengths and achieved bounds at one block length."""

    n: int
    m1: int
    m2: int
    m3: int
    R1: float
    R2: float
    R3: float
    R: float
    eps_C_achieved: float
    eps_E_achieved: float
    eps_B_achieved: float


def asymptotic_rates(P: PauliDist, P_tilde: PauliDist) -> RateTriple:
    """Rates (R1*, R2*, R*) for noise P (preshared) and P_tilde (forward)."""
    if P.p != P_tilde.p:
        raise ValueError(f"modulus mismatch: {P.p} vs {P_tilde.p}")
    log_da = np.log2(P.p)
    r1 = 2.0 * log_da - shannon(convolve(P_tilde, P).flat())
    r2 = shannon(P.flat())
    return RateTriple(r1, r2, r1 - r2)


# ---------------------------------------------------------------------------
# finite-length bounds
# ---------------------------------------------------------------------------

def eps_B_bound(n3: int, p: int) -> float:
    """Reliability bound p^-n3 on accepting a wrong message."""
    if n3 < 0:
        raise ValueError(f"n3 must be >= 0, got {n3}")
    return float(p) ** (-n3)


def _renyi_order_recip(P: PauliDist, ts: np.ndarray) -> np.ndarray:
    """H_{1/(1+t)}(P) for an array of t values."""
    probs = P.flat()
    probs = probs[probs > 1e-15]
    alphas = 1.0 / (1.0 + ts)
    sums = np.power(probs[None, :], alphas[:, None]).sum(axis=1)
    return np.log2(sums) / (1.0 - alphas)


def _renyi_order_onemt(P: PauliDist, ts: np.ndarray) -> np.ndarray:
    """H_{1-t}(P) for an array of t values (t = 1 gives the max-entropy H_0)."""
    probs = P.flat()
    probs = probs[probs > 1e-15]
    alphas = 1.0 - ts
    out = np.empty_like(ts)
    near1 = np.abs(alphas - 1.0) < 1e-12
    if near1.any():
        out[near1] = shannon(probs)
    a = alphas[~near1]
    sums = np.power(probs[None, :], a[:, None]).sum(axis=1)
    out[~near1] = np.log2(sums) / (1.0 - a)
    return out


def _eps_E(n: int, sacrifice_symbols: int, P: PauliDist,
           h_grid: np.ndarray) -> float:
    """eps_E_bound given h_grid = H_{1/(1+t)}(P) on the t grid."""
    log_p = np.log2(P.p)

    def exponent(t, h):
        return (1.0 - t) / (1.0 + t) + (t / (1.0 + t)) * (
            n * h - sacrifice_symbols * log_p
        )

    def refine(t):
        t = np.asarray(t, dtype=float)
        return float(exponent(t, _renyi_order_recip(P, np.atleast_1d(t)))[0])

    best = _refine_min(refine, _T_GRID, exponent(_T_GRID, h_grid))
    if best >= 0.0:
        return 1.0
    return float(min(1.0, np.exp2(max(best, -1e6))))


def _eps_C(n: int, n1: int, P_eff: PauliDist,
           h_grid: np.ndarray) -> float:
    """eps_C_bound given h_grid = H_{1-t}(P_eff) on the t grid."""
    log_p = np.log2(P_eff.p)

    def exponent(t, h):
        return t * (n1 * log_p - n * (2.0 * log_p - h))

    def refine(t):
        t = np.asarray(t, dtype=float)
        return float(exponent(t, _renyi_order_onemt(P_eff, np.atleast_1d(t)))[0])

    best = _refine_min(refine, _T_GRID, exponent(_T_GRID, h_grid))
    return float(min(1.0, 4.0 * np.exp2(max(best, -1e6))))


def eps_E_bound(n: int, sacrifice_symbols: int, P: PauliDist) -> float:
    """Secrecy bound on the leakage trace distance, capped at 1.

    ``sacrifice_symbols`` is n1 - n2 - n3, the length of the uniform
    randomization register L2 in F_p symbols.
    """
    if sacrifice_symbols < 0:
        raise ValueError("sacrifice_symbols must be >= 0")
    return _eps_E(n, sacrifice_symbols, P, _renyi_order_recip(P, _T_GRID))


def eps_C_bound(n: int, n1: int, P_eff: PauliDist) -> float:
    """Random-coding completeness bound (non-constructive), capped at 1.

    P_eff is the effective Bob-side noise Ptilde * P.
    """
    if n1 > 2 * n:
        raise ValueError(f"n1 = {n1} exceeds 2n = {2 * n}")
    return _eps_C(n, n1, P_eff, _renyi_order_onemt(P_eff, _T_GRID))


def m_hat_lengths(targets: SecurityTargets, n: int, P: PauliDist,
                  P_tilde: PauliDist) -> tuple[int, int, int]:
    """Invert the finite-length bounds to sacrificed lengths (m1, m2, m3).

    m3 is the verification length with p^-m3 <= eps_B; m2 the smallest
    sacrifice with eps_E_bound <= eps_E; m1 the largest coding length with
    eps_C_bound <= eps_C.  Raises InfeasibleTargets instead of clamping.
    """
    rep = finite_length_report(targets, n, P, P_tilde)
    return rep.m1, rep.m2, rep.m3


def finite_length_report(targets: SecurityTargets, n: int, P: PauliDist,
                         P_tilde: PauliDist) -> FiniteLengthReport:
    """Rates R_i = m_i log2(p) / n and the bound values achieved at them.

    m_hat_lengths returns this report's (m1, m2, m3).  The bisections
    compute exactly the values eps_E_bound and eps_C_bound return, but
    H_{1/(1+t)}(P) and H_{1-t}(Ptilde * P) on the t grid are built once per
    call and shared by every step, and the achieved values are the ones the
    bisections already computed at m2 and m1.
    """
    if P.p != P_tilde.p:
        raise ValueError(f"modulus mismatch: {P.p} vs {P_tilde.p}")
    if n < 1:
        raise ValueError(f"block length n must be >= 1, got {n}")
    p = P.p
    m3 = int(np.ceil(-np.log2(targets.eps_B) / np.log2(p) - 1e-12))

    # each bisection keeps the bound value at the end it converges to
    h_E = _renyi_order_recip(P, _T_GRID)
    eps_E_at = _eps_E(n, 2 * n, P, h_E)
    if eps_E_at > targets.eps_E:
        raise InfeasibleTargets(
            f"eps_E = {targets.eps_E} unreachable even sacrificing all 2n symbols"
        )
    lo, hi = 0, 2 * n
    while lo < hi:
        mid = (lo + hi) // 2
        val = _eps_E(n, mid, P, h_E)
        if val <= targets.eps_E:
            hi, eps_E_at = mid, val
        else:
            lo = mid + 1
    m2 = lo

    p_eff = convolve(P_tilde, P)
    h_C = _renyi_order_onemt(p_eff, _T_GRID)
    eps_C_at = _eps_C(n, 0, p_eff, h_C)
    if eps_C_at > targets.eps_C:
        raise InfeasibleTargets(
            f"eps_C = {targets.eps_C} unreachable even at coding length 0"
        )
    lo, hi = 0, 2 * n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        val = _eps_C(n, mid, p_eff, h_C)
        if val <= targets.eps_C:
            lo, eps_C_at = mid, val
        else:
            hi = mid - 1
    m1 = lo

    log_p = np.log2(p)
    return FiniteLengthReport(
        n=n, m1=m1, m2=m2, m3=m3,
        R1=m1 * log_p / n, R2=m2 * log_p / n, R3=m3 * log_p / n,
        R=(m1 - m2 - m3) * log_p / n,
        eps_C_achieved=eps_C_at,
        eps_E_achieved=eps_E_at,
        eps_B_achieved=eps_B_bound(m3, p),
    )

