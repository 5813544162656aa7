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
2^{(1-t)/(1+t)} <= 2, is used so the bound stays an upper bound.

Minimization over t uses a 200-point logarithmic grid on (0.001, 1] plus
bounded scalar refinement around the grid optimum: Brent's bounded method,
ported from scipy step for step (``_bounded_min``), so the module imports
no scipy.

The inversions to sacrificed lengths work directly on these n-fold bounds
by integer bisection, so the n-scaling of the per-copy Renyi entropies is
explicit.  Each step asks only whether the bound meets its target, and
settles that by the cheapest of three tests, each giving the answer of the
refined bound: it passes when the grid minimum already meets the target
(the refinement never raises the minimum); it fails when a certified lower
bound on the exponent over the refinement bracket, minus a 1e-9 relative
margin for rounding, still misses it (the Renyi entropies are
nondecreasing in t, so their value at the bracket's left end bounds them
inside it); otherwise it refines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import PauliDist, _masses, _renyi_of_masses, convolve, renyi_entropy, shannon


class InfeasibleTargets(ValueError):
    """Raised when no sacrificed length can meet the requested epsilon."""


# the t grid of the module docstring; read-only, shared by every call
_T_GRID = np.logspace(-3.0, 0.0, 200)
_T_GRID.flags.writeable = False


def _bracket(i: int, size: int) -> tuple[int, int]:
    """Indices of the grid points around the grid minimum i between which
    the refinement evaluates, and over which a floor must hold."""
    return max(i - 1, 0), min(i + 1, size - 1)


# ``_bounded_min`` is ported from scipy/optimize/_optimize.py (scipy 1.17),
# distributed under this license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

def _bounded_min(fn, x1: float, x2: float):
    """(x, f(x), evaluations) of the minimum of ``fn`` on [x1, x2] by Brent's
    bounded method, x1 <= x2 finite.

    A step-for-step port of scipy's ``_minimize_scalar_bounded`` (license
    above), which ``minimize_scalar(method="bounded", options={"xatol":
    1e-12})`` runs: the same numpy scalar operations in the same order, so
    x, f(x) and the evaluation count match scipy's bit for bit.  Only what
    that call uses remains: xatol = 1e-12, scipy's default of 500
    evaluations, and no args, printing or status.
    """
    xatol, maxfun = 1e-12, 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = fn(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # check for a parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1
        if golden:  # a golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = fn(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx, num


def _refine_min(fn, grid: np.ndarray, vals: np.ndarray) -> float:
    """Grid minimum of a smooth scalar function plus bounded refinement."""
    i = int(np.argmin(vals))
    a, b = _bracket(i, grid.size)
    lo, hi = grid[a], grid[b]
    best = float(vals[i])
    if hi > lo:
        fun = _bounded_min(fn, lo, hi)[1]
        if np.isfinite(fun):
            best = min(best, float(fun))
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


class _NFoldBound:
    """One n-fold bound of one law, as a function of the block length n and
    its length m (the sacrifice of eps_E, the coding length of eps_C).

    The law's Renyi entropies h on the t grid and its positive masses are
    built once and shared by every n and m.  A subclass gives the Renyi
    order of t, the exponent e(n, m, t, h), the epsilon of min_t e
    (nondecreasing in it), and ``floor``: a lower bound on e over the
    refinement bracket [t_a, t_b] from h_a = h(t_a), less 1e-9 of the
    largest size the exponent's terms reach (h <= 2 log2 p).  That margin
    covers the rounding between the grid's entropies and the refinement's
    own, which stayed below 1e-19 of that size on random laws up to
    n = 2e7.
    """

    def __init__(self, law: PauliDist):
        self.p = law.p
        self.log_p = np.log2(law.p)
        self.masses = _masses(law.flat())
        self.h_grid = renyi_entropy(law.flat(), self.order(_T_GRID))

    def _grid(self, n: int, m: int) -> np.ndarray:
        return self.exponent(n, m, _T_GRID, self.h_grid)

    def _refined(self, n: int, m: int, grid: np.ndarray) -> float:
        return _refine_min(
            lambda t: self.exponent(n, m, t, _renyi_of_masses(self.masses, self.order(t))),
            _T_GRID, grid)

    def value(self, n: int, m: int) -> float:
        """The bound at block length n and length m, capped at 1."""
        return self.eps(self._refined(n, m, self._grid(n, m)))

    def meets(self, n: int, m: int, target: float) -> bool:
        """value(n, m) <= target, refining only when the grid leaves it open."""
        grid = self._grid(n, m)
        i = int(np.argmin(grid))
        if self.eps(float(grid[i])) <= target:
            return True
        a, b = _bracket(i, _T_GRID.size)
        if self.eps(self.floor(n, m, _T_GRID[a], _T_GRID[b], self.h_grid[a])) > target:
            return False
        return self.eps(self._refined(n, m, grid)) <= target


class _SecrecyBound(_NFoldBound):
    """eps_E at sacrifice m; h = H_{1/(1+t)}(P)."""

    @staticmethod
    def order(t):
        return 1.0 / (1.0 + t)

    def exponent(self, n, m, t, h):
        return (1.0 - t) / (1.0 + t) + (t / (1.0 + t)) * (n * h - m * self.log_p)

    @staticmethod
    def eps(best: float) -> float:
        if best >= 0.0:
            return 1.0
        return float(min(1.0, np.exp2(max(best, -1e6))))

    def floor(self, n, m, t_a, t_b, h_a) -> float:
        # on [t_a, t_b]: (1-t)/(1+t) >= its value at t_b, h >= h_a, and
        # t/(1+t) lies between its end values
        c_a = n * h_a - m * self.log_p
        low = (1.0 - t_b) / (1.0 + t_b) + min(t_a / (1.0 + t_a) * c_a, t_b / (1.0 + t_b) * c_a)
        return low - 1e-9 * (1.0 + (2 * n + m) * self.log_p)


class _CompletenessBound(_NFoldBound):
    """eps_C at coding length m; h = H_{1-t}(Ptilde * P)."""

    @staticmethod
    def order(t):
        return 1.0 - t

    def exponent(self, n, m, t, h):
        return t * (m * self.log_p - n * (2.0 * self.log_p - h))

    @staticmethod
    def eps(best: float) -> float:
        # above exponent 0, 4 * 2^best > 1 is capped anyway; clamping there
        # keeps exp2 from overflowing at large n
        return float(min(1.0, 4.0 * np.exp2(min(max(best, -1e6), 0.0))))

    def floor(self, n, m, t_a, t_b, h_a) -> float:
        # on [t_a, t_b]: h >= h_a and t lies between its end values
        d_a = m * self.log_p - n * (2.0 * self.log_p - h_a)
        return min(t_a * d_a, t_b * d_a) - 1e-9 * (1.0 + (m + 4 * n) * self.log_p)


def _check_block_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"block length n must be >= 1, got {n}")


def eps_E_bound(n: int, sacrifice_symbols: int, P: PauliDist) -> float:
    """Secrecy bound on the leakage trace distance, capped at 1.

    ``sacrifice_symbols`` is n1 - n2 - n3, the length of the uniform
    randomization register L2 in F_p symbols.  ValueError when n < 1.
    """
    _check_block_length(n)
    if sacrifice_symbols < 0:
        raise ValueError("sacrifice_symbols must be >= 0")
    return _SecrecyBound(P).value(n, sacrifice_symbols)


def eps_C_bound(n: int, n1: int, P_eff: PauliDist) -> float:
    """Random-coding completeness bound (non-constructive), capped at 1.

    P_eff is the effective Bob-side noise Ptilde * P.  ValueError when n < 1.
    """
    _check_block_length(n)
    if n1 > 2 * n:
        raise ValueError(f"n1 = {n1} exceeds 2n = {2 * n}")
    return _CompletenessBound(P_eff).value(n, n1)


def m_hat_lengths(targets: SecurityTargets, n: int, P: PauliDist,
                  P_tilde: PauliDist) -> tuple[int, int, int]:
    """Invert the finite-length bounds to sacrificed lengths (m1, m2, m3).

    m3 is the verification length with p^-m3 <= eps_B; m2 the smallest
    sacrifice with eps_E_bound <= eps_E; m1 the largest coding length with
    eps_C_bound <= eps_C.  Raises InfeasibleTargets instead of clamping.
    """
    rep = finite_length_report(targets, n, P, P_tilde)
    return rep.m1, rep.m2, rep.m3


def _check_report_args(P: PauliDist, P_tilde: PauliDist, ns) -> None:
    if P.p != P_tilde.p:
        raise ValueError(f"modulus mismatch: {P.p} vs {P_tilde.p}")
    for n in ns:
        _check_block_length(n)


def finite_length_report(targets: SecurityTargets, n: int, P: PauliDist,
                         P_tilde: PauliDist) -> FiniteLengthReport:
    """Rates R_i = m_i log2(p) / n and the bound values achieved at them.

    m_hat_lengths returns this report's (m1, m2, m3).  Both bisections
    visit the mids of a plain bisection on eps_E_bound and eps_C_bound, and
    share H_{1/(1+t)}(P) and H_{1-t}(Ptilde * P) on the t grid, built once
    per call.  Each step is settled by the module docstring's three-way
    rule, which gives the full bound's answer at every step: a grid pass
    stands because the refined minimum is never above the grid minimum, a
    floor fail because the refinement evaluates only inside the bracket the
    floor bounds, and every other step refines as the full bound does.  So
    every m is the plain bisection's, and the achieved values, the full
    bounds at m2 and m1, are bit for bit what eps_E_bound and eps_C_bound
    return there.
    """
    _check_report_args(P, P_tilde, [n])
    return _report(targets, n, _SecrecyBound(P), _CompletenessBound(convolve(P_tilde, P)))


def finite_length_reports(targets: SecurityTargets, ns, P: PauliDist,
                          P_tilde: PauliDist) -> list[FiniteLengthReport | None]:
    """``finite_length_report`` at every block length in ns, bit for bit,
    with None where it raises InfeasibleTargets.

    Ptilde * P, the positive masses and both Renyi grids depend on the laws
    alone, so they are built once for all block lengths, not once per n.
    """
    _check_report_args(P, P_tilde, ns)
    secrecy = _SecrecyBound(P)
    completeness = _CompletenessBound(convolve(P_tilde, P))
    reports = []
    for n in ns:
        try:
            reports.append(_report(targets, n, secrecy, completeness))
        except InfeasibleTargets:
            reports.append(None)
    return reports


def _report(targets: SecurityTargets, n: int, secrecy: _SecrecyBound,
            completeness: _CompletenessBound) -> FiniteLengthReport:
    """The two bisections of ``finite_length_report`` at block length n."""
    p, log_p = secrecy.p, secrecy.log_p
    m3 = int(np.ceil(-np.log2(targets.eps_B) / log_p - 1e-12))

    if not secrecy.meets(n, 2 * n, targets.eps_E):
        raise InfeasibleTargets(
            f"eps_E = {targets.eps_E} unreachable even sacrificing all 2n symbols"
        )
    lo, hi = 0, 2 * n
    while lo < hi:
        mid = (lo + hi) // 2
        if secrecy.meets(n, mid, targets.eps_E):
            hi = mid
        else:
            lo = mid + 1
    m2 = lo

    if not completeness.meets(n, 0, targets.eps_C):
        raise InfeasibleTargets(
            f"eps_C = {targets.eps_C} unreachable even at coding length 0"
        )
    lo, hi = 0, 2 * n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if completeness.meets(n, mid, targets.eps_C):
            lo = mid
        else:
            hi = mid - 1
    m1 = lo

    return FiniteLengthReport(
        n=n, m1=m1, m2=m2, m3=m3,
        R1=m1 * log_p / n, R2=m2 * log_p / n, R3=m3 * log_p / n,
        R=(m1 - m2 - m3) * log_p / n,
        eps_C_achieved=completeness.value(n, m1),
        eps_E_achieved=secrecy.value(n, m2),
        eps_B_achieved=eps_B_bound(m3, p),
    )

