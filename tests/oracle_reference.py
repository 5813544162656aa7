"""Reference quantities that only the tests evaluate.

The sandwiched Renyi divergence, the optimized sandwiched conditional
entropy, the sandwiched cq mutual information and the characteristic value
of a Pauli distribution.  The package computes none of them on a command
path; the tests use them as independent anchors for ``qexact``'s solver and
``estimation``'s character table.
"""

import numpy as np

from pdckit.dists import PauliDist, marginal
from pdckit.qexact import (DensityMatrix, _as_matrix, _herm_power, _minimize_xi,
                           _support_check, partial_trace, relative_entropy,
                           vn_entropy)


def sandwiched_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence (1/t) log2 Tr (sigma^{-t/2a} rho sigma^{-t/2a})^alpha."""
    t = alpha - 1.0
    if alpha <= 0:
        raise ValueError(f"order must be positive, got {alpha}")
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if abs(t) < 1e-12:
        return relative_entropy(r, s)
    if t > 0:
        _support_check(r, s)
    half = _herm_power(s, -t / (2.0 * alpha))
    inner = half @ r @ half
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    val = np.sum(lam**alpha)
    if val <= 0:
        return np.inf
    return float(np.log2(val) / t)


def cond_entropy_up_sandwiched(rho_ab: DensityMatrix, alpha: float) -> float:
    """Optimized sandwiched conditional entropy H~_alpha^up(A|B).

    Equals -inf over density sigma_B of D~_alpha(rho_AB || I_A x sigma_B);
    the infimum is solved numerically (seeded at rho_B, which already attains
    the unoptimized H~_alpha^down value, so the result can only improve on it).
    """
    if len(rho_ab.dims) != 2:
        raise ValueError("conditional entropy needs a bipartite state")
    t = alpha - 1.0
    if abs(t) < 1e-12:
        rho_b = partial_trace(rho_ab, [1])
        return vn_entropy(rho_ab) - vn_entropy(rho_b)
    if t < 0:
        raise ValueError("optimized sandwiched entropy implemented for alpha > 1")
    f, _sigma = _minimize_xi([rho_ab.matrix], [1.0], alpha,
                             sigma0=partial_trace(rho_ab, [1]).matrix,
                             trace_first=rho_ab.dims[0])
    return float(-np.log2(f) / t)


def sandwiched_mutual_info_down_cq(weights, states, alpha: float) -> float:
    """I~_alpha^down(X;E) for a cq state sum_x w_x |x><x| x W_x.

    Because X is classical and the first marginal is the true one, the
    divergence block-decomposes and the quantity reduces to
    (1/t) log2 min_sigma sum_x w_x Xi_alpha(W_x || sigma).
    """
    t = alpha - 1.0
    if t <= 0:
        raise ValueError("implemented for alpha > 1")
    mats = [_as_matrix(w) for w in states]
    f, _sigma = _minimize_xi(mats, weights, alpha)
    return float(np.log2(f) / t)


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
