"""Exact small-dimension quantum oracle.

Dense complex density matrices, Weyl operators, Bell states, Petz and
sandwiched Renyi divergences, conditional entropies and mutual
informations, twirling, and the sandwiched infimum solver.
Every quantum identity used by the rate formulas is checked against this
module numerically; it is an oracle, not a large-n simulator, so the total
Hilbert dimension is capped at 256.

All matrix functions go through Hermitian eigendecompositions with
eigenvalue clipping at 1e-12; all entropic quantities are in bits.

The infimum over sigma_B inside the optimized sandwiched conditional entropy
has no closed form.  It is computed by quasi-Newton descent on an
unconstrained PSD factorization (sigma = X X^dag up to trace, with analytic
Daleckii-Krein gradients), seeded at the reduced state, with a projected
gradient descent fallback.  Correctness is validated against the closed
classical forms available in the Weyl-Heisenberg setting.

When the states are one orbit U_c W U_c^dag of a group of Weyl-type
unitaries under uniform weights (quantum Eve's states over a linear code),
the solver takes the single state W and the group.  For alpha > 1 the
objective is convex in sigma and invariant under every U_c, so twirling a
minimiser, T(sigma) = mean_c U_c sigma U_c^dag, gives another one; on the
commutant all terms equal the W term.  The objective is evaluated at
T(X X^dag) and its gradient twirled back, with T applied as an index
gather because each U_c is a permutation times phases.  Every returned
sigma is a density matrix in the commutant, where the one-state value is
the exact orbit objective, so bounds built on it stay certified.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from .dists import PauliDist
from .gf import _check_prime

DIM_CAP = 256
_EIG_CLIP = 1e-12
_HERM_TOL = 1e-10

LN2 = np.log(2.0)

_log = logging.getLogger("pdckit")


class SizeCapError(ValueError):
    """An instance exceeds the oracle dimension or enumeration cap."""


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

def _check_dims(dims) -> list[int]:
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    total = int(np.prod(dims))
    if total > DIM_CAP:
        raise SizeCapError(f"total dimension {total} exceeds oracle cap {DIM_CAP}")
    return dims


class DensityMatrix:
    """Density matrix on a multipartite system with explicit subsystem dims."""

    __slots__ = ("dims", "matrix")

    def __init__(self, matrix, dims):
        self.dims = _check_dims(dims)
        mat = np.asarray(matrix, dtype=complex)
        n = int(np.prod(self.dims))
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} != ({n}, {n})")
        if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        mat = 0.5 * (mat + mat.conj().T)
        ev = np.linalg.eigvalsh(mat)
        if ev.min() < -_HERM_TOL:
            raise ValueError(f"matrix has negative eigenvalue {ev.min()}")
        if abs(np.trace(mat).real - 1.0) > _HERM_TOL:
            raise ValueError(f"trace {np.trace(mat).real} != 1 within 1e-10")
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


class UnitaryMatrix:
    """A unitary operator; validated U U^dag = I within 1e-10."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("unitary must be square")
        if np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))) > _HERM_TOL:
            raise ValueError("matrix is not unitary within 1e-10")
        self.dim = mat.shape[0]
        self.matrix = mat


class PureState:
    """Unit-norm amplitude vector with explicit subsystem dims."""

    __slots__ = ("dims", "vector")

    def __init__(self, vector, dims):
        self.dims = _check_dims(dims)
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        n = int(np.prod(self.dims))
        if vec.size != n:
            raise ValueError(f"vector length {vec.size} != {n}")
        if abs(np.linalg.norm(vec) - 1.0) > _HERM_TOL:
            raise ValueError("vector is not normalized within 1e-10")
        self.vector = vec

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), self.dims)


# ---------------------------------------------------------------------------
# Weyl operators and Bell states
# ---------------------------------------------------------------------------

def weyl(x: int, z: int, p: int) -> UnitaryMatrix:
    """The Weyl operator W(x, z) = X^x Z^z on a p-dimensional system."""
    p = _check_prime(p)
    x, z = int(x) % p, int(z) % p
    omega = np.exp(2j * np.pi / p)
    zmat = np.diag(omega ** (z * np.arange(p)))
    xmat = np.zeros((p, p), dtype=complex)
    xmat[(np.arange(p) + x) % p, np.arange(p)] = 1.0
    return UnitaryMatrix(xmat @ zmat)


def bell_state(p: int) -> PureState:
    """Maximally entangled |Phi> = p^{-1/2} sum_i |i>|i> on A x B."""
    p = _check_prime(p)
    vec = np.eye(p).reshape(-1) / np.sqrt(p)
    return PureState(vec, [p, p])


def bell_basis_state(x: int, z: int, p: int) -> PureState:
    """(W(x,z) x I)|Phi>, the (x, z) element of the generalized Bell basis."""
    w = weyl(x, z, p).matrix
    vec = np.kron(w, np.eye(p)) @ bell_state(p).vector
    return PureState(vec, [p, p])


def bell_diagonal(P: PauliDist) -> DensityMatrix:
    """rho[P] = sum P(x,z) (W(x,z) x I)|Phi><Phi|(W(x,z) x I)^dag."""
    p = P.p
    n = p * p
    rho = np.zeros((n, n), dtype=complex)
    for x in range(p):
        for z in range(p):
            w = P.probs[x, z]
            if w == 0.0:
                continue
            v = bell_basis_state(x, z, p).vector
            rho += w * np.outer(v, v.conj())
    return DensityMatrix(rho, [p, p])


def purify(P: PauliDist) -> PureState:
    """|Psi> = sum sqrt(P(x,z)) (W(x,z) x I)|Phi>_AB |x,z>_E on A x B x E.

    E is a p^2-dimensional register holding the Weyl label; tracing it out
    recovers bell_diagonal(P).
    """
    p = P.p
    vec = np.zeros(p * p * p * p, dtype=complex)
    for x in range(p):
        for z in range(p):
            amp = np.sqrt(P.probs[x, z])
            if amp == 0.0:
                continue
            ab = bell_basis_state(x, z, p).vector
            e = np.zeros(p * p)
            e[x * p + z] = 1.0
            vec += amp * np.kron(ab, e)
    return PureState(vec, [p, p, p * p])


def _op_on(op: np.ndarray, dims: list[int], idx: int) -> np.ndarray:
    """Embed a single-subsystem operator at position idx of a tensor product."""
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[idx] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def pauli_channel(rho: DensityMatrix, P: PauliDist, subsystem: int) -> DensityMatrix:
    """Apply Lambda[P](.) = sum P(x,z) W(x,z) . W(x,z)^dag on one subsystem."""
    if rho.dims[subsystem] != P.p:
        raise ValueError(
            f"subsystem {subsystem} has dim {rho.dims[subsystem]}, channel needs {P.p}"
        )
    p = P.p
    out = np.zeros_like(rho.matrix)
    for x in range(p):
        for z in range(p):
            w = P.probs[x, z]
            if w == 0.0:
                continue
            full = _op_on(weyl(x, z, p).matrix, rho.dims, subsystem)
            out += w * (full @ rho.matrix @ full.conj().T)
    return DensityMatrix(out, rho.dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (order preserved)."""
    keep = sorted(set(int(k) for k in keep))
    nsub = len(rho.dims)
    if not keep or any(k < 0 or k >= nsub for k in keep):
        raise ValueError(f"invalid keep set {keep} for {nsub} subsystems")
    dims = rho.dims
    tensor = rho.matrix.reshape(dims + dims)
    traced = tensor
    # contract highest traced index pairs first so positions stay valid
    for idx in sorted(set(range(nsub)) - set(keep), reverse=True):
        n = traced.ndim // 2
        traced = np.trace(traced, axis1=idx, axis2=idx + n)
    kept_dims = [dims[k] for k in keep]
    n = int(np.prod(kept_dims))
    return DensityMatrix(traced.reshape(n, n), kept_dims)


def twirl(rho: DensityMatrix) -> DensityMatrix:
    """Discrete twirl (1/p^2) sum (W(x,z) x conj(W(x,z))) rho (.)^dag.

    Projects any two-qudit state onto the Bell-diagonal family; idempotent.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError("twirl needs a two-subsystem state with equal dims")
    p = rho.dims[0]
    out = np.zeros_like(rho.matrix)
    for x in range(p):
        for z in range(p):
            w = weyl(x, z, p).matrix
            full = np.kron(w, w.conj())
            out += full @ rho.matrix @ full.conj().T
    return DensityMatrix(out / p**2, rho.dims)


def weyl_eigenbasis(k: int, l: int, p: int) -> np.ndarray:
    """Orthonormal eigenbasis {|v_j>} of W(k, l) with covariant labels.

    Labels are fixed (up to a global offset) so that W(x, z)|v_j> is
    proportional to |v_{j + (x l - z k)}>; with Bob measuring in the
    conjugate basis {conj(|v_j>)}, the label difference on a Bell-diagonal
    state is distributed as the lX - kZ marginal.  Returns a (p, p) array
    whose columns are |v_0>, ..., |v_{p-1}>.
    """
    p = _check_prime(p)
    k, l = int(k) % p, int(l) % p
    if k == 0 and l == 0:
        raise ValueError("(k, l) = (0, 0) has no measurement basis")
    w = weyl(k, l, p).matrix
    _, vecs = np.linalg.eig(w)
    v0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    # step operator: any (x0, z0) with x0*l - z0*k = 1 shifts the label by one
    step = None
    for x0 in range(p):
        for z0 in range(p):
            if (x0 * l - z0 * k) % p == 1:
                step = weyl(x0, z0, p).matrix
                break
        if step is not None:
            break
    basis = np.zeros((p, p), dtype=complex)
    v = v0
    for j in range(p):
        basis[:, j] = v
        v = step @ v
        v = v / np.linalg.norm(v)
    return basis


# ---------------------------------------------------------------------------
# Hermitian matrix functions and divergences
# ---------------------------------------------------------------------------

def _herm_power(mat: np.ndarray, power: float, pseudo: bool = False) -> np.ndarray:
    """mat^power via eigendecomposition; clips eigenvalues below 1e-12.

    With pseudo=True, negative powers act only on the support (zero
    eigenvalues map to zero).
    """
    lam, v = np.linalg.eigh(mat)
    lam = np.clip(lam, 0.0, None)
    out = np.zeros_like(lam)
    if power >= 0:
        mask = lam > _EIG_CLIP
        out[mask] = lam[mask] ** power
        if power == 0:
            out[~mask] = 0.0
    else:
        if not pseudo and np.any(lam <= _EIG_CLIP):
            raise ValueError("negative power of a singular matrix")
        mask = lam > _EIG_CLIP
        out[mask] = lam[mask] ** power
    return (v * out) @ v.conj().T


def vn_entropy(rho) -> float:
    """von Neumann entropy in bits."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > _EIG_CLIP]
    return float(-(lam * np.log2(lam)).sum())


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.matrix
    if isinstance(x, PureState):
        return x.density().matrix
    return np.asarray(x, dtype=complex)


def _support_check(rho: np.ndarray, sigma: np.ndarray) -> None:
    lam, v = np.linalg.eigh(sigma)
    kernel = v[:, lam <= _EIG_CLIP]
    if kernel.shape[1] == 0:
        return
    leak = np.linalg.norm(kernel.conj().T @ rho @ kernel)
    if leak > 1e-9:
        raise ValueError("support of rho is not contained in support of sigma")


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy Tr rho (log2 rho - log2 sigma)."""
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    _support_check(r, s)
    lam_r, v_r = np.linalg.eigh(r)
    lam_s, v_s = np.linalg.eigh(s)
    lam_r = np.clip(lam_r, 0.0, None)
    log_r = (v_r * np.where(lam_r > _EIG_CLIP, np.log2(np.clip(lam_r, _EIG_CLIP, None)), 0.0)) @ v_r.conj().T
    log_s = (v_s * np.where(lam_s > _EIG_CLIP, np.log2(np.clip(lam_s, _EIG_CLIP, None)), 0.0)) @ v_s.conj().T
    val = np.trace(r @ (log_r - log_s)).real
    # the clipped logs only touch directions outside the supports
    return float(val)


def petz_divergence(rho, sigma, alpha: float) -> float:
    """Petz Renyi divergence D_alpha(rho || sigma) = (1/t) log2 Tr rho^alpha sigma^{-t}.

    alpha = 1 + t; sigma may be any PSD operator (not necessarily unit
    trace).  alpha = 1 routes to the relative entropy.
    """
    t = alpha - 1.0
    if alpha <= 0:
        raise ValueError(f"order must be positive, got {alpha}")
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if abs(t) < 1e-12:
        return relative_entropy(r, s)
    if t > 0:
        _support_check(r, s)
    ra = _herm_power(r, alpha)
    st = _herm_power(s, -t, pseudo=True)
    val = np.trace(ra @ st).real
    if val <= 0:
        return np.inf
    return float(np.log2(val) / t)


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
    half = _herm_power(s, -t / (2.0 * alpha), pseudo=True)
    inner = half @ r @ half
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    val = np.sum(lam**alpha)
    if val <= 0:
        return np.inf
    return float(np.log2(val) / t)


def cond_entropy_down(rho_ab: DensityMatrix, alpha: float) -> float:
    """Petz conditional entropy H_alpha^down(A|B) = -D_alpha(rho_AB || I_A x rho_B)."""
    if len(rho_ab.dims) != 2:
        raise ValueError("conditional entropy needs a bipartite state")
    da = rho_ab.dims[0]
    rho_b = partial_trace(rho_ab, [1]).matrix
    sigma = np.kron(np.eye(da), rho_b)
    return -petz_divergence(rho_ab.matrix, sigma, alpha)


# ---------------------------------------------------------------------------
# sandwiched infimum solver
# ---------------------------------------------------------------------------

def _eigh(mat: np.ndarray):
    """np.linalg.eigh, retried with LAPACK's MRRR routine where it fails.

    numpy's divide-and-conquer routine (zheevd) can fail to converge on a
    finite Hermitian matrix with tightly clustered eigenvalues, which the
    solver's iterates produce; the MRRR routine (zheevr) handles them.
    """
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError:
        stack = mat.reshape(-1, *mat.shape[-2:])
        lam, vecs = map(np.stack, zip(*(scipy.linalg.eigh(m, driver="evr") for m in stack)))
        return lam.reshape(mat.shape[:-1]), vecs.reshape(mat.shape)


def _dk_phi(lam: np.ndarray, s: float) -> np.ndarray:
    """Daleckii-Krein first divided differences of f(x) = x^{-s}."""
    f = lam ** (-s)
    num = f[:, None] - f[None, :]
    den = lam[:, None] - lam[None, :]
    phi = np.where(np.abs(den) > 1e-14, num / np.where(den == 0, 1.0, den), 0.0)
    diag = -s * lam ** (-s - 1.0)
    near = np.abs(den) <= 1e-14
    phi[near] = 0.5 * (diag[:, None] + diag[None, :])[near]
    return phi


def _xi_value_and_grad(omega: np.ndarray, states: np.ndarray,
                       weights: np.ndarray, alpha: float,
                       trace_first=None):
    """F = sum_x w_x Tr((I x omega)^{-s} W_x ...)^alpha and its omega-gradient.

    With trace_first = dim_A, states live on A x B and omega on B alone (the
    conditional-entropy case); otherwise states and omega share one system.
    ``states`` is a stacked (m, D, D) array; the per-state eigenproblems are
    batched.
    """
    sp = (alpha - 1.0) / (2.0 * alpha)
    lam, v = _eigh(omega)
    lam = np.clip(lam, 1e-18, None)
    oms_small = (v * lam ** (-sp)) @ v.conj().T
    da = trace_first
    if da is not None:
        oms = np.kron(np.eye(da), oms_small)
    else:
        oms = oms_small
    phi = _dk_phi(lam, sp)
    M = oms @ states @ oms
    mu, q = _eigh(M)
    mu = np.clip(mu, 0.0, None)
    F = float(np.sum(weights * np.sum(mu**alpha, axis=1)))
    m_am1 = (q * mu[:, None, :] ** (alpha - 1.0)) @ np.conj(np.swapaxes(q, 1, 2))
    g1 = states @ oms @ m_am1 + m_am1 @ oms @ states
    K = np.tensordot(weights, g1, axes=(0, 0))
    if da is not None:
        d_b = omega.shape[0]
        K = np.trace(K.reshape(da, d_b, da, d_b), axis1=0, axis2=2)
    b = v.conj().T @ K @ v
    grad = alpha * ((v @ (phi * b) @ v.conj().T))
    grad = 0.5 * (grad + grad.conj().T)
    return F, grad


def _simplex_project_psd(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {sigma >= 0, Tr sigma = 1} via eigenvalues."""
    lam, v = _eigh(0.5 * (mat + mat.conj().T))
    # project the eigenvalue vector onto the probability simplex
    u = np.sort(lam)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, lam.size + 1)
    cond = u - (css - 1.0) / idx > 0
    rho_i = idx[cond][-1]
    theta = (css[cond][-1] - 1.0) / rho_i
    w = np.clip(lam - theta, 0.0, None)
    return (v * w) @ v.conj().T


def monomial_form(unitaries) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) with U[..., i, perm[..., i]] = phase[..., i].

    Every Weyl operator, and every tensor product of Weyl operators and
    identities, has exactly one nonzero entry per row; this is the form
    ``_minimize_xi``'s ``group`` argument takes.
    """
    us = np.asarray(unitaries, dtype=complex)
    perm = np.argmax(np.abs(us), axis=-1)
    phase = np.take_along_axis(us, perm[..., None], axis=-1)[..., 0]
    rebuilt = np.zeros_like(us)
    np.put_along_axis(rebuilt, perm[..., None], phase[..., None], axis=-1)
    if (np.max(np.abs(us - rebuilt)) > _HERM_TOL
            or np.max(np.abs(np.abs(phase) - 1.0)) > _HERM_TOL):
        raise ValueError("unitary is not a permutation times phases")
    return perm, phase


def _group_twirl(perm: np.ndarray, phase: np.ndarray):
    """T(m) = mean_c U_c m U_c^dag for monomial unitaries U_c, given as
    (|C|, D) ``monomial_form`` arrays.

    Applied as an index gather, (U m U^dag)[i, j] = ph_i conj(ph_j) m[perm_i, perm_j],
    averaged over c.  When the U_c form a group up to phases, T is the
    orthogonal projection onto their commutant: idempotent, self-adjoint,
    trace preserving and unital.
    """
    dim = perm.shape[1]
    index = perm[:, :, None] * dim + perm[:, None, :]
    outer = phase[:, :, None] * phase.conj()[:, None, :] / perm.shape[0]

    def twirl(m):
        return np.sum(m.reshape(-1)[index] * outer, axis=0)

    return twirl


def _pgd_minimize(states, weights, alpha, sigma0, trace_first=None,
                  iters: int = 300, twirl=None):
    """Projected gradient descent fallback on the density-matrix simplex.

    With ``twirl`` the gradient is twirled; the simplex projection is a
    spectral map, so iterates stay in the commutant.
    """
    sigma = sigma0.copy()
    f, g = _xi_value_and_grad(sigma, states, weights, alpha, trace_first)
    if twirl is not None:
        g = twirl(g)
    step = 1.0
    for _ in range(iters):
        cand = _simplex_project_psd(sigma - step * g)
        fc, gc = _xi_value_and_grad(cand, states, weights, alpha, trace_first)
        if fc < f - 1e-15:
            if twirl is not None:
                gc = twirl(gc)
            sigma, f, g = cand, fc, gc
            step *= 1.3
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return f, sigma


def _minimize_xi(states, weights, alpha, sigma0=None, trace_first=None,
                 maxiter: int = 500, group=None):
    """min over density sigma of sum_x w_x Xi_alpha(W_x || sigma-side).

    Returns (min value of the weighted Xi sum, minimizing sigma).  Uses the
    scale-invariant objective log F(X X^dag) + t log Tr X X^dag over an
    unconstrained complex factor X, then falls back to projected gradient
    descent if the quasi-Newton path misbehaves.

    ``group`` = (perm, phase), the ``monomial_form`` of unitaries U_c that
    form a group up to phases, declares the problem to be the uniform
    mixture of U_c W U_c^dag over c for the single state W passed in
    ``states``.  The objective is then evaluated at the twirl T(X X^dag),
    where every term equals the one for W, and its gradient is twirled back
    (T is self-adjoint).  Without ``group`` the solver is unreduced.  Logs
    one DEBUG record per call on the ``pdckit`` logger.
    """
    t = alpha - 1.0
    states = np.asarray(states, dtype=complex)
    if states.ndim == 2:
        states = states[None, :, :]
    weights = np.asarray(weights, dtype=float)
    twirl = None
    order = 1
    if group is not None:
        if trace_first is not None:
            raise ValueError("the group reduction needs trace_first=None")
        twirl = _group_twirl(*group)
        order = len(group[0])

    supp = None
    if trace_first is None:
        # the optimum is supported on the joint support of the states:
        # pinching onto it never increases the divergence and any mass off
        # it only wastes normalization.  Restricting shrinks and conditions
        # the problem when the states are rank deficient.  The twirled mean
        # is the mean over the whole orbit, so the support is the same.
        mean = np.tensordot(weights, states, axes=(0, 0))
        if twirl is not None:
            mean = twirl(mean)
        lam_m, v_m = np.linalg.eigh(mean)
        supp = v_m[:, lam_m > 1e-12 * max(lam_m.max(), 1e-300)]
        if supp.shape[1] < mean.shape[0]:
            states = np.einsum("ia,xij,jb->xab", supp.conj(), states, supp)
            if sigma0 is not None:
                sigma0 = supp.conj().T @ sigma0 @ supp
                tr0 = np.trace(sigma0).real
                sigma0 = sigma0 / tr0 if tr0 > 1e-12 else None
            if twirl is not None:
                # the support is invariant under every U_c
                full_twirl = twirl
                twirl = lambda m: supp.conj().T @ full_twirl(supp @ m @ supp.conj().T) @ supp
        else:
            supp = None
    d = states.shape[1] if trace_first is None else states.shape[1] // trace_first

    if sigma0 is None:
        sigma0 = np.eye(d) / d
    elif twirl is not None:
        sigma0 = twirl(sigma0)
    lam0, v0 = np.linalg.eigh(sigma0)
    x0 = (v0 * np.sqrt(np.clip(lam0, 1e-9, None))) @ v0.conj().T

    def pack(x):
        return np.concatenate([x.real.ravel(), x.imag.ravel()])

    def unpack(vec):
        n = d * d
        return vec[:n].reshape(d, d) + 1j * vec[n:].reshape(d, d)

    def gram(x):
        omega = x @ x.conj().T
        return omega if twirl is None else twirl(omega)

    def objective(vec):
        x = unpack(vec)
        omega = gram(x)
        tr = np.trace(omega).real
        f, g_omega = _xi_value_and_grad(omega, states, weights, alpha, trace_first)
        if not np.isfinite(f) or f <= 0:
            return 1e6, np.zeros_like(vec)
        val = np.log(f) + t * np.log(tr)
        g_total = g_omega / f + t / tr * np.eye(d)
        if twirl is not None:
            g_total = twirl(g_total)
        cg = 2.0 * (g_total @ x)
        return val, pack(cg)

    res = minimize(objective, pack(x0), jac=True, method="L-BFGS-B",
                   options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-11})
    best_f = np.inf
    best_sigma = sigma0
    path = "seed"
    if np.isfinite(res.fun):
        omega = gram(unpack(res.x))
        sigma = omega / np.trace(omega).real
        f, _ = _xi_value_and_grad(sigma, states, weights, alpha, trace_first)
        best_f, best_sigma, path = f, sigma, "lbfgs"
    f0, _ = _xi_value_and_grad(sigma0, states, weights, alpha, trace_first)
    if f0 < best_f:
        best_f, best_sigma, path = f0, sigma0, "seed"
    if not np.isfinite(best_f) or best_f > f0 * (1 + 1e-6):
        f_pgd, sigma_pgd = _pgd_minimize(states, weights, alpha, sigma0,
                                         trace_first, twirl=twirl)
        if f_pgd < best_f:
            best_f, best_sigma, path = f_pgd, sigma_pgd, "pgd"
    _log.debug("_minimize_xi: path=%s lbfgs_iters=%d group_order=%d "
               "value=%.17g seed_value=%.17g", path, res.nit, order, best_f, f0)
    if supp is not None:
        best_sigma = supp @ best_sigma @ supp.conj().T
    return best_f, best_sigma


def cond_entropy_up_sandwiched(rho_ab: DensityMatrix, alpha: float,
                               sigma0: np.ndarray | None = None) -> float:
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
    da = rho_ab.dims[0]
    if sigma0 is None:
        sigma0 = partial_trace(rho_ab, [1]).matrix
    f, _sigma = _minimize_xi([rho_ab.matrix], [1.0], alpha, sigma0=sigma0,
                             trace_first=da)
    return float(-np.log2(f) / t)


def petz_mutual_info_up_cq(weights, states, alpha: float) -> float:
    """I_alpha^up(X;B) = D_alpha(rho_XB || rho_X x rho_B) for a cq state.

    The block structure of sum_x w_x |x><x| x S_x collapses the divergence to
    (1/(alpha-1)) log2 sum_x w_x Tr[S_x^alpha rho_B^{1-alpha}]; no
    optimization is involved.
    """
    t = alpha - 1.0
    if abs(t) < 1e-12:
        raise ValueError("alpha = 1 not supported; use Shannon quantities")
    weights = np.asarray(weights, dtype=float)
    mats = np.stack([_as_matrix(s) for s in states])
    rho_b = np.tensordot(weights, mats, axes=(0, 0))
    rb_pow = _herm_power(rho_b, 1.0 - alpha, pseudo=True)
    lam, vecs = np.linalg.eigh(mats)
    lam = np.clip(lam, 0.0, None)
    s_pow = (vecs * lam[:, None, :] ** alpha) @ np.conj(np.swapaxes(vecs, 1, 2))
    total = float(np.einsum("x,xij,ji->", weights, s_pow, rb_pow).real)
    return float(np.log2(total) / t)


def sandwiched_mutual_info_down_cq(weights, states, alpha: float,
                                   sigma0: np.ndarray | None = None) -> float:
    """I~_alpha^down(X;E) for a cq state sum_x w_x |x><x| x W_x.

    Because X is classical and the first marginal is the true one, the
    divergence block-decomposes and the quantity reduces to
    (1/t) log2 min_sigma sum_x w_x Xi_alpha(W_x || sigma).
    """
    t = alpha - 1.0
    if t <= 0:
        raise ValueError("implemented for alpha > 1")
    mats = [_as_matrix(w) for w in states]
    f, _sigma = _minimize_xi(mats, weights, alpha, sigma0=sigma0)
    return float(np.log2(f) / t)
