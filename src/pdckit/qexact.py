"""Exact small-dimension quantum oracle.

Dense complex density matrices, Weyl operators, Bell states, the Petz
Renyi divergence, conditional entropies, the Petz cq mutual information,
twirling, and the sandwiched infimum solver.
Every quantum identity used by the rate formulas is checked against this
module numerically; it is an oracle, not a large-n simulator, so the total
Hilbert dimension is capped at 256.

All matrix functions go through Hermitian eigendecompositions with
eigenvalue clipping at 1e-12; all entropic quantities are in bits.  The
Petz quantities (``petz_divergence``, ``cond_entropy_down``,
``petz_mutual_info_up_cq``) take one order or an array of orders, as
``dists.renyi_entropy`` does: the states are diagonalised once for all
orders, and each order's powers are taken with one scalar exponent, so an
array entry is bit for bit the one-order value.

The infimum over sigma_B inside the optimized sandwiched conditional entropy
has no closed form.  It is computed by quasi-Newton descent on an
unconstrained PSD factorization (sigma = X X^dag up to trace, with analytic
Daleckii-Krein gradients), seeded at the reduced state; the seed is
returned whenever the descent does not end at or below its value.  The
objective F has a value-only evaluator, ``_xi_value``, which the gradient
code ``_xi_value_and_grad`` runs first; the seed's and the end point's
values, which need no gradient, come from it.  There is one solver
path, over the full list of states.  scipy is imported where it runs (the
descent step ``minimize`` and the ``_eigh`` fallback), so importing this
module loads numpy alone.
Correctness is validated against the closed classical forms available in
the Weyl-Heisenberg setting.

The discrete Weyl twirl of a two-qudit state is the pinching onto the
generalized Bell basis: every Bell state is a common eigenvector of the
operators W(x, z) x conj(W(x, z)), and the twirl keeps exactly the
Bell-diagonal part.
"""

from __future__ import annotations

import logging

import numpy as np

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
    total = int(np.prod(dims, dtype=object))  # Python ints: 2^64 does not wrap to 0
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

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


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

def weyl(x: int, z: int, p: int) -> np.ndarray:
    """The Weyl operator W(x, z) = X^x Z^z on a p-dimensional system."""
    p = _check_prime(p)
    x, z = int(x) % p, int(z) % p
    omega = np.exp(2j * np.pi / p)
    zmat = np.diag(omega ** (z * np.arange(p)))
    xmat = np.zeros((p, p), dtype=complex)
    xmat[(np.arange(p) + x) % p, np.arange(p)] = 1.0
    return xmat @ zmat


def bell_state(p: int) -> PureState:
    """Maximally entangled |Phi> = p^{-1/2} sum_i |i>|i> on A x B."""
    p = _check_prime(p)
    vec = np.eye(p).reshape(-1) / np.sqrt(p)
    return PureState(vec, [p, p])


def bell_basis_state(x: int, z: int, p: int) -> PureState:
    """(W(x,z) x I)|Phi>, the (x, z) element of the generalized Bell basis."""
    w = weyl(x, z, p)
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
            full = _op_on(weyl(x, z, p), rho.dims, subsystem)
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

    Computed as the pinching sum_b |b><b| rho |b><b| onto the Bell basis
    |b> = (W(a,c) x I)|Phi>.  As (I x M)|Phi> = (M^T x I)|Phi>, the operator
    W(x,z) x conj(W(x,z)) maps |b> to (W(x,z) W(a,c) W(x,z)^dag x I)|Phi>
    = omega^{za - xc} |b>.  The symplectic form is nondegenerate, so distinct
    Bell states have distinct characters, and the average over all p^2
    labels cancels every term |b><b| rho |b'><b'| with b != b'.  The output
    is Bell-diagonal; the map is idempotent.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError("twirl needs a two-subsystem state with equal dims")
    p = rho.dims[0]
    basis = np.stack([bell_basis_state(x, z, p).vector
                      for x in range(p) for z in range(p)], axis=1)
    w = np.diag(basis.conj().T @ rho.matrix @ basis).real
    return DensityMatrix((basis * w) @ basis.conj().T, rho.dims)


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
    w = weyl(k, l, p)
    _, vecs = np.linalg.eig(w)
    v0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    # step operator: any (x0, z0) with x0*l - z0*k = 1 shifts the label by one
    step = None
    for x0 in range(p):
        for z0 in range(p):
            if (x0 * l - z0 * k) % p == 1:
                step = weyl(x0, z0, p)
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

def _eig_power(lam: np.ndarray, v: np.ndarray, power: float) -> np.ndarray:
    """The Hermitian matrix with eigendecomposition (lam, v) to ``power`` on
    the support.

    Eigenvalues at or below 1e-12 map to zero, so a negative power is the
    pseudo-inverse power.  ``power`` is one scalar: numpy's ``**`` takes
    exponent 0.5 as a square root, which a broadcast power would not.
    """
    out = np.zeros_like(lam)
    mask = lam > _EIG_CLIP
    out[mask] = lam[mask] ** power
    return (v * out) @ v.conj().T


def _herm_power(mat: np.ndarray, power: float) -> np.ndarray:
    """mat^power on the support, via eigendecomposition (see ``_eig_power``)."""
    return _eig_power(*np.linalg.eigh(mat), power)


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


def _orders(alpha) -> np.ndarray:
    """The orders as a float array, each positive and not 1 (|alpha - 1| >= 1e-12)."""
    orders = np.asarray(alpha, dtype=float)
    for a in orders.flat:
        if not a > 0:
            raise ValueError(f"order must be positive, got {a}")
        if abs(a - 1.0) < 1e-12:
            raise ValueError("alpha = 1 not supported; use Shannon quantities")
    return orders


def _per_order(fn, orders: np.ndarray):
    """fn at each order, as a float for a 0-d ``orders`` and else an array of
    its shape.  Each call gets one scalar order, so every entry is bit for
    bit the one-order value."""
    out = np.array([fn(a) for a in orders.flat]).reshape(orders.shape)
    return float(out) if out.ndim == 0 else out


def petz_divergence(rho, sigma, alpha):
    """Petz Renyi divergence D_alpha(rho || sigma) = (1/t) log2 Tr rho^alpha sigma^{-t}.

    alpha = 1 + t; sigma may be any PSD operator (not necessarily unit
    trace).  ``alpha`` is one order (a float result) or an array of orders
    (an array result): rho and sigma are diagonalised once for all of them.
    An order <= 0 or alpha = 1 (|t| < 1e-12) raises ValueError.
    """
    orders = _orders(alpha)
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if np.any(orders > 1.0):
        _support_check(r, s)
    eig_r = np.linalg.eigh(r)
    eig_s = np.linalg.eigh(s)

    def one(a):
        # the power is -(a - 1), which can differ from 1 - a in the last bit
        t = a - 1.0
        val = np.trace(_eig_power(*eig_r, a) @ _eig_power(*eig_s, -t)).real
        if val <= 0:
            return np.inf
        return float(np.log2(val) / t)

    return _per_order(one, orders)


def cond_entropy_down(rho_ab: DensityMatrix, alpha):
    """Petz conditional entropy H_alpha^down(A|B) = -D_alpha(rho_AB || I_A x rho_B),
    alpha != 1, at one order or an array of orders (as ``petz_divergence``)."""
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
        import scipy.linalg

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


def _xi_terms(omega: np.ndarray, states: np.ndarray, weights: np.ndarray,
              alpha: float, trace_first):
    """F of ``_xi_value`` with the spectra its gradient reuses: the order's
    s, omega's clipped eigenpairs, (I x omega)^{-s} and the eigenpairs of
    the sandwiched states."""
    # np.clip(x, lo, None) is np.maximum(x, lo), and np.kron(np.eye(da), oms)
    # is the multiply below: the same ufuncs, without their wrappers
    sp = (alpha - 1.0) / (2.0 * alpha)
    lam, v = _eigh(omega)
    lam = np.maximum(lam, 1e-18)
    oms = (v * lam ** (-sp)) @ v.conj().T
    if trace_first is not None:
        da, d_b = trace_first, oms.shape[0]
        oms = np.multiply(np.eye(da)[:, None, :, None],
                          oms[None, :, None, :]).reshape(da * d_b, da * d_b)
    mu, q = _eigh(oms @ states @ oms)
    mu = np.maximum(mu, 0.0)
    F = float(np.sum(weights * np.sum(mu**alpha, axis=1)))
    return F, sp, lam, v, oms, mu, q


def _xi_value(omega: np.ndarray, states: np.ndarray, weights: np.ndarray,
              alpha: float, trace_first=None) -> float:
    """F = sum_x w_x Tr((I x omega)^{-s} W_x (I x omega)^{-s})^alpha, s = t / (2 alpha).

    With trace_first = dim_A, states live on A x B and omega on B alone (the
    conditional-entropy case); otherwise states and omega share one system.
    ``states`` is a stacked (m, D, D) array; the per-state eigenproblems are
    batched.  This is the value half of ``_xi_value_and_grad``, which calls
    the same code first, so the two give F bit for bit alike; callers that
    read only F use this one and skip the gradient.
    """
    return _xi_terms(omega, states, weights, alpha, trace_first)[0]


def _xi_value_and_grad(omega: np.ndarray, states: np.ndarray,
                       weights: np.ndarray, alpha: float,
                       trace_first=None):
    """``_xi_value``'s F and its omega-gradient (Daleckii-Krein)."""
    F, sp, lam, v, oms, mu, q = _xi_terms(omega, states, weights, alpha, trace_first)
    phi = _dk_phi(lam, sp)
    m_am1 = (q * mu[:, None, :] ** (alpha - 1.0)) @ np.conj(np.swapaxes(q, 1, 2))
    g1 = states @ oms @ m_am1 + m_am1 @ oms @ states
    # np.tensordot(weights, g1, axes=(0, 0)) is this dot, without its wrapper
    K = np.dot(weights.reshape(1, -1), g1.reshape(len(g1), -1)).reshape(oms.shape)
    if trace_first is not None:
        d_b = omega.shape[0]
        K = np.trace(K.reshape(trace_first, d_b, trace_first, d_b), axis1=0, axis2=2)
    b = v.conj().T @ K @ v
    grad = alpha * ((v @ (phi * b) @ v.conj().T))
    grad = 0.5 * (grad + grad.conj().T)
    return F, grad


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call, not with this module."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _minimize_xi(states, weights, alpha, sigma0=None, trace_first=None):
    """min over density sigma of sum_x w_x Xi_alpha(W_x || sigma-side).

    Returns (min value of the weighted Xi sum, minimizing sigma).  Uses the
    scale-invariant objective log F(X X^dag) + t log Tr X X^dag over an
    unconstrained complex factor X.  The L-BFGS point is returned only if
    its value is at or below the seed's; otherwise (a worse or non-finite
    value) the seed is, so the result is always a feasible density matrix.
    Logs one DEBUG record per call on the ``pdckit`` logger.
    """
    t = alpha - 1.0
    states = np.asarray(states, dtype=complex)
    if states.ndim == 2:
        states = states[None, :, :]
    weights = np.asarray(weights, dtype=float)

    supp = None
    if trace_first is None:
        # the optimum is supported on the joint support of the states:
        # pinching onto it never increases the divergence and any mass off
        # it only wastes normalization.  Restricting shrinks and conditions
        # the problem when the states are rank deficient.
        mean = np.tensordot(weights, states, axes=(0, 0))
        lam_m, v_m = np.linalg.eigh(mean)
        supp = v_m[:, lam_m > 1e-12 * max(lam_m.max(), 1e-300)]
        if supp.shape[1] < mean.shape[0]:
            states = np.einsum("ia,xij,jb->xab", supp.conj(), states, supp)
            if sigma0 is not None:
                sigma0 = supp.conj().T @ sigma0 @ supp
                tr0 = np.trace(sigma0).real
                sigma0 = sigma0 / tr0 if tr0 > 1e-12 else None
        else:
            supp = None
    d = states.shape[1] if trace_first is None else states.shape[1] // trace_first

    if sigma0 is None:
        sigma0 = np.eye(d) / d
    lam0, v0 = np.linalg.eigh(sigma0)
    x0 = (v0 * np.sqrt(np.clip(lam0, 1e-9, None))) @ v0.conj().T

    def pack(x):
        return np.concatenate([x.real.ravel(), x.imag.ravel()])

    def unpack(vec):
        n = d * d
        return vec[:n].reshape(d, d) + 1j * vec[n:].reshape(d, d)

    def objective(vec):
        x = unpack(vec)
        omega = x @ x.conj().T
        tr = np.trace(omega).real
        f, g_omega = _xi_value_and_grad(omega, states, weights, alpha, trace_first)
        if not np.isfinite(f) or f <= 0:
            return 1e6, np.zeros_like(vec)
        val = np.log(f) + t * np.log(tr)
        g_total = g_omega / f + t / tr * np.eye(d)
        cg = 2.0 * (g_total @ x)
        return val, pack(cg)

    res = minimize(objective, pack(x0), jac=True, method="L-BFGS-B",
                   options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-11})
    f0 = _xi_value(sigma0, states, weights, alpha, trace_first)
    best_f, best_sigma, path = f0, sigma0, "seed"
    if np.isfinite(res.fun):
        x = unpack(res.x)
        omega = x @ x.conj().T
        sigma = omega / np.trace(omega).real
        f = _xi_value(sigma, states, weights, alpha, trace_first)
        # false for a NaN value, which keeps the seed
        if f <= f0:
            best_f, best_sigma, path = f, sigma, "lbfgs"
    _log.debug("_minimize_xi: path=%s lbfgs_iters=%d value=%.17g seed_value=%.17g",
               path, res.nit, best_f, f0)
    if supp is not None:
        best_sigma = supp @ best_sigma @ supp.conj().T
    return best_f, best_sigma


def petz_mutual_info_up_cq(weights, states, alpha):
    """I_alpha^up(X;B) = D_alpha(rho_XB || rho_X x rho_B) for a cq state.

    The block structure of sum_x w_x |x><x| x S_x collapses the divergence to
    (1/(alpha-1)) log2 sum_x w_x Tr[S_x^alpha rho_B^{1-alpha}]; no
    optimization is involved.  ``alpha`` is one order (a float result) or an
    array of orders (an array result): rho_B and the states are
    diagonalised once for all of them.
    """
    orders = _orders(alpha)
    weights = np.asarray(weights, dtype=float)
    mats = np.stack([_as_matrix(s) for s in states])
    eig_b = np.linalg.eigh(np.tensordot(weights, mats, axes=(0, 0)))
    lam, vecs = np.linalg.eigh(mats)
    lam = np.clip(lam, 0.0, None)
    vecs_h = np.conj(np.swapaxes(vecs, 1, 2))

    def one(a):
        rb_pow = _eig_power(*eig_b, 1.0 - a)
        s_pow = (vecs * lam[:, None, :] ** a) @ vecs_h
        total = float(np.einsum("x,xij,ji->", weights, s_pow, rb_pow).real)
        return float(np.log2(total) / (a - 1.0))

    return _per_order(one, orders)
