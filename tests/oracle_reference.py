"""Reference quantities that only the tests evaluate.

The Umegaki relative entropy, the sandwiched Renyi divergence, the
optimized sandwiched conditional entropy, the sandwiched cq mutual
information, the characteristic value of a Pauli distribution, quantum
Eve's dense (p^3)^n-dimensional states, her per-message leakage through
p^{n1} x p^{n1} syndrome-law matrices, the verification-variable
comparison as a HiGHS linear program over a joint built cell by cell, and
the identity suite with one Petz call per order and a full solver
evaluation for the reference value, and the oracle's Bell machinery built
label by label (Bell states, the Bell-diagonal state, the purification, the
covariant eigenbasis by search and the setting statistics cell by cell).
The package computes none of them on a command path; the tests use them as
independent anchors for ``qexact``'s solver and Bell basis,
``estimation``'s character table and setting statistics, ``wiretap``'s
coset-block leakage, ``protocol.lnm_check`` and
``identities.check_identities``.
"""

import numpy as np

from pdckit import qexact
from pdckit.dists import PauliDist, convolve, marginal, renyi_entropy, shannon
from pdckit.gf import _mod, all_vectors, toeplitz_apply_batch
from pdckit.hashing import SeedS, SeedSPrime, f_s, g_sprime
from pdckit.identities import IdentityResiduals, _weyl_orbit_states, omega_state
from pdckit.qexact import (_EIG_CLIP, DensityMatrix, _as_matrix, _check_dims, _herm_power,
                           _minimize_xi, _support_check, partial_trace, purify, vn_entropy,
                           weyl)
from pdckit.wiretap import _pair_labels, _syndrome_law


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


def quantum_eve_states(P: PauliDist, n: int, words: np.ndarray) -> np.ndarray:
    """Quantum Eve's (words, (p^3)^n, (p^3)^n) states for a (words, 2n) codeword stack.

    Word c gives (U_{c_1} x ... x U_{c_n}) tau_AE^{x n} (.)^dag with
    U_g = W(g) x I_E and tau_AE = Tr_B of ``purify(P)``.  SizeCapError when
    (p^3)^n exceeds ``qexact.DIM_CAP`` (256), and from ``purify`` for p > 3.
    """
    p = P.p
    _check_dims([p**3] * n)  # SizeCapError above the cap
    tau = partial_trace(purify(P), [0, 2]).matrix
    rotations = [np.kron(weyl(x, z, p), np.eye(p**2)) for x, z in all_vectors(p, 2)]
    sites = np.stack([u @ tau @ u.conj().T for u in rotations])
    labels = _pair_labels(words, p)
    out = np.ones((len(labels), 1, 1), dtype=complex)
    for i in range(n):
        site = sites[labels[:, i]]
        d = out.shape[1] * site.shape[1]
        out = (out[:, :, None, :, None] * site[:, None, :, None, :]).reshape(-1, d, d)
    return out


def quantum_eve_leakage(code, n2: int, n3: int, P: PauliDist, n: int) -> float:
    """``exact_leakage`` for quantum Eve from her dense states.

    Every seed S, and per message m' the trace norm of the average state
    over the f_S preimage of m' minus the average over all words, weighted
    1/p^{n2+n3} and averaged over the seeds.  Needs n1 > n2 + n3.
    """
    p, n1 = code.p, code.n1
    infos = all_vectors(p, n1)
    states = quantum_eve_states(P, n, code.encode(infos))
    avg = states.mean(axis=0)
    total = 0.0
    for vec in all_vectors(p, n1 - 1):
        mvals = f_s(SeedS(vec, n1, n2, n3, p), infos)
        for m in np.unique(mvals, axis=0):
            cond = states[(mvals == m).all(axis=1)].mean(axis=0)
            total += np.abs(np.linalg.eigvalsh(cond - avg)).sum() / p ** (n2 + n3)
    return total / p ** (n1 - 1)


def message_norms(code, k: int, eve, seeds):
    """Per seed, the list of ||tau_{E|m'} - tau_E||_1 over m' in index order
    (the trace norm for quantum Eve, the l1 norm for classical Eve).

    Hashes every information word to M' = L1 + T(S) L2 (the f_S map, with
    n1 = k allowed).  Classical Eve's laws are averaged over each preimage.

    Quantum Eve's states are never built.  By step 1 of ``theorem1_bound``
    she holds (I_A x Z_m) tau^{x n} (I_A x Z_m)^dag for the word m, and the
    mean of omega^{m.D} over all m is delta_{D,0}.  So a preimage's average
    state minus the overall one is X = p^{-n} V (I_A x K) V^dag, with the
    unitary V = sum_g W_g x |g><g|, K(g, g') = sqrt(P(g) P(g')) c(s(g) - s(g'))
    and c(D) the preimage mean of omega^{m.D} minus delta_{D,0}.  I_A is
    p^n-dimensional, so ||X||_1 = ||K||_1.  K = D^{1/2} S^T C S D^{1/2} with
    D = diag(P), S the 0/1 map g -> s(g) and C(s, s') = c(s - s'); AB and BA
    share their nonzero spectrum and S D S^T = diag(Q_C), so ||X||_1 is
    sum |eig(M)| for the p^{n1} x p^{n1} M(s, s') = sqrt(Q_C(s) Q_C(s')) c(s - s').
    SizeCapError when p^{n1} exceeds ``qexact.DIM_CAP``.
    """
    p, n1 = code.p, code.n1
    infos = all_vectors(p, n1)
    if eve.is_quantum:
        qexact._check_dims([p] * n1)  # SizeCapError above the cap
        root = np.sqrt(_syndrome_law(eve.P, code))
        scale = root[:, None] * root[None, :]
        # chars[m, D] = omega^{m.D}; diff[s, s'] is the index of s - s'
        chars = np.exp(2j * np.pi / p * _mod(infos @ infos.T, p))
        diff = _mod(infos[:, None, :] - infos[None, :, :], p) @ p ** np.arange(n1 - 1, -1, -1)

        def norm(idx):
            c = chars[idx].mean(axis=0)
            c[0] -= 1.0
            return np.abs(np.linalg.eigvalsh(scale * c[diff])).sum()
    else:
        states = eve.states(code.encode(infos))
        avg = states.mean(axis=0)

        def norm(idx):
            return np.abs(sum(states[i] for i in idx) / len(idx) - avg).sum()
    weights = p ** np.arange(k - 1, -1, -1)
    for seed_vec in seeds:
        mvals = _mod(infos[:, :k] + toeplitz_apply_batch(seed_vec, infos[:, k:], k, n1 - k, p), p)
        midx = mvals @ weights
        yield [float(norm(np.flatnonzero(midx == m))) for m in range(p**k)]


def min_sigma_distance_lp(joint: np.ndarray) -> float:
    """min over distributions sigma of sum_{m,f} |P(m,f) - P(m) sigma(f)|.

    ``joint`` has shape (M, F).  Solved as a dense HiGHS linear program with
    2MF rows and F + MF columns, so the value is good to HiGHS's 1e-7
    feasibility tolerance, not exact.
    """
    from scipy.optimize import linprog

    m_count, f_count = joint.shape
    pm = joint.sum(axis=1)
    n_sigma = f_count
    n_u = m_count * f_count
    cost = np.concatenate([np.zeros(n_sigma), np.ones(n_u)])
    # u_{mf} >= +-(P(m,f) - pm sigma_f)
    rows = []
    rhs = []
    for m in range(m_count):
        for f in range(f_count):
            row = np.zeros(n_sigma + n_u)
            row[f] = pm[m]
            row[n_sigma + m * f_count + f] = -1.0
            rows.append(row)
            rhs.append(joint[m, f])
            row2 = np.zeros(n_sigma + n_u)
            row2[f] = -pm[m]
            row2[n_sigma + m * f_count + f] = -1.0
            rows.append(row2)
            rhs.append(-joint[m, f])
    a_eq = np.zeros((1, n_sigma + n_u))
    a_eq[0, :n_sigma] = 1.0
    res = linprog(cost, A_ub=np.stack(rows), b_ub=np.array(rhs), A_eq=a_eq,
                  b_eq=[1.0], bounds=[(0, None)] * (n_sigma + n_u),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"leakage LP failed: {res.message}")
    return float(res.fun)


def verification_joints(p: int, n2: int, n3: int, kernel: np.ndarray):
    """The two joints ``lnm_check`` compares, built one (m, y, s') at a time.

    Returns the (M, E' S' C) joint, columns ordered (s', c, e'), and the
    (M', E') joint.  Every cell is w * kernel[e', m'] with w = 1/(m y s'),
    added to a zero, so the bits match any builder that multiplies by the
    same w.
    """
    m_count = p**n2
    y_count = p**n3
    s_count = p ** (n2 + n3 - 1)
    e_count = kernel.shape[0]
    joint_me = np.zeros((m_count * y_count, e_count))
    for mp in range(m_count * y_count):
        joint_me[mp] = kernel[:, mp] / (m_count * y_count)
    seeds = SeedSPrime(all_vectors(p, n2 + n3 - 1), n2, n3, p)
    c_weights = p ** np.arange(n3 - 1, -1, -1)
    joint = np.zeros((m_count, e_count * s_count * y_count))
    for m_idx, mv in enumerate(all_vectors(p, n2)):
        for y_idx, yv in enumerate(all_vectors(p, n3)):
            mp_idx = y_idx * m_count + m_idx
            c_idx = g_sprime(seeds, mv, yv) @ c_weights  # one C per seed S'
            for s_idx in range(s_count):
                col_base = (s_idx * y_count + int(c_idx[s_idx])) * e_count
                w = 1.0 / (m_count * y_count * s_count)
                joint[m_idx, col_base:col_base + e_count] += w * kernel[:, mp_idx]
    return joint, joint_me


def reference_check_identities(P: PauliDist, P_tilde: PauliDist,
                               ts: np.ndarray | None = None) -> IdentityResiduals:
    """``check_identities`` with one Petz call per order, each diagonalising
    its states afresh, and the omega_E reference value from a full
    ``_xi_value_and_grad`` evaluation.  Takes no t-grid checks."""
    p = P.p
    ts = np.arange(1, 10) / 10.0 if ts is None else np.asarray(ts, dtype=float)
    log_p = np.log2(p)
    q_eff = convolve(P_tilde, P)

    omega = omega_state(P, P_tilde)
    om_ab = qexact.partial_trace(omega, [0, 1])
    om_ae = qexact.partial_trace(omega, [0, 2])
    om_b = qexact.partial_trace(omega, [1])
    om_e = qexact.partial_trace(omega, [2])

    r_ab = abs(
        qexact.vn_entropy(om_ab) - qexact.vn_entropy(om_b)
        - (shannon(q_eff.flat()) - log_p)
    )
    r_ae = abs(
        qexact.vn_entropy(om_ae) - qexact.vn_entropy(om_e)
        - (log_p - shannon(P.flat()))
    )

    wb_states = _weyl_orbit_states(om_ab.matrix, p, p)
    we_states = np.stack(_weyl_orbit_states(om_ae.matrix, p, p * p))
    weights = np.full(p * p, 1.0 / (p * p))

    r_petz_down = 0.0
    r_petz_mi = 0.0
    slack_min = np.inf
    r_sand_mi = 0.0
    sigma_e = om_e.matrix
    for t in ts:
        h_down = qexact.cond_entropy_down(om_ab, 1.0 - t)
        closed = renyi_entropy(q_eff.flat(), 1.0 - t) - log_p
        r_petz_down = max(r_petz_down, abs(h_down - closed))

        mi_petz = qexact.petz_mutual_info_up_cq(weights, wb_states, 1.0 - t)
        r_petz_mi = max(r_petz_mi, abs(mi_petz - (log_p - h_down)))

        f_up, sigma_e = qexact._minimize_xi(
            [om_ae.matrix], [1.0], 1.0 + t, sigma0=sigma_e, trace_first=p)
        # omega_E attains the unoptimized value exactly; never report below it
        f_ref, _ = qexact._xi_value_and_grad(
            om_e.matrix, om_ae.matrix[None, :, :], np.ones(1), 1.0 + t,
            trace_first=p)
        f_up = min(f_up, f_ref)
        h_up = float(-np.log2(f_up) / t)
        bound = log_p - renyi_entropy(P.flat(), 1.0 / (1.0 + t))
        slack_min = min(slack_min, h_up - bound)

        f_mi, _ = qexact._minimize_xi(
            we_states, weights, 1.0 + t,
            sigma0=np.kron(np.eye(p) / p, sigma_e))
        mi_sand = float(np.log2(f_mi) / t)
        r_sand_mi = max(r_sand_mi, abs(mi_sand - (log_p - h_up)))

    return IdentityResiduals(
        shannon_ab=float(r_ab), shannon_ae=float(r_ae),
        petz_down_ab=float(r_petz_down),
        sandwich_ae_min_slack=float(slack_min),
        lemma_petz_mi=float(r_petz_mi), lemma_sandwich_mi=float(r_sand_mi))


# ---------------------------------------------------------------------------
# the Bell machinery label by label
# ---------------------------------------------------------------------------

def reference_bell_basis_state(x: int, z: int, p: int) -> np.ndarray:
    """(W(x,z) x I)|Phi>, with |Phi> = p^{-1/2} sum_i |i>|i>, for one label."""
    phi = (np.eye(p).reshape(-1) / np.sqrt(p)).astype(complex)
    return np.kron(weyl(x, z, p), np.eye(p)) @ phi


def reference_bell_diagonal(P: PauliDist) -> np.ndarray:
    """sum P(x,z) |b_xz><b_xz|, accumulated label by label."""
    p = P.p
    rho = np.zeros((p * p, p * p), dtype=complex)
    for x in range(p):
        for z in range(p):
            if P.probs[x, z] != 0.0:
                v = reference_bell_basis_state(x, z, p)
                rho += P.probs[x, z] * np.outer(v, v.conj())
    return rho


def reference_purify(P: PauliDist) -> np.ndarray:
    """|Psi><Psi|, |Psi> = sum sqrt(P(x,z)) |b_xz>|x,z>_E accumulated label by label."""
    p = P.p
    vec = np.zeros(p**4, dtype=complex)
    for x in range(p):
        for z in range(p):
            amp = np.sqrt(P.probs[x, z])
            if amp != 0.0:
                e = np.zeros(p * p)
                e[x * p + z] = 1.0
                vec += amp * np.kron(reference_bell_basis_state(x, z, p), e)
    return DensityMatrix(np.outer(vec, vec.conj()), [p, p, p * p]).matrix


def reference_weyl_eigenbasis(k: int, l: int, p: int) -> np.ndarray:
    """The covariant eigenbasis of W(k, l), its step operator found by search."""
    w = weyl(k, l, p)
    _, vecs = np.linalg.eig(w)
    step = next(weyl(x0, z0, p) for x0 in range(p) for z0 in range(p)
                if (x0 * l - z0 * k) % p == 1)
    basis = np.zeros((p, p), dtype=complex)
    v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    for j in range(p):
        basis[:, j] = v
        v = step @ v
        v = v / np.linalg.norm(v)
    return basis


def reference_setting_distribution(tau_ab: DensityMatrix, l: int, k: int) -> np.ndarray:
    """The difference-measurement law on tau_AB, one amplitude per (s, j)."""
    p = tau_ab.dims[0]
    basis = reference_weyl_eigenbasis(k, l, p)
    probs = np.zeros(p)
    tensor = tau_ab.matrix.reshape(p, p, p, p)
    for s in range(p):
        for j in range(p):
            va = basis[:, (j + s) % p]
            vb = basis[:, j].conj()
            amp = np.einsum("a,b,abcd,c,d->", va.conj(), vb.conj(), tensor, va, vb)
            probs[s] += amp.real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()
