import numpy as np
import pytest

from pdckit import qexact as qx
from pdckit.dists import PauliDist, convolve, depolarizing, renyi_entropy
from pdckit.identities import bell_diagonality_residual, side_swap_residual


def random_density(dim, rng, dims=None):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return qx.DensityMatrix(m / np.trace(m).real, dims or [dim])


def random_dist(p, rng):
    return PauliDist(rng.dirichlet(np.ones(p * p)), p)


# ---------------------------------------------------------------
# Weyl operators and Bell machinery
# ---------------------------------------------------------------

def test_weyl_basics():
    for p in (2, 3, 5):
        assert np.allclose(qx.weyl(0, 0, p).matrix, np.eye(p))
    x = qx.weyl(1, 0, 2).matrix
    assert np.allclose(x, [[0, 1], [1, 0]])


def test_weyl_commutation_relation():
    for p in (2, 3, 5):
        omega = np.exp(2j * np.pi / p)
        for x in range(p):
            for z in range(p):
                for xp in range(p):
                    for zp in range(p):
                        lhs = qx.weyl(x, z, p).matrix @ qx.weyl(xp, zp, p).matrix
                        rhs = (omega ** ((xp * z - x * zp) % p)
                               * qx.weyl(xp, zp, p).matrix @ qx.weyl(x, z, p).matrix)
                        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bell_diagonal_spectra():
    phi = qx.bell_state(2).density()
    assert np.allclose(qx.bell_diagonal(PauliDist.point_mass(0, 0, 2)).matrix,
                       phi.matrix)
    mixed = qx.bell_diagonal(PauliDist.uniform(3))
    assert np.allclose(mixed.matrix, np.eye(9) / 9)
    spec = np.sort(qx.bell_diagonal(PauliDist([0.7, 0.1, 0.1, 0.1], 2)).eigenvalues())
    assert np.allclose(spec, [0.1, 0.1, 0.1, 0.7], atol=1e-12)


def test_purify():
    p = 2
    delta = PauliDist.point_mass(0, 0, p)
    psi = qx.purify(delta)
    expect = np.kron(qx.bell_state(p).vector, np.eye(p * p)[0])
    assert np.allclose(psi.vector, expect)
    rng = np.random.default_rng(0)
    for pp in (2, 3):
        P = random_dist(pp, rng)
        rho = qx.purify(P).density()
        ab = qx.partial_trace(rho, [0, 1])
        assert np.max(np.abs(ab.matrix - qx.bell_diagonal(P).matrix)) < 1e-10
        e_spec = np.sort(qx.partial_trace(rho, [2]).eigenvalues())
        assert np.allclose(e_spec, np.sort(P.flat()), atol=1e-10)


def test_pauli_channel():
    rng = np.random.default_rng(1)
    p = 2
    rho = random_density(4, rng, dims=[2, 2])
    assert np.max(np.abs(
        qx.pauli_channel(rho, PauliDist.point_mass(0, 0, p), 0).matrix
        - rho.matrix)) < 1e-12
    P = random_dist(p, rng)
    phi = qx.bell_state(p).density()
    assert np.max(np.abs(qx.pauli_channel(phi, P, 0).matrix
                         - qx.bell_diagonal(P).matrix)) < 1e-12
    # composition equals the channel of the convolved distribution
    Q = random_dist(p, rng)
    lhs = qx.pauli_channel(qx.pauli_channel(rho, P, 0), Q, 0)
    rhs = qx.pauli_channel(rho, convolve(Q, P), 0)
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12


def test_partial_trace():
    rng = np.random.default_rng(2)
    a = random_density(2, rng)
    b = random_density(3, rng)
    prod = qx.DensityMatrix(np.kron(a.matrix, b.matrix), [2, 3])
    assert np.max(np.abs(qx.partial_trace(prod, [0]).matrix - a.matrix)) < 1e-12
    phi = qx.bell_state(3).density()
    assert np.allclose(qx.partial_trace(phi, [1]).matrix, np.eye(3) / 3)
    tri = random_density(12, rng, dims=[2, 3, 2])
    red = qx.partial_trace(tri, [1])
    assert abs(np.trace(red.matrix).real - 1) < 1e-12
    assert np.linalg.eigvalsh(red.matrix).min() > -1e-12
    with pytest.raises(ValueError):
        qx.partial_trace(tri, [5])


def test_dimension_cap():
    with pytest.raises(qx.SizeCapError):
        qx.DensityMatrix(np.eye(512) / 512, [512])


# ---------------------------------------------------------------
# divergences
# ---------------------------------------------------------------

def test_divergence_zero_on_equal():
    rng = np.random.default_rng(3)
    rho = random_density(3, rng)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        assert abs(qx.petz_divergence(rho, rho, alpha)) < 1e-9
        assert abs(qx.sandwiched_divergence(rho, rho, alpha)) < 1e-9


def test_divergence_commuting_matches_classical():
    rng = np.random.default_rng(4)
    pvec = rng.dirichlet(np.ones(4))
    qvec = rng.dirichlet(np.ones(4))
    rho = np.diag(pvec).astype(complex)
    sig = np.diag(qvec).astype(complex)
    for alpha in (0.5, 1.3, 2.0):
        classical = np.log2(np.sum(pvec**alpha * qvec ** (1 - alpha))) / (alpha - 1)
        assert abs(qx.petz_divergence(rho, sig, alpha) - classical) < 1e-10
        assert abs(qx.sandwiched_divergence(rho, sig, alpha) - classical) < 1e-10


def test_sandwiched_below_petz():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_density(2, rng)
        sig = random_density(2, rng)
        assert (qx.sandwiched_divergence(rho, sig, 1.5)
                <= qx.petz_divergence(rho, sig, 1.5) + 1e-10)


def test_support_violation():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        qx.petz_divergence(rho, sig, 1.5)


def test_t_zero_routes_to_relative_entropy():
    rng = np.random.default_rng(6)
    rho = random_density(3, rng)
    sig = random_density(3, rng)
    d = qx.relative_entropy(rho, sig)
    assert abs(qx.petz_divergence(rho, sig, 1.0) - d) < 1e-12
    assert abs(qx.petz_divergence(rho, sig, 1.0 + 1e-7) - d) < 1e-4


# ---------------------------------------------------------------
# conditional entropies
# ---------------------------------------------------------------

def test_cond_entropy_product_state():
    rng = np.random.default_rng(7)
    da = 3
    sb = random_density(4, rng)
    rho = qx.DensityMatrix(np.kron(np.eye(da) / da, sb.matrix), [da, 4])
    for alpha in (0.5, 0.9, 1.4, 2.0):
        assert abs(qx.cond_entropy_down(rho, alpha) - np.log2(da)) < 1e-9
        if alpha > 1:
            assert abs(qx.cond_entropy_up_sandwiched(rho, alpha) - np.log2(da)) < 1e-8


def test_cond_entropy_maximally_entangled():
    phi = qx.bell_state(2).density()
    assert abs(qx.cond_entropy_down(phi, 1.0) - (-1.0)) < 1e-10
    assert abs(qx.cond_entropy_up_sandwiched(phi, 1.0) - (-1.0)) < 1e-10


def test_h_up_at_least_bound_on_grid():
    P = PauliDist([0.7, 0.1, 0.1, 0.1], 2)
    omega = qx.purify(P).density()
    om_ae = qx.partial_trace(omega, [0, 2])
    for t in np.arange(1, 10) / 10.0:
        h_up = qx.cond_entropy_up_sandwiched(om_ae, 1 + t)
        bound = 1.0 - renyi_entropy(P.flat(), 1 / (1 + t))
        assert h_up >= bound - 1e-8


def test_h_up_at_least_petz_up_closed_form():
    # independent anchor: sandwiched-optimized >= Petz-optimized, and the
    # Petz optimum has the closed form (a/(1-a)) log2 Tr (Tr_A rho^a)^{1/a}
    rng = np.random.default_rng(8)
    for _ in range(10):
        rho = random_density(6, rng, dims=[2, 3])
        for alpha in (1.3, 1.8):
            ra = qx._herm_power(rho.matrix, alpha)
            tr_a = np.trace(ra.reshape(2, 3, 2, 3), axis1=0, axis2=2)
            petz_up = (alpha / (1 - alpha)) * np.log2(
                np.trace(qx._herm_power(tr_a, 1 / alpha)).real)
            h_up = qx.cond_entropy_up_sandwiched(rho, alpha)
            assert h_up >= petz_up - 1e-8


def test_solver_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    states = np.stack([random_density(4, rng).matrix for _ in range(3)])
    weights = np.array([0.5, 0.3, 0.2])
    omega = random_density(4, rng).matrix
    _, g = qx._xi_value_and_grad(omega, states, weights, 1.6)
    eps = 1e-6
    for _ in range(5):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h)
        fp, _ = qx._xi_value_and_grad(omega + eps * h, states, weights, 1.6)
        fm, _ = qx._xi_value_and_grad(omega - eps * h, states, weights, 1.6)
        fd = (fp - fm) / (2 * eps)
        an = np.trace(g @ h).real
        assert abs(fd - an) < 1e-6 * max(1.0, abs(an))


def test_eigh_falls_back_when_numpy_fails(monkeypatch):
    rng = np.random.default_rng(11)
    single = random_density(5, rng).matrix
    batch = np.stack([random_density(5, rng).matrix for _ in range(3)])
    expected = [np.linalg.eigvalsh(single), np.linalg.eigvalsh(batch)]

    def no_convergence(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(qx.np.linalg, "eigh", no_convergence)
    for mat, lam_ref in zip((single, batch), expected):
        lam, v = qx._eigh(mat)
        assert lam.shape == lam_ref.shape and v.shape == mat.shape
        assert np.allclose(lam, lam_ref, atol=1e-14)
        rebuilt = (v * lam[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
        assert np.allclose(rebuilt, mat, atol=1e-14)


def test_solver_descends_from_cold_start():
    # the solver must find the Sibson optimum from the uniform seed
    rng = np.random.default_rng(10)
    from pdckit.dists import sibson_mutual_info

    W = rng.dirichlet(np.ones(4), size=5).T
    px = rng.dirichlet(np.ones(5))
    states = [np.diag(W[:, x].astype(complex)) for x in range(5)]
    for alpha in (1.2, 1.9):
        got = qx.sandwiched_mutual_info_down_cq(px, states, alpha)
        assert abs(got - sibson_mutual_info(px, W, alpha)) < 1e-9


def weyl_group_n1(p=2, extra=2):
    """U_c = W(x, z) x I over all p^2 labels, as dense stack and monomial form."""
    us = np.stack([np.kron(qx.weyl(x, z, p).matrix, np.eye(extra))
                   for x in range(p) for z in range(p)])
    return us, qx.monomial_form(us)


def test_monomial_form_round_trip_and_rejects_dense():
    us, (perm, phase) = weyl_group_n1(3, 2)
    for u, pm, ph in zip(us, perm, phase):
        assert np.allclose(u[np.arange(u.shape[0]), pm], ph)
        assert np.count_nonzero(np.abs(u) > 1e-12) == u.shape[0]
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(ValueError):
        qx.monomial_form(hadamard)


def test_group_twirl_is_the_commutant_projection():
    rng = np.random.default_rng(12)
    us, group = weyl_group_n1(2, 3)
    tw = qx._group_twirl(*group)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    dense = np.mean([u @ a @ u.conj().T for u in us], axis=0)
    assert np.allclose(tw(a), dense, atol=1e-14)
    assert np.allclose(tw(tw(a)), tw(a), atol=1e-14)  # idempotent
    # self-adjoint in the Hilbert-Schmidt inner product
    assert abs(np.vdot(a, tw(b)) - np.vdot(tw(a), b)) < 1e-12
    assert abs(np.trace(tw(a)) - np.trace(a)) < 1e-12
    assert np.allclose(tw(np.eye(6)), np.eye(6))
    for u in us:
        assert np.allclose(u @ tw(a), tw(a) @ u, atol=1e-14)


def test_twirled_gradient_matches_finite_differences():
    # the reduced objective is G(omega) = F_W(T omega), with gradient T grad F_W
    rng = np.random.default_rng(13)
    _, group = weyl_group_n1(2, 2)
    tw = qx._group_twirl(*group)
    state = random_density(4, rng).matrix[None]
    omega = random_density(4, rng).matrix
    _, g = qx._xi_value_and_grad(tw(omega), state, np.ones(1), 1.6)
    g = tw(g)
    eps = 1e-6
    for _ in range(5):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h)
        fp, _ = qx._xi_value_and_grad(tw(omega + eps * h), state, np.ones(1), 1.6)
        fm, _ = qx._xi_value_and_grad(tw(omega - eps * h), state, np.ones(1), 1.6)
        fd = (fp - fm) / (2 * eps)
        an = np.trace(g @ h).real
        assert abs(fd - an) < 1e-6 * max(1.0, abs(an))


@pytest.mark.parametrize("rank", [6, 2])
def test_group_reduced_solver_matches_unreduced(rank):
    # full-rank and rank-deficient orbit means (the latter restricts to the support)
    rng = np.random.default_rng(14 + rank)
    us, group = weyl_group_n1(2, 3)
    a = rng.normal(size=(6, rank)) + 1j * rng.normal(size=(6, rank))
    w0 = a @ a.conj().T
    w0 /= np.trace(w0).real
    orbit = np.stack([u @ w0 @ u.conj().T for u in us])
    weights = np.full(len(us), 1.0 / len(us))
    for alpha in (1.1, 1.5, 2.0):
        f_full, _ = qx._minimize_xi(orbit, weights, alpha)
        f_red, sigma = qx._minimize_xi(w0, [1.0], alpha, group=group)
        assert abs(f_red - f_full) <= 1e-9 * f_full
        # sigma is a density matrix in the commutant, where the one-state
        # value is the exact orbit objective: the reduced value is certified
        assert abs(np.trace(sigma).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(sigma).min() > -1e-12
        for u in us:
            assert np.linalg.norm(u @ sigma @ u.conj().T - sigma) < 1e-10
        f_check, _ = qx._xi_value_and_grad(sigma, orbit, weights, alpha)
        assert abs(f_check - f_red) <= 1e-12 * f_red


def test_group_reduced_pgd_stays_in_commutant():
    rng = np.random.default_rng(16)
    us, group = weyl_group_n1(2, 3)
    w0 = random_density(6, rng).matrix
    orbit = np.stack([u @ w0 @ u.conj().T for u in us])
    weights = np.full(len(us), 1.0 / len(us))
    tw = qx._group_twirl(*group)
    f_full, _ = qx._pgd_minimize(orbit, weights, 1.5, np.eye(6) / 6, iters=40)
    f_red, sigma = qx._pgd_minimize(w0[None], np.ones(1), 1.5, np.eye(6) / 6,
                                    iters=40, twirl=tw)
    assert abs(f_red - f_full) <= 1e-9 * f_full
    for u in us:
        assert np.linalg.norm(u @ sigma @ u.conj().T - sigma) < 1e-10


def test_solver_logs_one_debug_record_per_call(caplog):
    rng = np.random.default_rng(17)
    _, group = weyl_group_n1(2, 2)
    w0 = random_density(4, rng).matrix
    with caplog.at_level("DEBUG", logger="pdckit"):
        qx._minimize_xi(w0, [1.0], 1.5)
        qx._minimize_xi(w0, [1.0], 1.5, group=group)
    records = [r for r in caplog.records if r.name == "pdckit"]
    assert len(records) == 2
    msgs = [r.getMessage() for r in records]
    assert "group_order=1 " in msgs[0] and "group_order=4 " in msgs[1]
    for msg in msgs:
        assert "path=lbfgs" in msg or "path=seed" in msg or "path=pgd" in msg
        assert "lbfgs_iters=" in msg and "seed_value=" in msg


# ---------------------------------------------------------------
# twirling
# ---------------------------------------------------------------

def test_twirl_fixes_bell_diagonal():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        P = random_dist(p, rng)
        bd = qx.bell_diagonal(P)
        assert np.max(np.abs(qx.twirl(bd).matrix - bd.matrix)) < 1e-12


def test_twirl_outputs_bell_diagonal():
    rng = np.random.default_rng(12)
    for p in (2, 3):
        rho = random_density(p * p, rng, dims=[p, p])
        tw = qx.twirl(rho)
        assert abs(np.trace(tw.matrix).real - 1.0) < 1e-12
        # off-diagonal entries in the Bell basis vanish
        basis = np.stack([qx.bell_basis_state(x, z, p).vector
                          for x in range(p) for z in range(p)], axis=1)
        in_bell = basis.conj().T @ tw.matrix @ basis
        off = in_bell - np.diag(np.diag(in_bell))
        assert np.max(np.abs(off)) < 1e-10
        # idempotent
        assert np.max(np.abs(qx.twirl(tw).matrix - tw.matrix)) < 1e-10


# ---------------------------------------------------------------
# model-level matrix identities
# ---------------------------------------------------------------

def test_received_state_bell_diagonality():
    rng = np.random.default_rng(14)
    for p in (2, 3):
        P, Pt = random_dist(p, rng), random_dist(p, rng)
        assert bell_diagonality_residual(P, Pt) < 1e-10


def test_forward_channel_side_swap():
    rng = np.random.default_rng(15)
    for p in (2, 3):
        P, Pt = random_dist(p, rng), random_dist(p, rng)
        assert side_swap_residual(P, Pt) < 1e-10
