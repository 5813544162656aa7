import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from pdckit import qexact as qx
from pdckit.dists import PauliDist, convolve, depolarizing, renyi_entropy
from pdckit.identities import bell_diagonality_residual, side_swap_residual

from oracle_reference import (cond_entropy_up_sandwiched, relative_entropy,
                              sandwiched_divergence, sandwiched_mutual_info_down_cq)


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
        assert np.allclose(qx.weyl(0, 0, p), np.eye(p))
    x = qx.weyl(1, 0, 2)
    assert np.allclose(x, [[0, 1], [1, 0]])


def test_weyl_commutation_relation():
    for p in (2, 3, 5):
        omega = np.exp(2j * np.pi / p)
        for x in range(p):
            for z in range(p):
                for xp in range(p):
                    for zp in range(p):
                        lhs = qx.weyl(x, z, p) @ qx.weyl(xp, zp, p)
                        rhs = (omega ** ((xp * z - x * zp) % p)
                               * qx.weyl(xp, zp, p) @ qx.weyl(x, z, p))
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
    # 64 qubits: an int64 product of the dims wraps to 0 and passed the cap
    with pytest.raises(qx.SizeCapError):
        qx._check_dims([2] * 64)


# ---------------------------------------------------------------
# divergences
# ---------------------------------------------------------------

def test_divergence_zero_on_equal():
    rng = np.random.default_rng(3)
    rho = random_density(3, rng)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        # the package refuses alpha = 1, where Petz is the relative entropy
        petz = relative_entropy(rho, rho) if alpha == 1.0 else qx.petz_divergence(rho, rho, alpha)
        assert abs(petz) < 1e-9
        assert abs(sandwiched_divergence(rho, rho, alpha)) < 1e-9


def test_divergence_commuting_matches_classical():
    rng = np.random.default_rng(4)
    pvec = rng.dirichlet(np.ones(4))
    qvec = rng.dirichlet(np.ones(4))
    rho = np.diag(pvec).astype(complex)
    sig = np.diag(qvec).astype(complex)
    for alpha in (0.5, 1.3, 2.0):
        classical = np.log2(np.sum(pvec**alpha * qvec ** (1 - alpha))) / (alpha - 1)
        assert abs(qx.petz_divergence(rho, sig, alpha) - classical) < 1e-10
        assert abs(sandwiched_divergence(rho, sig, alpha) - classical) < 1e-10


def test_sandwiched_below_petz():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_density(2, rng)
        sig = random_density(2, rng)
        assert (sandwiched_divergence(rho, sig, 1.5)
                <= qx.petz_divergence(rho, sig, 1.5) + 1e-10)


def test_support_violation():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        qx.petz_divergence(rho, sig, 1.5)


def test_t_zero_routes_to_relative_entropy():
    # alpha = 1 itself is refused; the Petz divergence next to it is the
    # relative entropy's continuation
    rng = np.random.default_rng(6)
    rho = random_density(3, rng)
    sig = random_density(3, rng)
    d = relative_entropy(rho, sig)
    with pytest.raises(ValueError, match="alpha = 1"):
        qx.petz_divergence(rho, sig, 1.0)
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
            assert abs(cond_entropy_up_sandwiched(rho, alpha) - np.log2(da)) < 1e-8


def test_cond_entropy_maximally_entangled():
    phi = qx.bell_state(2).density()
    # H(A|B) = -D(rho_AB || I_A x rho_B); the Petz form refuses alpha = 1
    rho_b = qx.partial_trace(phi, [1]).matrix
    assert abs(-relative_entropy(phi, np.kron(np.eye(2), rho_b)) - (-1.0)) < 1e-10
    with pytest.raises(ValueError, match="alpha = 1"):
        qx.cond_entropy_down(phi, 1.0)
    assert abs(cond_entropy_up_sandwiched(phi, 1.0) - (-1.0)) < 1e-10


def test_h_up_at_least_bound_on_grid():
    P = PauliDist([0.7, 0.1, 0.1, 0.1], 2)
    omega = qx.purify(P).density()
    om_ae = qx.partial_trace(omega, [0, 2])
    for t in np.arange(1, 10) / 10.0:
        h_up = cond_entropy_up_sandwiched(om_ae, 1 + t)
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
            h_up = cond_entropy_up_sandwiched(rho, alpha)
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


def test_value_only_evaluation_is_the_gradient_calls_value_bit_for_bit():
    rng = np.random.default_rng(10)
    for trace_first, d in ((None, 4), (2, 3)):
        dim = d if trace_first is None else trace_first * d
        states = np.stack([random_density(dim, rng).matrix for _ in range(3)])
        weights = np.array([0.5, 0.3, 0.2])
        for alpha in (1.1, 1.5, 2.0):
            omega = random_density(d, rng).matrix
            f, _ = qx._xi_value_and_grad(omega, states, weights, alpha, trace_first)
            assert qx._xi_value(omega, states, weights, alpha, trace_first) == f


def test_petz_quantities_over_an_order_array_match_per_order_formulas():
    # one eigendecomposition per call must give each order's value bit for
    # bit as diagonalising afresh per order does; each order is one scalar
    # power, so alpha = 0.5 keeps numpy's square root
    rng = np.random.default_rng(12)
    orders = np.array([0.9, 0.5, 0.1, 1.5, 2.0])
    rho = random_density(6, rng, dims=[2, 3])
    sig = random_density(6, rng).matrix
    states = np.stack([random_density(3, rng).matrix for _ in range(4)])
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    rho_b = np.tensordot(weights, states, axes=(0, 0))

    def petz(a):
        t = a - 1.0
        return float(np.log2(np.trace(qx._herm_power(rho.matrix, a)
                                      @ qx._herm_power(sig, -t)).real) / t)

    def cq(a):
        lam, vecs = np.linalg.eigh(states)
        lam = np.clip(lam, 0.0, None)
        s_pow = (vecs * lam[:, None, :] ** a) @ np.conj(np.swapaxes(vecs, 1, 2))
        total = float(np.einsum("x,xij,ji->", weights, s_pow,
                                qx._herm_power(rho_b, 1.0 - a)).real)
        return float(np.log2(total) / (a - 1.0))

    sigma_ab = np.kron(np.eye(2), qx.partial_trace(rho, [1]).matrix)
    for many, one in ((qx.petz_divergence(rho, sig, orders), petz),
                      (qx.petz_mutual_info_up_cq(weights, states, orders), cq)):
        assert many.shape == orders.shape
        assert many.tolist() == [one(a) for a in orders]
    assert qx.cond_entropy_down(rho, orders).tolist() == \
        [-qx.petz_divergence(rho, sigma_ab, a) for a in orders]
    assert isinstance(qx.petz_divergence(rho, sig, 0.5), float)


def test_petz_quantities_reject_bad_orders():
    rng = np.random.default_rng(13)
    rho = random_density(3, rng)
    for bad in ([0.5, 0.0], [1.0], [np.nan]):
        with pytest.raises(ValueError):
            qx.petz_divergence(rho, rho, np.array(bad))
        with pytest.raises(ValueError):
            qx.petz_mutual_info_up_cq([1.0], [rho], np.array(bad))


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
        got = sandwiched_mutual_info_down_cq(px, states, alpha)
        assert abs(got - sibson_mutual_info(px, W, alpha)) < 1e-9


def test_solver_restricts_to_the_support_of_a_weyl_orbit():
    # a rank-2 state's uniform orbit under W(x, z) x I: rank-deficient
    # states, so the solve runs on their joint support
    rng = np.random.default_rng(16)
    us = [np.kron(qx.weyl(x, z, 2), np.eye(3)) for x in range(2) for z in range(2)]
    a = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    w0 = a @ a.conj().T
    w0 /= np.trace(w0).real
    orbit = np.stack([u @ w0 @ u.conj().T for u in us])
    weights = np.full(len(us), 1.0 / len(us))
    for alpha in (1.1, 1.5, 2.0):
        f, sigma = qx._minimize_xi(orbit, weights, alpha)
        assert abs(np.trace(sigma).real - 1.0) < 1e-12
        assert np.linalg.norm(sigma - sigma.conj().T) < 1e-12
        assert np.linalg.eigvalsh(sigma).min() > -1e-12
        f_check, _ = qx._xi_value_and_grad(sigma, orbit, weights, alpha)
        assert abs(f_check - f) <= 1e-12 * f


def test_solver_logs_one_debug_record_per_call(caplog):
    rng = np.random.default_rng(17)
    w0 = random_density(4, rng).matrix
    with caplog.at_level("DEBUG", logger="pdckit"):
        qx._minimize_xi(w0, [1.0], 1.5)
        qx._minimize_xi(w0, [1.0], 2.0)
    records = [r for r in caplog.records if r.name == "pdckit"]
    assert len(records) == 2
    for record in records:
        fields = dict(item.split("=") for item in record.getMessage().split()[1:])
        assert set(fields) == {"path", "lbfgs_iters", "value", "seed_value"}
        assert fields["path"] in ("lbfgs", "seed")


def test_seed_guard_keeps_the_seed_over_a_nan_point(monkeypatch, caplog):
    # a pure state: the solve runs on its one-dimensional support, whose
    # only density matrix is the seed
    rng = np.random.default_rng(18)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    w0 = np.outer(v, v.conj())

    def nan_point(fun, x0, **kwargs):
        return OptimizeResult(x=np.full_like(x0, np.nan), fun=0.0, nit=0)

    monkeypatch.setattr(qx, "minimize", nan_point)
    with np.errstate(invalid="ignore"), caplog.at_level("DEBUG", logger="pdckit"):
        f, sigma = qx._minimize_xi(w0, [1.0], 1.5)
    [record] = [r for r in caplog.records if r.name == "pdckit"]
    fields = dict(item.split("=") for item in record.getMessage().split()[1:])
    assert fields["path"] == "seed"
    assert fields["value"] == fields["seed_value"] == f"{f:.17g}"
    assert abs(f - 1.0) < 1e-12
    assert np.max(np.abs(sigma - w0)) < 1e-12


# ---------------------------------------------------------------
# twirling
# ---------------------------------------------------------------

def test_twirl_fixes_bell_diagonal():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        P = random_dist(p, rng)
        bd = qx.bell_diagonal(P)
        assert np.max(np.abs(qx.twirl(bd).matrix - bd.matrix)) < 1e-12


@pytest.mark.parametrize("p", [2, 3])
def test_twirl_is_the_weyl_commutant_projection(p):
    # the Bell pinching against the dense average over W x conj(W); twirl
    # takes density matrices, so the projection laws are checked on them
    rng = np.random.default_rng(12 + p)
    us = [np.kron(w, w.conj()) for w in (qx.weyl(x, z, p) for x in range(p) for z in range(p))]

    def tw(m):
        return qx.twirl(qx.DensityMatrix(m, [p, p])).matrix

    a, b = (random_density(p * p, rng).matrix for _ in range(2))
    dense = np.mean([u @ a @ u.conj().T for u in us], axis=0)
    assert np.max(np.abs(tw(a) - dense)) < 1e-14
    assert np.max(np.abs(tw(tw(a)) - tw(a))) < 1e-14  # idempotent
    # self-adjoint in the Hilbert-Schmidt inner product
    assert abs(np.vdot(a, tw(b)) - np.vdot(tw(a), b)) < 1e-14
    assert abs(np.trace(tw(a)) - np.trace(a)) < 1e-14
    eye = np.eye(p * p) / (p * p)
    assert np.max(np.abs(tw(eye) - eye)) < 1e-14  # unital
    for u in us:
        assert np.max(np.abs(u @ tw(a) - tw(a) @ u)) < 1e-14


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
