"""Entropy-identity verification suite for the Weyl-Heisenberg model.

For a preshared-noise distribution P and forward-noise distribution Ptilde,
the noiseless-reduction state is

    omega_ABE = Lambda[Ptilde_{-X,Z}]_B ( |Psi(P)><Psi(P)| ),

with |Psi(P)> the purification of the Bell-diagonal preshared state.  The
suite evaluates, on the exact oracle, the four conditional-entropy
identities of that state (Shannon pair, Petz order 1-t, optimized
sandwiched order 1+t as an inequality) and the two wire-tap
mutual-information reductions with the cq channel states built explicitly:

    I_{1-t}^up(X;BB')   = log2 p - H_{1-t}^down(A|B)
    I~_{1+t}^down(X;AE) = log2 p - H~_{1+t}^up(A|E)

All residuals are in bits.  The sandwiched infima are seeded at the
symmetric candidates, which the identities predict to be optimal; the
solver descending below a seed is exactly what a failed identity would look
like, and the solver's ability to descend is covered by its own tests.

The Petz quantities take the whole grid of orders 1 - t in one call each,
so rho_AB, I x rho_B, the cq mean and the p^2 orbit states are
diagonalised once per call; the omega_E reference value comes from the
solver's value-only evaluator ``qexact._xi_value``.  Every residual is bit
for bit what one Petz call per order and a full value-and-gradient
evaluation give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qexact
from .dists import PauliDist, convolve, renyi_entropy, shannon, shift


@dataclass
class IdentityResiduals:
    """Worst-case absolute residuals (bits) over the supplied t grid."""

    shannon_ab: float
    shannon_ae: float
    petz_down_ab: float
    sandwich_ae_min_slack: float
    lemma_petz_mi: float
    lemma_sandwich_mi: float

    def within(self, tol: float) -> bool:
        return (
            self.shannon_ab < tol
            and self.shannon_ae < tol
            and self.petz_down_ab < tol
            and self.sandwich_ae_min_slack > -tol
            and self.lemma_petz_mi < tol
            and self.lemma_sandwich_mi < tol
        )


def omega_state(P: PauliDist, P_tilde: PauliDist) -> qexact.DensityMatrix:
    """The noiseless-reduction tripartite state on A x B x E."""
    if P.p != P_tilde.p:
        raise ValueError("modulus mismatch")
    p = P.p
    flipped = PauliDist(np.stack([P_tilde.probs[(-x) % p] for x in range(p)]), p)
    psi = qexact.purify(P).density()
    return qexact.pauli_channel(psi, flipped, 1)


def _weyl_orbit_states(base: np.ndarray, p: int, extra_dim: int) -> list[np.ndarray]:
    """W(x,z)_A rho W(x,z)_A^dag for all p^2 Weyl labels, in label order."""
    out = []
    for x in range(p):
        for z in range(p):
            u = np.kron(qexact.weyl(x, z, p), np.eye(extra_dim))
            out.append(u @ base @ u.conj().T)
    return out


def _t_grid(ts) -> np.ndarray:
    """The t grid as a float array: non-empty, one-dimensional, every t in (0, 1)."""
    grid = np.asarray(ts, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all((grid > 0.0) & (grid < 1.0)):
        raise ValueError(f"t grid must be a non-empty list of t in (0, 1), "
                         f"got {grid.tolist()}")
    return grid


def check_identities(P: PauliDist, P_tilde: PauliDist,
                     ts: np.ndarray | None = None) -> IdentityResiduals:
    """Evaluate the full identity suite for one noise pair.

    ``ts`` defaults to 0.1, 0.2, ..., 0.9; an empty grid, or one with a t
    outside (0, 1) (NaN included), raises ValueError.
    """
    p = P.p
    ts = np.arange(1, 10) / 10.0 if ts is None else _t_grid(ts)
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
    h_downs = qexact.cond_entropy_down(om_ab, 1.0 - ts)
    mi_petzs = qexact.petz_mutual_info_up_cq(weights, wb_states, 1.0 - ts)

    r_petz_down = 0.0
    r_petz_mi = 0.0
    slack_min = np.inf
    r_sand_mi = 0.0
    sigma_e = om_e.matrix
    for t, h_down, mi_petz in zip(ts, h_downs, mi_petzs):
        closed = renyi_entropy(q_eff.flat(), 1.0 - t) - log_p
        r_petz_down = max(r_petz_down, abs(h_down - closed))
        r_petz_mi = max(r_petz_mi, abs(mi_petz - (log_p - h_down)))

        f_up, sigma_e = qexact._minimize_xi(
            [om_ae.matrix], [1.0], 1.0 + t, sigma0=sigma_e, trace_first=p)
        # omega_E attains the unoptimized value exactly; never report below it
        f_ref = qexact._xi_value(om_e.matrix, om_ae.matrix[None, :, :], np.ones(1),
                                 1.0 + t, trace_first=p)
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


def random_pauli_dist(p: int, rng: np.random.Generator) -> PauliDist:
    """A strictly positive random distribution (keeps divergences finite).

    A Dirichlet draw plus 1e-3 per entry, renormalised.
    """
    raw = rng.dirichlet(np.ones(p * p)) + 1e-3
    return PauliDist(raw / raw.sum(), p)


def bell_diagonality_residual(P: PauliDist, P_tilde: PauliDist) -> float:
    """Worst deviation of Bob's received state from the predicted Bell form.

    Encodes each Weyl label through both Pauli channel legs on |Phi><Phi| and
    compares against the index-shifted convolution rho[F_{x,z}[Ptilde * P]].
    """
    p = P.p
    phi = qexact.bell_state(p).density()
    after_p = qexact.pauli_channel(phi, P, 0)
    q_eff = convolve(P_tilde, P)
    worst = 0.0
    for x in range(p):
        for z in range(p):
            u = np.kron(qexact.weyl(x, z, p), np.eye(p))
            encoded = qexact.DensityMatrix(u @ after_p.matrix @ u.conj().T, [p, p])
            received = qexact.pauli_channel(encoded, P_tilde, 0)
            predicted = qexact.bell_diagonal(shift(q_eff, x, z))
            worst = max(worst, float(np.max(np.abs(received.matrix - predicted.matrix))))
    return worst


def side_swap_residual(P: PauliDist, P_tilde: PauliDist) -> float:
    """|| Lambda[Pt]_A Lambda[P]_A (Phi) - Lambda[Pt_{-X,Z}]_B Lambda[P]_A (Phi) ||_max."""
    p = P.p
    phi = qexact.bell_state(p).density()
    after_p = qexact.pauli_channel(phi, P, 0)
    lhs = qexact.pauli_channel(after_p, P_tilde, 0)
    flipped = PauliDist(np.stack([P_tilde.probs[(-x) % p] for x in range(p)]), p)
    rhs = qexact.pauli_channel(after_p, flipped, 1)
    return float(np.max(np.abs(lhs.matrix - rhs.matrix)))
