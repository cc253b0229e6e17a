"""Differential Riccati validation layer for the linearized models.

The matrix Riccati equation (backward, terminal value zero)

    dPi/dt = -Pi A - A* Pi - Q + Pi B R^{-1} B* Pi,   Pi(tau) = 0,

is integrated with an implicit trapezoid rule in the orthonormal eigenbasis of
the (symmetric) discrete A, where the stiff Lyapunov part becomes an
elementwise solve.  The rank-one quadratic term depends on Pi only through
the n-vector Pi b, so the implicit step is a short fixed point on that vector
(one matrix-vector product per iteration), and the sweep carries one n x n
matrix from which Pi follows by a rank-one correction; Pi itself is formed
only where it is tested or returned.  Every term of the step is exactly
symmetric, so no re-symmetrization is needed.  Positive semidefiniteness is
checked every few steps by a shifted Cholesky factorization (definiteness is
basis-invariant, so the check runs modally).

Adjoint pairing uses the uniform quadrature weight w of the grid, so with
scalar input the matrix form of B R^{-1} B* is (w/rho) b b^T, and the feedback
law reads u(t) = -(w/rho) b^T Pi(t) x(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import CostWeights
from .exceptions import PdeoptError
from .forward import TimeGrid, Trajectory, cn_ab2_sweep
from .grids import LinearOperator, h1_inner, h1_norm, inner_product
from .models import ActuatorDesign, ModelSpec
from .optimize import AdmissibleSets, OptimizerConfig, minimize_joint


@dataclass(frozen=True)
class RiccatiSolution:
    """What the sweep keeps of Pi(t_k): Pi(0), the feedback gains, and
    optionally Pi(t_k) x_k along a given trajectory.

    ``modal`` lists the n x n matrices kept, in the eigenbasis ``basis`` of
    A: only Pi-tilde(0).  ``gains[k]`` is g_k = (w/rho) Pi(t_k) b, so the
    feedback law reads u_k = -<g_k, x_k>.  ``along[k]`` is Pi(t_k) X[k] for
    the trajectory X passed as ``along=`` (None without one).
    """

    basis: np.ndarray = field(repr=False)
    modal: list = field(repr=False)
    b_vec: np.ndarray = field(repr=False)
    gains: np.ndarray = field(repr=False)
    along: np.ndarray | None = field(default=None, repr=False)

    @property
    def pi0(self) -> np.ndarray:
        """The nodal matrix Pi(0)."""
        return self.basis @ self.modal[0] @ self.basis.T

    def pi0_to_csv(self, path) -> None:
        np.savetxt(path, self.pi0, fmt="%.16e", delimiter=",", comments="")


def _integrate_modal(lam: np.ndarray, b_modal: np.ndarray, q: float, s_scale: float,
                     nt: int, refine: int, dt: float, check_every: int,
                     along_modal: np.ndarray | None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward trapezoid sweep in the eigenbasis over nt * refine steps of dt.

    With c = dt/2, s = s_scale, W = 1 / (1 - c(lam_i + lam_j)) and
    R = (1 + c(lam_i + lam_j)) W elementwise, one step from Pi_k (modal, with
    y = Pi_k b) reads

        Pi_{k+1} = M_k - c s (z z^T) o W,   M_k = R o Pi_k + 2cq diag(W) - c s (y y^T) o W,

    where z = Pi_{k+1} b is the fixed point of z = M_k b - c s z o (W (z o b)),
    iterated from the lagged z = y.  Each iteration is one matrix-vector
    product.  The Pi_{k+1} formed from two successive iterates z_{j-1}, z_j
    differ by c s (z_j z_j^T - z_{j-1} z_{j-1}^T) o W, whose Frobenius norm
    is at most c s max|W| sqrt(2 (|u|^2 |v|^2 + (u.v)^2)) / 2 with
    u = z_j - z_{j-1}, v = z_j + z_{j-1}.  The iteration stops once this
    bound is at most 1e-13 max(1, |Pi_{k+1} b| / |b|); as
    |Pi_{k+1} b| / |b| <= ||Pi_{k+1}||_F, it never stops before the rule
    ||dPi_{k+1}||_F <= 1e-13 max(1, ||Pi_{k+1}||_F) on the matrix iterates.

    The sweep carries M alone.  M_{k+1} needs y = Pi_{k+1} b, for which the
    last iterate z stands in (the stopping rule bounds the difference), so
    the two rank-one terms merge and, as R + 1 = 2W,

        M_{k+1} = R o M_k - 2 c s (z z^T) o W^2 + 2cq diag(W),

    four passes over n x n arrays per step.  The matrix-vector products
    with c s W are (c s / 2)(R v + sum(v)), so no third n x n weight is
    kept.  Pi_{k+1} itself is formed only where the PSD test runs (every
    ``check_every`` steps) and at the last step; the rows Pi_{k+1} a are
    M_k a - z o (c s W (z o a)).  Every term is exactly symmetric, so M and
    Pi are too.

    Pi_{k+1} is PSD up to the tolerance if the Cholesky factorization of
    Pi_{k+1} + delta I succeeds, delta = 1e-8 max_i (Pi_{k+1})_ii: it
    succeeds only if lambda_min > -delta >= -1e-8 lambda_max (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 10.1).

    Returns Pi-tilde(0) and, at the nt + 1 coarse times t_k (every
    ``refine``-th step), the rows Pi-tilde(t_k) b_modal and
    Pi-tilde(t_k) along_modal[k].  Raises PdeoptError on a near-singular
    implicit factor, a fixed point that does not converge in 20 iterations,
    a non-finite iterate, or a PSD violation beyond tolerance (caller retries
    with a finer step).
    """
    n, steps = lam.size, nt * refine
    c = 0.5 * dt
    shift = c * np.add.outer(lam, lam)
    ratio = 1.0 + shift
    weight = np.subtract(1.0, shift, out=shift)
    if np.min(np.abs(weight)) < 1e-10 * max(1.0, c * float(np.max(np.abs(lam)))):
        raise PdeoptError("implicit Riccati factor nearly singular at this step size")
    np.divide(1.0, weight, out=weight)
    ratio *= weight
    source = (2.0 * c * q) * np.diagonal(weight)
    half_cs = 0.5 * c * s_scale
    weight_max = 2.0 * half_cs * float(np.max(np.abs(weight)))  # max |c s W|
    quad = np.multiply(weight, weight, out=weight)
    quad *= 4.0 * half_cs  # 2 c s W^2, the weight of the merged rank-one term
    b_norm = max(float(np.linalg.norm(b_modal)), 1e-300)

    def csw_apply(v):  # (c s W) v
        return half_cs * (np.dot(ratio, v) + v.sum())

    pib = np.zeros((nt + 1, n))  # Pi(tau) = 0 leaves row nt zero
    pix = None if along_modal is None else np.zeros((nt + 1, n))
    m_part, x = np.zeros((n, n)), np.empty((n, n))
    m_diag = m_part.reshape(-1)[::n + 1]  # a view of the diagonal
    m_diag += source
    y = np.zeros(n)
    # the loop tests its iterates for non-finite values, so an overflow
    # inside it is reported there, once, rather than as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            beta = m_part @ b_modal
            z_prev, z = y, beta - y * csw_apply(y * b_modal)
            for _ in range(20):
                z_next = beta - z * csw_apply(z * b_modal)  # Pi_{k+1} b for this z
                u, v = z - z_prev, z + z_prev
                uv = float(u @ v)
                change = weight_max * math.sqrt(0.5 * (float(u @ u) * float(v @ v) + uv * uv))
                z_norm = math.sqrt(float(z_next @ z_next))
                if not math.isfinite(change + z_norm):
                    raise PdeoptError("Riccati iterate is not finite")
                if change <= 1e-13 * max(1.0, z_norm / b_norm):
                    break
                z_prev, z = z, z_next
            else:
                raise PdeoptError("Riccati fixed point did not converge in 20 iterations")
            y = z_next
            k, rest = divmod(steps - m - 1, refine)
            if rest == 0:
                pib[k] = y
                if pix is not None:
                    pix[k] = m_part @ along_modal[k] - z * csw_apply(z * along_modal[k])
            if (m + 1) % check_every == 0 or m == steps - 1:
                np.einsum("i,j->ij", z, z, out=x)
                x *= ratio + 1.0
                x *= half_cs
                np.subtract(m_part, x, out=x)  # Pi_{k+1}
                _check_psd(x)
            if m < steps - 1:
                m_part *= ratio
                np.einsum("i,j->ij", z, z, out=x)
                x *= quad
                m_part -= x
                m_diag += source
    return x, pib, pix


def _check_psd(pi: np.ndarray) -> None:
    """Raise PdeoptError unless pi is finite and PSD up to the sweep's
    tolerance (see ``_integrate_modal``); pi is left as it was."""
    if not np.all(np.isfinite(pi)):
        raise PdeoptError("Riccati iterate is not finite")
    pi_diag = pi.reshape(-1)[::pi.shape[0] + 1]  # a view of the diagonal
    saved = pi_diag.copy()
    pi_diag += max(1e-8 * float(saved.max()), 1e-300)
    try:
        np.linalg.cholesky(pi)
    except np.linalg.LinAlgError:
        pi_diag[:] = saved
        evs = np.linalg.eigvalsh(pi)
        raise PdeoptError(f"Pi lost positive semidefiniteness (min eig {evs[0]:.2e})") from None
    pi_diag[:] = saved


def solve_differential_riccati(a_op: LinearOperator, b_vec: np.ndarray,
                               weights: CostWeights, tg: TimeGrid,
                               state_weight: float = 1.0,
                               check_every: int = 1,
                               along: np.ndarray | None = None) -> RiccatiSolution:
    """Backward implicit-trapezoid solve of the differential Riccati equation.

    ``state_weight`` is the uniform quadrature weight of the grid carrying
    b_vec (1.0 for a plain ODE system).  ``along`` is an optional
    (nt+1) x n trajectory X; the solution then carries Pi(t_k) X[k].  Only
    Pi(0) and n-vectors per step are kept, so memory is O(n^2 + nt n).  On
    PSD failure or a singular implicit factor the sweep retries at dt/2 and
    dt/4 (keeping the requested output sampling) before aborting.
    """
    basis = a_op.basis
    lam, n = basis.values.ravel(), b_vec.size
    b_modal = basis.to_modal(b_vec).reshape(n)
    s_scale = state_weight / weights.r_scale
    along_modal = None if along is None else basis.to_modal(along).reshape(along.shape)

    last_err: PdeoptError | None = None
    for refine in (1, 2, 4):
        try:
            pi0, pib, pix = _integrate_modal(lam, b_modal, weights.q_scale, s_scale,
                                             tg.nt, refine, tg.dt / refine,
                                             check_every, along_modal)
        except PdeoptError as err:
            last_err = err
            continue

        def nodal(rows):
            return basis.from_modal(rows.reshape((-1,) + basis.values.shape)).reshape(rows.shape)

        # the dense V is formed only now, so the sweep runs without it
        return RiccatiSolution(basis=basis.matrix, modal=[pi0], b_vec=b_vec,
                               gains=s_scale * nodal(pib),
                               along=None if pix is None else nodal(pix))
    raise PdeoptError(f"Riccati sweep failed after dt refinements: {last_err}")


def closed_loop_simulate(model: ModelSpec, ric: RiccatiSolution, x0: np.ndarray,
                         tg: TimeGrid) -> tuple[Trajectory, np.ndarray]:
    """Integrate the linear dynamics under the Riccati feedback law.

    Uses the same CN-AB2 stepper as the open-loop solver, with the input
    computed from the current state: u_k = -<gain_k, x_k>.
    """
    if not model.is_linear:
        raise ValueError("feedback simulation is defined for the linearized model")
    b = ric.b_vec
    controls = np.zeros(tg.nt + 1)

    def feedback(k: int, x: np.ndarray) -> np.ndarray:
        controls[k] = -float(np.dot(ric.gains[k], x))
        return b * controls[k]

    states = cn_ab2_sweep(model.linear_op, tg, x0, term=feedback)
    controls[tg.nt] = -float(np.dot(ric.gains[tg.nt], states[tg.nt]))
    return Trajectory(time_grid=tg, states=states), controls


@dataclass(frozen=True)
class FeedbackCheck:
    """Outcome of the optimizer-vs-Riccati cross validation, with the
    Riccati solution it was checked against."""

    discrepancy: float
    inconclusive: bool
    parts: dict
    riccati: RiccatiSolution = field(repr=False)


def verify_feedback_consistency(model: ModelSpec, sets: AdmissibleSets,
                                weights: CostWeights, x0: np.ndarray, tg: TimeGrid,
                                design: ActuatorDesign,
                                check_every: int = 1) -> FeedbackCheck:
    """Optimize the input on the linear model (design fixed), solve the
    Riccati equation on ``tg`` (PSD check every ``check_every`` steps), and
    compare the optimum with the Riccati feedback simulation.

    The input-only solve always runs to tol 1e-7 (at most 5000 iterations):
    a looser stopping rule can stop at u = 0, and the comparison would then
    measure that rule instead of the optimum.

    Returns the worst of three relative discrepancies: trajectory (max over
    t), adjoint identity p = Pi x (max over t), and control in L2(0,tau).
    The comparison aligns the two time conventions: the CN-AB2 stepper with a
    trapezoid cost pairs the input u_j with the adjoint extrapolated to the
    half-step and applies the cost source with a half-step lag, so p_k is
    compared against Pi(t_k) (x_{k-1}+x_k)/2 and the feedback control against
    the midpoint gain acting on the node state.  The check is flagged
    inconclusive if the input-ball constraint is active at the optimum (the
    feedback law only matches interior optima).
    """
    if not model.is_linear:
        raise ValueError("verify_feedback_consistency requires the linearized model")
    grid = model.grid
    cfg = OptimizerConfig(tol=1e-7, max_iters=5000)

    u_opt, _, report = minimize_joint(model, sets, weights, x0, tg, cfg,
                                      optimize_design=False, initial_design=design)
    traj_opt, p_opt = report.traj, report.p
    # p = Pi x along the optimizer's own trajectory (x at the half-lagged sample)
    x_lag = traj_opt.states.copy()
    x_lag[1:] = 0.5 * (traj_opt.states[:-1] + traj_opt.states[1:])
    ric = solve_differential_riccati(model.linear_op,
                                     model.actuator_family.evaluate(design, grid),
                                     weights, tg, state_weight=grid.weight,
                                     check_every=check_every, along=x_lag)
    u_norm_check = tg.norm(u_opt.values)
    if u_norm_check >= sets.r1 * (1 - 1e-8):
        return FeedbackCheck(discrepancy=np.inf, inconclusive=True,
                             parts={"reason": "input constraint active at optimum"},
                             riccati=ric)

    traj_ric, _ = closed_loop_simulate(model, ric, x0, tg)

    def sup_norm(rows):  # max over t of the row's L2 norm
        return max(np.sqrt(inner_product(v, v, grid)) for v in rows)

    # state comparison at node times
    e_state = sup_norm(traj_opt.states - traj_ric.states) \
        / max(sup_norm(traj_ric.states), 1e-300)
    pix = ric.along
    e_adj = sup_norm(p_opt.states[1:] - pix[1:]) / max(sup_norm(pix), 1e-300)

    # control comparison: midpoint gain on the node state
    g_mid = 0.5 * (ric.gains[:-1] + ric.gains[1:])
    u_ric_cmp = -np.einsum("kn,kn->k", g_mid, traj_ric.states[:-1])
    du = u_opt.values[:tg.nt] - u_ric_cmp
    denom_u = max(np.sqrt(tg.dt * np.sum(u_ric_cmp**2)), 1e-300)
    e_ctrl = np.sqrt(tg.dt * np.sum(du**2)) / denom_u

    parts = {"state": float(e_state), "adjoint": float(e_adj), "control": float(e_ctrl),
             "optimizer_converged": report.converged, "u_norm": float(u_norm_check)}
    return FeedbackCheck(discrepancy=float(max(e_state, e_adj, e_ctrl)),
                         inconclusive=False, parts=parts, riccati=ric)


def worst_ic_eigen_check(ric: RiccatiSolution, x0_star: np.ndarray, grid
                         ) -> tuple[float, float]:
    """Alignment of x0_star with the extremal eigenvector of the H1-whitened
    Pi(0), plus the signed generalized Rayleigh quotient as the multiplier
    estimate.

    The eigenproblem Pi(0) v = theta K v (K the discrete H1 operator) is the
    worst-IC stationarity condition in the H1 geometry; a literal eigenvalue
    equation Pi(0) x0 = -mu x0 with mu >= 0 would force Pi(0) x0 = 0 for a
    PSD Pi(0), so eigen-alignment plus the signed quotient is what is tested.
    """
    # whiten with K = V_K diag(k) V_K^T: W = V_K diag(k^-1/2) has W^T K W = I, so
    # Pi(0) v = theta K v becomes (W^T Pi(0) W) y = theta y, and with
    # Pi(0) = V Pi-tilde(0) V^T that matrix is T^T Pi-tilde(0) T, T = V^T W
    k_basis = grid.h1.basis
    k_isqrt = 1.0 / np.sqrt(k_basis.values.ravel())
    t = k_basis.to_modal(ric.basis.T).reshape(grid.size, grid.size)  # V^T V_K
    t *= k_isqrt
    pi0_modal = ric.modal[0]
    _, y = np.linalg.eigh(t.T @ (pi0_modal @ t))
    extremal = k_basis.from_modal((k_isqrt * y[:, -1]).reshape(k_basis.values.shape))
    denom = h1_norm(x0_star, grid) * h1_norm(extremal, grid)
    cosine = abs(h1_inner(x0_star, extremal, grid)) / max(denom, 1e-300)
    xi = ric.basis.T @ x0_star  # <x0, Pi(0) x0> = <xi, Pi-tilde(0) xi>
    rayleigh = inner_product(xi, pi0_modal @ xi, grid) / \
        max(h1_inner(x0_star, x0_star, grid), 1e-300)
    return float(cosine), float(rayleigh)
