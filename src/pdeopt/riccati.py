"""Differential Riccati validation layer for the linearized models.

The matrix Riccati equation (backward, terminal value zero)

    dPi/dt = -Pi A - A* Pi - Q + Pi B R^{-1} B* Pi,   Pi(tau) = 0,

is integrated with an implicit trapezoid rule in the orthonormal eigenbasis of
the (symmetric) discrete A, where the stiff Lyapunov part becomes an
elementwise solve; the rank-one quadratic term is handled by a short fixed
point.  Every step is re-symmetrized, and positive semidefiniteness is
checked (the eigenvalues are basis-invariant, so the check runs modally).

Adjoint pairing uses the uniform quadrature weight w of the grid, so with
scalar input the matrix form of B R^{-1} B* is (w/rho) b b^T, and the feedback
law reads u(t) = -(w/rho) b^T Pi(t) x(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.linalg import eigh, eigvalsh

from .adjoint import CostWeights
from .exceptions import PdeoptError
from .forward import TimeGrid, Trajectory, cn_ab2_sweep, trapezoid_weights
from .grids import LinearOperator, h1_inner, h1_norm, inner_product
from .models import ActuatorDesign, ModelSpec
from .optimize import AdmissibleSets, OptimizerConfig, minimize_joint


class PiSequence:
    """Lazy list-like view of the nodal matrices Pi(t_k).

    Materializing all of them eagerly costs (nt+1) * n^2 doubles; entries are
    reconstructed from the modal storage on access and cached shallowly.
    """

    def __init__(self, basis: np.ndarray, modal: list[np.ndarray]):
        self._v = basis
        self._modal = modal
        self._cache: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._modal)

    def __getitem__(self, k: int) -> np.ndarray:
        if k < 0:
            k += len(self)
        if k not in self._cache:
            if len(self._cache) > 4:
                self._cache.clear()
            self._cache[k] = self._v @ self._modal[k] @ self._v.T
        return self._cache[k]


@dataclass(frozen=True)
class RiccatiSolution:
    """Pi(t_k) on the discrete state space, stored in the eigenbasis of A."""

    time_grid: TimeGrid
    basis: np.ndarray = field(repr=False)
    modal: list = field(repr=False)
    b_vec: np.ndarray = field(repr=False)
    weights: CostWeights
    state_weight: float

    @property
    def Pi(self) -> PiSequence:
        return PiSequence(self.basis, self.modal)

    def apply(self, k: int, x: np.ndarray) -> np.ndarray:
        """Pi(t_k) x without materializing the nodal matrix."""
        return self.basis @ (self.modal[k] @ (self.basis.T @ x))

    def gain(self, k: int) -> np.ndarray:
        """Feedback gain row g_k with u = -<g_k, x>: (w/rho) Pi(t_k) b."""
        return (self.state_weight / self.weights.r_scale) * self.apply(k, self.b_vec)

    def pi0_to_csv(self, path) -> None:
        np.savetxt(path, self.Pi[0], fmt="%.16e", delimiter=",", comments="")


def _integrate_modal(lam: np.ndarray, b_modal: np.ndarray, q: float, s_scale: float,
                     nt: int, dt: float, check_every: int) -> list[np.ndarray]:
    """Backward trapezoid sweep in the eigenbasis; returns Pi-tilde at all t_k.

    Raises PdeoptError on a near-singular implicit factor or a PSD violation
    beyond tolerance (caller retries with a finer step).
    """
    n = lam.size
    c = 0.5 * dt
    shift = c * (lam[:, None] + lam[None, :])
    denom, explicit = 1.0 - shift, 1.0 + shift
    if np.min(np.abs(denom)) < 1e-10 * max(1.0, c * float(np.max(np.abs(lam)))):
        raise PdeoptError("implicit Riccati factor nearly singular at this step size")

    def quad(x: np.ndarray) -> np.ndarray:
        """c times the quadratic term Pi B R^-1 B* Pi, in modal form."""
        xb = x @ b_modal
        return np.outer((c * s_scale) * xb, xb)

    modal = [np.zeros((n, n))]  # at t = tau
    x = modal[0]
    for m in range(nt):
        # explicit half plus both halves of the source: x E - c quad(x) + 2 c q I
        lagged = quad(x)
        base = x * explicit
        base -= lagged
        base.flat[::n + 1] += 2.0 * c * q
        x_new = (base - lagged) / denom  # predictor: lag the quadratic term
        for _ in range(20):
            x_next = (base - quad(x_new)) / denom
            if np.linalg.norm(x_next - x_new) <= 1e-13 * max(1.0, np.linalg.norm(x_next)):
                x_new = x_next
                break
            x_new = x_next
        x_new = 0.5 * (x_new + x_new.T)
        if (m + 1) % check_every == 0 or m == nt - 1:
            evs = eigvalsh(x_new)
            scale = max(abs(evs[0]), abs(evs[-1]), 1e-300)
            if evs[0] < -1e-8 * scale:
                raise PdeoptError(f"Pi lost positive semidefiniteness (min eig {evs[0]:.2e})")
        modal.append(x_new)
        x = x_new
    modal.reverse()  # index by time k: modal[k] ~ Pi(t_k), modal[nt] = 0
    return modal


def solve_differential_riccati(a_op: LinearOperator, b_vec: np.ndarray,
                               weights: CostWeights, tg: TimeGrid,
                               state_weight: float = 1.0,
                               check_every: int = 1) -> RiccatiSolution:
    """Backward implicit-trapezoid solve of the differential Riccati equation.

    ``state_weight`` is the uniform quadrature weight of the grid carrying
    b_vec (1.0 for a plain ODE system).  On PSD failure or a singular
    implicit factor the sweep retries at dt/2 and dt/4 (keeping the requested
    output sampling) before aborting.
    """
    basis = a_op.basis  # raises ValueError for a non-symmetric operator
    lam, v = basis.values.ravel(), reduce(np.kron, basis.vectors)
    b_modal = v.T @ b_vec
    s_scale = state_weight / weights.r_scale

    last_err: PdeoptError | None = None
    for refine in (1, 2, 4):
        try:
            modal_fine = _integrate_modal(lam, b_modal, weights.q_scale, s_scale,
                                          tg.nt * refine, tg.dt / refine,
                                          check_every=check_every)
        except PdeoptError as err:
            last_err = err
            continue
        modal = modal_fine[::refine]
        return RiccatiSolution(time_grid=tg, basis=v, modal=modal, b_vec=b_vec,
                               weights=weights, state_weight=state_weight)
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
        controls[k] = -float(np.dot(ric.gain(k), x))
        return b * controls[k]

    states = cn_ab2_sweep(model.linear_op, tg, x0, term=feedback)
    controls[tg.nt] = -float(np.dot(ric.gain(tg.nt), states[tg.nt]))
    return Trajectory(time_grid=tg, states=states), controls


@dataclass(frozen=True)
class FeedbackCheck:
    """Outcome of the optimizer-vs-Riccati cross validation."""

    discrepancy: float
    inconclusive: bool
    parts: dict


def verify_feedback_consistency(model: ModelSpec, ric: RiccatiSolution,
                                sets: AdmissibleSets, weights: CostWeights,
                                x0: np.ndarray, tg: TimeGrid,
                                design: ActuatorDesign,
                                config: OptimizerConfig | None = None) -> FeedbackCheck:
    """Optimize the input on the linear model (design fixed) and compare the
    result with the Riccati feedback simulation.

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
    cfg = config if config is not None else OptimizerConfig(tol=1e-7, max_iters=5000)

    u_opt, _, report = minimize_joint(model, sets, weights, x0, tg, cfg,
                                      optimize_design=False, initial_design=design)
    traj_opt, p_opt = report.traj, report.p
    theta = trapezoid_weights(tg.nt)
    u_norm_check = float(np.sqrt(tg.dt * np.sum(theta * u_opt.values**2)))
    if u_norm_check >= sets.r1 * (1 - 1e-8):
        return FeedbackCheck(discrepancy=np.inf, inconclusive=True,
                             parts={"reason": "input constraint active at optimum"})

    traj_ric, _ = closed_loop_simulate(model, ric, x0, tg)

    # state comparison at node times
    norms_ric = np.array([np.sqrt(inner_product(x, x, grid)) for x in traj_ric.states])
    denom_state = max(np.max(norms_ric), 1e-300)
    e_state = max(
        np.sqrt(inner_product(d, d, grid))
        for d in (traj_opt.states - traj_ric.states)
    ) / denom_state

    # p = Pi x along the optimizer's own trajectory (x at the half-lagged sample)
    x_lag = traj_opt.states.copy()
    x_lag[1:] = 0.5 * (traj_opt.states[:-1] + traj_opt.states[1:])
    pix = np.stack([ric.apply(k, x_lag[k]) for k in range(tg.nt + 1)])
    denom_p = max(np.max([np.sqrt(inner_product(v, v, grid)) for v in pix]), 1e-300)
    e_adj = max(
        np.sqrt(inner_product(d, d, grid)) for d in (p_opt.states[1:] - pix[1:])
    ) / denom_p

    # control comparison: midpoint gain on the node state
    u_ric_cmp = np.empty(tg.nt)
    for j in range(tg.nt):
        g_mid = 0.5 * (ric.gain(j) + ric.gain(j + 1))
        u_ric_cmp[j] = -float(np.dot(g_mid, traj_ric.states[j]))
    du = u_opt.values[:tg.nt] - u_ric_cmp
    denom_u = max(np.sqrt(tg.dt * np.sum(u_ric_cmp**2)), 1e-300)
    e_ctrl = np.sqrt(tg.dt * np.sum(du**2)) / denom_u

    parts = {"state": float(e_state), "adjoint": float(e_adj), "control": float(e_ctrl),
             "optimizer_converged": report.converged, "u_norm": float(u_norm_check)}
    return FeedbackCheck(discrepancy=float(max(e_state, e_adj, e_ctrl)),
                         inconclusive=False, parts=parts)


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
    pi0 = ric.Pi[0]
    vals, vecs = eigh(pi0, grid.h1.toarray())
    extremal = vecs[:, -1]
    denom = h1_norm(x0_star, grid) * h1_norm(extremal, grid)
    cosine = abs(h1_inner(x0_star, extremal, grid)) / max(denom, 1e-300)
    rayleigh = inner_product(x0_star, pi0 @ x0_star, grid) / \
        max(h1_inner(x0_star, x0_star, grid), 1e-300)
    return float(cosine), float(rayleigh)
