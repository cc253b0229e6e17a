"""Backward adjoint sweep and exact discrete gradients of the quadratic cost.

The adjoint stepper is the algebraic transpose of the linearized forward
stepper (discretize-then-optimize), so the assembled gradients differentiate
the discrete cost exactly and central finite differences must agree to
truncation + roundoff.  The continuous adjoint PDE is recovered as dt -> 0 and
only serves as a consistency oracle in the tests.

Conventions.  With cost J = int q<x,x> + rho u^2 dt (trapezoid in time), the
reported adjoint p solves the final-value problem with source Q x (the
textbook normalization, under which p = Pi x holds on linear models with the
Riccati solution of riccati.py), while the true costate of J is 2p.  The
GradientBundle therefore carries the honest derivatives of J:

    grad_u = 2 (rho u + B* p),   grad_r = 2 int (B'_r u)* p dt,
    grad_x0 = Riesz_{H1}(2 p(0)),

and the optimality residuals of optimize.py use the unscaled quantities
rho u + B* p and int (B'_r u)* p dt, whose zero sets are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import ControlSignal, TimeGrid, Trajectory, cn_ab2_sweep, \
    cn_ab2_transpose_sweep, solve_forward
from .grids import h1_riesz_map, inner_product
from .models import ActuatorDesign, ModelSpec, actuator_design_derivative_adjoint


@dataclass(frozen=True)
class CostWeights:
    """Q = q_scale * I on the state, R = r_scale * I on the input."""

    q_scale: float = 1.0
    r_scale: float = 1.0

    def __post_init__(self):
        if self.q_scale < 0:
            raise ValueError("q_scale must be nonnegative")
        if self.r_scale <= 0:
            raise ValueError("r_scale must be positive (R coercive)")


def evaluate_cost(traj: Trajectory, u: ControlSignal, weights: CostWeights, grid) -> float:
    """Trapezoid-in-time of q <x, x> + rho u^2."""
    tg = traj.time_grid
    if u.time_grid != tg:
        raise ValueError("control and trajectory time grids disagree")
    states = traj.states
    if states.shape[1:] != (grid.size,):
        raise ValueError(f"states of shape {states.shape[1:]} do not match "
                         f"grid of size {grid.size}")
    theta = tg.weights
    state_term = grid.weight * np.einsum("ki,ki->k", states, states)
    total = weights.q_scale * float(np.sum(theta * state_term)) \
        + weights.r_scale * float(np.sum(theta * u.values**2))
    return tg.dt * total


def adjoint_sweep(model: ModelSpec, traj: Trajectory, tg: TimeGrid,
                  source: np.ndarray) -> np.ndarray:
    """Exact transpose of the linearized CN-AB2 stepper, driven by ``source``.

    Solves backward, with M = I - (dt/2) A, P = I + (dt/2) A and
    G_j = F'_{x_j}:

        M^T lam_nt = dt * source_nt,
        M^T lam_j  = P^T lam_{j+1}
                     + dt G_j^T (3/2 lam_{j+1} - 1/2 lam_{j+2})
                     + dt * source_j,                    j = nt-1 .. 1,
        lam_0      = P^T lam_1 + dt G_0^T (lam_1 - 1/2 lam_2) + dt * source_0.

    lam_0 is the gradient row: <lam_0, d>_L2 is the exact derivative of the
    space-time pairing sum_k dt <x_k, source_k> along an initial perturbation.
    """
    if traj.time_grid != tg:
        raise ValueError("trajectory and requested time grids disagree")
    jac_t, x = model.jacobian_adjoint_apply, traj.states
    term_t = None if jac_t is None else lambda j, v: jac_t(x[j], v)
    return cn_ab2_transpose_sweep(model.linear_op, tg, source, term_t)


def linearized_forward(model: ModelSpec, traj: Trajectory, tg: TimeGrid,
                       forcing: np.ndarray) -> np.ndarray:
    """Linearized stepper around ``traj`` driven by per-step forcing g_k.

    Returns h with h_0 = 0 and

        M h_{k+1} = P h_k + dt (3/2 G_k h_k - 1/2 G_{k-1} h_{k-1}) + dt g_k,

    (first step: plain G_0 h_0 term).  Together with ``adjoint_sweep`` this
    realizes the discrete duality sum_k dt <h_k, phi_k> =
    sum_k dt <g_k, lam_{k+1}> exactly.
    """
    if traj.time_grid != tg:
        raise ValueError("trajectory and requested time grids disagree")
    jac, x = model.jacobian_apply, traj.states
    term = None if jac is None else lambda k, h: jac(x[k], h)
    return cn_ab2_sweep(model.linear_op, tg, np.zeros_like(x[0]), forcing[:tg.nt], term)


def solve_adjoint(model: ModelSpec, traj: Trajectory, weights: CostWeights,
                  tg: TimeGrid) -> Trajectory:
    """Adjoint trajectory p for the quadratic cost (source Q x, p(tau) = O(dt)).

    The terminal value is the exact transpose of the last Crank-Nicolson step
    against the trapezoid cost weight, which is O(dt) rather than literally
    zero; it converges to the continuous condition p(tau) = 0.
    """
    source = (2.0 * weights.q_scale) * tg.weights[:, None] * traj.states
    lam = adjoint_sweep(model, traj, tg, source)
    return Trajectory(time_grid=tg, states=0.5 * lam)


def control_weight_states(p: Trajectory) -> np.ndarray:
    """Per-sample adjoint combinations pi_j pairing with the input u_j.

    The AB2 stepper pairs u_j with (3/2) lam_{j+1} - (1/2) lam_{j+2}; in terms
    of the reported p the rows are

        pi_0 = p_1 - p_2 / 2,  pi_j = 3/2 p_{j+1} - 1/2 p_{j+2},
        pi_{nt-1} = 3/2 p_nt,  pi_nt = 0.

    Divided by the trapezoid weight theta_j they represent B*p against the
    L2(0,tau) pairing; undivided they feed the design-gradient time integral.
    """
    nt = p.time_grid.nt
    pv = p.states
    pi = np.zeros_like(pv)
    pi[1:nt - 1] = 1.5 * pv[2:nt] - 0.5 * pv[3:nt + 1]
    pi[0] = pv[1] - 0.5 * pv[2]
    pi[nt - 1] = 1.5 * pv[nt]
    return pi


@dataclass(frozen=True)
class GradientBundle:
    """Exact discrete derivatives of the cost at one (u, r, x0) point."""

    grad_u: np.ndarray
    grad_r: np.ndarray
    grad_x0: np.ndarray
    cost: float
    grad_x0_l2: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("grad_u", "grad_r", "grad_x0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if not (np.isfinite(self.cost) and self.cost >= 0):
            raise ValueError(f"cost must be finite and nonnegative, got {self.cost}")


def assemble_gradients(model: ModelSpec, traj: Trajectory, p: Trajectory,
                       u: ControlSignal, design: ActuatorDesign,
                       weights: CostWeights) -> GradientBundle:
    """Gradients with respect to u (L2 representer), r, and x0 (H1 representer)."""
    grid = model.grid
    tg = traj.time_grid
    b = model.actuator_family.evaluate(design, grid)

    pi = control_weight_states(p)
    bstar_p = grid.weight * ((pi @ b) / tg.weights)
    grad_u = 2.0 * (weights.r_scale * u.values + bstar_p)

    s = u.values @ pi
    # equals the per-step accumulation of actuator_design_derivative_adjoint
    grad_r = actuator_design_derivative_adjoint(model.actuator_family, design,
                                                1.0, 2.0 * tg.dt * s, grid)

    grad_x0_l2 = 2.0 * p.states[0]
    grad_x0 = h1_riesz_map(grad_x0_l2, grid)
    cost = evaluate_cost(traj, u, weights, grid)
    return GradientBundle(grad_u=grad_u, grad_r=grad_r, grad_x0=grad_x0, cost=cost,
                          grad_x0_l2=grad_x0_l2)


def compute_bundle(model: ModelSpec, u: ControlSignal, design: ActuatorDesign,
                   x0: np.ndarray, weights: CostWeights, tg: TimeGrid
                   ) -> tuple[GradientBundle, Trajectory, Trajectory]:
    """One forward + adjoint solve and the assembled gradients."""
    traj = solve_forward(model, u, design, x0, tg)
    p = solve_adjoint(model, traj, weights, tg)
    bundle = assemble_gradients(model, traj, p, u, design, weights)
    return bundle, traj, p


@dataclass(frozen=True)
class GradientCheckReport:
    """Relative errors between adjoint and central-difference derivatives."""

    rows: list  # (variable, epsilon, adjoint_value, fd_value, rel_error)
    tolerance: float

    @property
    def best_errors(self) -> dict:
        best: dict[str, float] = {}
        for var, _, _, _, err in self.rows:
            best[var] = min(best.get(var, np.inf), err)
        return best

    @property
    def max_rel_error(self) -> float:
        return max(self.best_errors.values())

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "ok": self.ok,
            "best_errors": self.best_errors,
            "rows": [{"variable": v, "epsilon": e, "adjoint": a, "fd": f, "rel_error": r}
                     for v, e, a, f, r in self.rows],
        }


def gradient_check(model: ModelSpec, u: ControlSignal, design: ActuatorDesign,
                   x0: np.ndarray, weights: CostWeights, tg: TimeGrid,
                   epsilon_list=(1e-4, 1e-5, 1e-6), tolerance: float = 1e-4,
                   seed: int = 0) -> GradientCheckReport:
    """Directional central-difference validation of all three gradients.

    Blow-ups during perturbed solves propagate; an overly large epsilon only
    degrades the reported error, never the report structure.
    """
    rng = np.random.default_rng(seed)
    grid = model.grid

    bundle, _, _ = compute_bundle(model, u, design, x0, weights, tg)

    du = rng.standard_normal(tg.nt + 1)
    du /= np.linalg.norm(du)
    dr = rng.standard_normal(design.params.shape)
    dr /= np.linalg.norm(dr)
    dx = rng.standard_normal(grid.size)
    dx /= np.linalg.norm(dx)

    def cost_at(uv, params, x0v):
        traj = solve_forward(model, ControlSignal(tg, uv), ActuatorDesign(params), x0v, tg)
        return evaluate_cost(traj, ControlSignal(tg, uv), weights, grid)

    adj_u = tg.inner(bundle.grad_u, du)
    adj_r = float(np.dot(bundle.grad_r, dr))
    adj_x = inner_product(bundle.grad_x0_l2, dx, grid)

    rows = []
    for eps in epsilon_list:
        fd_u = (cost_at(u.values + eps * du, design.params, x0)
                - cost_at(u.values - eps * du, design.params, x0)) / (2 * eps)
        rows.append(("u", eps, adj_u, fd_u, abs(fd_u - adj_u) / max(abs(fd_u), 1e-300)))
        lo = model.actuator_family.project(design.params - eps * dr)
        hi = model.actuator_family.project(design.params + eps * dr)
        if np.allclose(hi - lo, 2 * eps * dr, rtol=1e-12, atol=0):
            fd_r = (cost_at(u.values, hi, x0) - cost_at(u.values, lo, x0)) / (2 * eps)
            rows.append(("r", eps, adj_r, fd_r, abs(fd_r - adj_r) / max(abs(fd_r), 1e-300)))
        fd_x = (cost_at(u.values, design.params, x0 + eps * dx)
                - cost_at(u.values, design.params, x0 - eps * dx)) / (2 * eps)
        rows.append(("x0", eps, adj_x, fd_x, abs(fd_x - adj_x) / max(abs(fd_x), 1e-300)))
    return GradientCheckReport(rows=rows, tolerance=tolerance)
