"""Backward adjoint sweep and exact discrete gradients of the quadratic cost.

The adjoint stepper is the algebraic transpose of the linearized forward
stepper (discretize-then-optimize), so the assembled gradients differentiate
the discrete cost exactly and central finite differences must agree to
truncation + roundoff.  The continuous adjoint PDE is recovered as dt -> 0 and
only serves as a consistency oracle in the tests.  The sweep writes each
costate row over the nodal source row it came from, so an adjoint solve forms
no trajectory-sized array besides its source, which becomes the costate.

Conventions.  With cost J = int q<x,x> + rho u^2 dt (trapezoid in time), the
adjoint p solves the final-value problem with source Q x (the textbook
normalization, under which p = Pi x holds on linear models with the Riccati
solution of riccati.py), while the true costate of J is 2p.  The
GradientBundle therefore carries the honest derivatives of J, each the L2
representer of its variable:

    grad_u = 2 (rho u + B* p),   grad_r = 2 int (B'_r u)* p dt,
    grad_x0 = 2 p(0),

and the optimality residuals of optimize.py use the unscaled quantities
rho u + B* p and int (B'_r u)* p dt, whose zero sets are the same.  Only the
worst-initial-condition ascent works in H1; it maps grad_x0 there itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import ControlSignal, TimeGrid, Trajectory, cn_ab2_sweep, \
    crank_nicolson_factors, solve_forward
from .grids import inner_product
from .models import ActuatorDesign, ModelSpec, actuator_design_derivative_adjoint

GRADCHECK_TOL = 1e-4  # largest relative error at which gradient_check's report is ok


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

    ``source`` holds nodal rows, shape (nt+1, n), C-contiguous, and the sweep
    owns it: the nodal lam rows are written over it and it is returned.  It
    steps in the forward sweep's modal coordinates, where M and P are
    diagonal.  On a model with a Jacobian, lam makes one round trip per
    step: G_j^T (3/2 lam_{j+1} - 1/2 lam_{j+2}), from the nodal rows j+1 and
    j+2 already written, is added to source row j, that one row is mapped to
    modal and folded into the modal lam, and nodal lam_j goes back over row
    j.  A linear model needs no transform per step, so its whole source is
    mapped to modal over itself, the recursion runs there elementwise, and
    the rows are mapped back over the same buffer.
    """
    if traj.time_grid != tg:
        raise ValueError("trajectory and requested time grids disagree")
    jac_t, x = model.jacobian_adjoint_apply, traj.states
    if source.shape != x.shape or not source.flags.c_contiguous:
        raise ValueError(f"source must be C-contiguous nodal rows of shape {x.shape}, "
                         f"got shape {source.shape}")
    basis, num, den = crank_nicolson_factors(model.linear_op, tg.dt)
    nt, dt = tg.nt, tg.dt
    ratio, gain = num / den, dt / den

    if jac_t is None:
        lam = basis.to_modal(source, out=source)
        lam *= dt
        lam[1:] /= den
        step = np.empty_like(ratio)
        for j in range(nt - 1, -1, -1):
            np.multiply(ratio if j else num, lam[j + 1], out=step)
            lam[j] += step
        basis.from_modal(lam, out=lam)
        return source

    lam, s_j = basis.to_modal(source[nt]), np.empty_like(ratio)  # modal lam_{j+1}, row j
    lam *= gain
    basis.from_modal(lam, out=source[nt])
    comb, older = np.empty_like(x[0]), np.empty_like(x[0])
    for j in range(nt - 1, -1, -1):
        # comb = 3/2 lam_{j+1} - 1/2 lam_{j+2}, with 1 for 3/2 at j = 0
        np.multiply(1.5 if j else 1.0, source[j + 1], out=comb)
        if j < nt - 1:
            np.multiply(0.5, source[j + 2], out=older)
            comb -= older
        source[j] += jac_t(x[j], comb)
        basis.to_modal(source[j], out=s_j)
        s_j *= gain if j else dt
        lam *= ratio if j else num
        lam += s_j
        basis.from_modal(lam, out=source[j])
    return source


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
    jac, x, a_op = model.jacobian_apply, traj.states, model.linear_op
    term = None if jac is None else lambda k, h: jac(x[k], h)
    return cn_ab2_sweep(a_op, tg, np.zeros_like(x[0]), a_op.basis.to_modal(forcing[:tg.nt]),
                        term)


def solve_adjoint(model: ModelSpec, traj: Trajectory, weights: CostWeights,
                  tg: TimeGrid, out: np.ndarray | None = None) -> Trajectory:
    """Adjoint trajectory p for the quadratic cost (source Q x, p(tau) = O(dt)).

    The terminal value is the exact transpose of the last Crank-Nicolson step
    against the trapezoid cost weight, which is O(dt) rather than literally
    zero; it converges to the continuous condition p(tau) = 0.  The nodal
    source q theta_k x_k is the one trajectory-sized array formed here, or
    written into ``out`` (C-contiguous, the shape of the states) where it is
    given: ``adjoint_sweep`` writes p over it.
    """
    source = np.multiply(traj.states, (weights.q_scale * tg.weights)[:, None], out=out)
    return Trajectory(time_grid=tg, states=adjoint_sweep(model, traj, tg, source))


@dataclass(frozen=True)
class GradientBundle:
    """Exact discrete derivatives of the cost at one (u, r, x0) point."""

    grad_u: np.ndarray
    grad_r: np.ndarray
    grad_x0: np.ndarray
    cost: float

    def __post_init__(self):
        for name in ("grad_u", "grad_r", "grad_x0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if not (np.isfinite(self.cost) and self.cost >= 0):
            raise ValueError(f"cost must be finite and nonnegative, got {self.cost}")


def assemble_gradients(model: ModelSpec, traj: Trajectory, p: Trajectory,
                       u: ControlSignal, design: ActuatorDesign,
                       weights: CostWeights) -> GradientBundle:
    """Gradients with respect to u, r and x0, each its L2 representer.

    The AB2 stepper pairs u_j with pi_j = (3/2) p_{j+1} - (1/2) p_{j+2}
    (pi_0 = p_1 - p_2 / 2, pi_{nt-1} = 3/2 p_nt, pi_nt = 0).  The input is
    rank one, so both pairings are GEMVs: B*p is <pi_j, b> / theta_j, taken
    from the nt+1 scalars <p_k, b>, and the design integral sum_j u_j pi_j is
    the AB2 weights of u against p_1..p_nt.
    """
    grid = model.grid
    tg = traj.time_grid
    b = model.actuator_family.evaluate(design, grid)

    pb = p.states @ b
    pi_b = np.zeros_like(pb)
    pi_b[:-1] = 1.5 * pb[1:]
    pi_b[0] = pb[1]
    pi_b[:-2] -= 0.5 * pb[2:]
    bstar_p = grid.weight * (pi_b / tg.weights)
    grad_u = 2.0 * (weights.r_scale * u.values + bstar_p)

    s = u.ab2 @ p.states[1:]
    grad_r = actuator_design_derivative_adjoint(model.actuator_family, design,
                                                2.0 * tg.dt * s, grid)

    cost = evaluate_cost(traj, u, weights, grid)
    return GradientBundle(grad_u=grad_u, grad_r=grad_r, grad_x0=2.0 * p.states[0], cost=cost)


def compute_bundle(model: ModelSpec, u: ControlSignal, design: ActuatorDesign,
                   x0: np.ndarray, weights: CostWeights, tg: TimeGrid,
                   out: tuple | None = None) -> tuple[GradientBundle, Trajectory]:
    """One forward + adjoint solve: the assembled gradients and the forward
    trajectory.  The costate is read only here and freed on return.  With
    ``out``, a pair of (nt+1) x n buffers, the trajectory is written into
    the first and the costate into the second; the bundle holds neither."""
    x_out, p_out = (None, None) if out is None else out
    traj = solve_forward(model, u, design, x0, tg, out=x_out)
    p = solve_adjoint(model, traj, weights, tg, out=p_out)
    return assemble_gradients(model, traj, p, u, design, weights), traj


@dataclass(frozen=True)
class GradientCheckReport:
    """Relative errors between adjoint and central-difference derivatives."""

    rows: list  # (variable, epsilon, adjoint_value, fd_value, rel_error)

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
        return self.max_rel_error <= GRADCHECK_TOL

    def to_dict(self) -> dict:
        return {
            "tolerance": GRADCHECK_TOL,
            "ok": self.ok,
            "best_errors": self.best_errors,
            "rows": [{"variable": v, "epsilon": e, "adjoint": a, "fd": f, "rel_error": r}
                     for v, e, a, f, r in self.rows],
        }


def gradient_check(model: ModelSpec, u: ControlSignal, design: ActuatorDesign,
                   x0: np.ndarray, weights: CostWeights, tg: TimeGrid,
                   epsilon_list=(1e-4, 1e-5, 1e-6), seed: int = 0) -> GradientCheckReport:
    """Directional central-difference validation of all three gradients.

    Blow-ups during perturbed solves propagate; an overly large epsilon only
    degrades the reported error, never the report structure.
    """
    rng = np.random.default_rng(seed)
    grid = model.grid

    bundle = compute_bundle(model, u, design, x0, weights, tg)[0]

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
    adj_x = inner_product(bundle.grad_x0, dx, grid)

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
    return GradientCheckReport(rows=rows)
