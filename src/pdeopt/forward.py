"""Time integration of the semilinear IVP and trajectory-level energy checks.

The stepper is IMEX: Crank-Nicolson on the stiff linear operator A and a
second-order Adams-Bashforth extrapolation of the nonlinear-plus-input term
N(x, u) = F(x) + b u,

    (I - dt/2 A) x_{k+1} = (I + dt/2 A) x_k + dt * s_k,
    s_0 = N_0,   s_k = 3/2 N_k - 1/2 N_{k-1}   (k >= 1),

which is unconditionally stable against the linear part and avoids Newton
solves on the nonlinearity.  Divergence of a trajectory is reported as a
``BlowUpError`` with the step index; existence is only local in time, so a
blow-up is a legitimate outcome, not a bug.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import BlowUpError, NotApplicableError, PdeoptError
from .grids import (Grid1D, LinearOperator, build_grid_1d, build_grid_2d, inner_product,
                    smallest_eigenvalue)
from .models import ActuatorDesign, ModelSpec

FOUR_PI_SQ = 4.0 * np.pi**2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, tau] with nt steps, and the trapezoid rule on
    it that every L2(0, tau) quantity uses: the cost, the input ball, the
    optimality residuals and the energy bounds."""

    tau: float
    nt: int

    def __post_init__(self):
        if self.nt < 2:
            raise ValueError(f"need at least 2 time steps, got nt={self.nt}")
        if self.tau <= 0:
            raise ValueError(f"horizon must be positive, got tau={self.tau}")

    @property
    def dt(self) -> float:
        return self.tau / self.nt

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.tau, self.nt + 1)

    @property
    def weights(self) -> np.ndarray:
        """Per-sample trapezoid weights theta (1/2 at both ends, 1 inside)."""
        theta = np.ones(self.nt + 1)
        theta[0] = theta[-1] = 0.5
        return theta

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Trapezoid L2(0, tau) pairing dt * sum_k theta_k f_k g_k of two
        signals sampled on the grid."""
        return self.dt * float(np.sum(self.weights * f * g))

    def norm(self, f: np.ndarray) -> float:
        """Trapezoid L2(0, tau) norm, the square root of inner(f, f)."""
        return float(np.sqrt(self.inner(f, f)))


@dataclass(frozen=True)
class ControlSignal:
    """Scalar input sampled on the state time grid."""

    time_grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.time_grid.nt + 1,):
            raise ValueError(f"control needs {self.time_grid.nt + 1} samples, "
                             f"got {self.values.shape}")

    @staticmethod
    def zero(tg: TimeGrid) -> "ControlSignal":
        return ControlSignal(time_grid=tg, values=np.zeros(tg.nt + 1))


@dataclass(frozen=True)
class Trajectory:
    """Discrete states x(t_k), k = 0..nt, stacked as rows."""

    time_grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        expect = (self.time_grid.nt + 1,)
        if self.states.shape[:1] != expect:
            raise ValueError(f"trajectory needs {expect[0]} states, got {self.states.shape[0]}")

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def crank_nicolson_factors(a_op, dt: float) -> tuple:
    """M = I - (dt/2) A and P = I + (dt/2) A as diagonal scalings in A's eigenbasis.

    Returns (basis, num, den): the eigenbasis the operator builds once and
    keeps, and the eigenvalues of P and M.  Both are symmetric, so the
    adjoint sweep's transposed solves are the same scalings, and it stays the
    exact transpose of the forward sweep to a few ulps even for the stiff
    biharmonic operator (an LU pairing loses ~kappa(M) digits there).  Raises
    PdeoptError when M is nearly singular at this dt.
    """
    basis = a_op.basis
    den = 1.0 - 0.5 * dt * basis.values
    if np.min(np.abs(den)) < 1e-8:
        raise PdeoptError(f"Crank-Nicolson factor I - dt/2 A is nearly singular "
                          f"at dt={dt}")
    return basis, 1.0 + 0.5 * dt * basis.values, den


def cn_ab2_sweep(a_op: LinearOperator, tg: TimeGrid, x0: np.ndarray,
                 source: np.ndarray | None = None, term=None) -> np.ndarray:
    """States x_0..x_nt of the CN-AB2 stepper, one row per time, with

        M x_{k+1} = P x_k + dt (3/2 N_k - 1/2 N_{k-1}) + dt source_k,

    N_k = term(k, x_k) (plain N_0 on the first step) and source of shape
    (nt, n).  The state is carried as modal coefficients c_k in A's basis, so
    a step is the elementwise c_{k+1} = (num/den) c_k + (dt/den) s_k with the
    right-hand side s_k in modal form.  The state-independent ``source``
    moves to modal coordinates once, in one batched transform, and only
    ``term`` makes a round trip per step (N_k in, x_{k+1} out).  Without a
    term the trajectory returns to nodal values in one batched transform at
    the end.

    Raises BlowUpError(step) at the first non-finite state, and when ``term``
    raises PdeoptError.
    """
    basis, num, den = crank_nicolson_factors(a_op, tg.dt)
    nt = tg.nt
    ratio, gain = num / den, tg.dt / den
    with np.errstate(over="ignore", invalid="ignore"):
        forced = None
        if source is not None:
            forced = basis.to_modal(source)
            forced *= gain
        if term is None:
            coef = np.empty((nt + 1, *ratio.shape))
            coef[0] = basis.to_modal(x0)
            for k in range(nt):
                np.multiply(ratio, coef[k], out=coef[k + 1])
                if forced is not None:
                    coef[k + 1] += forced[k]
            states = basis.from_modal(coef)
            bad = ~np.isfinite(states[1:]).all(axis=1)
            if bad.any():
                raise BlowUpError(step=int(np.argmax(bad)) + 1)
            return states

        states = np.empty((nt + 1, x0.size))
        states[0] = x0
        coef = basis.to_modal(x0)
        n_prev = None
        for k in range(nt):
            try:
                n_k = basis.to_modal(term(k, states[k]))
            except PdeoptError as err:
                raise BlowUpError(step=k + 1, message=f"step {k + 1}: {err}") from None
            s_k = n_k if k == 0 else 1.5 * n_k - 0.5 * n_prev
            coef = ratio * coef + gain * s_k
            if forced is not None:
                coef += forced[k]
            states[k + 1] = basis.from_modal(coef)
            if not np.isfinite(states[k + 1]).all():
                raise BlowUpError(step=k + 1)
            n_prev = n_k
    return states


def cn_ab2_transpose_sweep(a_op: LinearOperator, tg: TimeGrid, source: np.ndarray,
                           term_t=None) -> np.ndarray:
    """Exact transpose of ``cn_ab2_sweep`` with a linear term N_k = G_k x_k.

    Returns lam_0..lam_nt of the backward recursion written out in
    ``adjoint.adjoint_sweep``, with G_j^T v = term_t(j, v), stepped in the
    same modal coordinates as the forward sweep: ``source`` (nt+1 rows) moves
    in and the result moves out in one batched transform each, and only
    ``term_t`` makes a round trip per step.
    """
    basis, num, den = crank_nicolson_factors(a_op, tg.dt)
    nt, dt = tg.nt, tg.dt
    ratio, gain = num / den, dt / den
    coef = basis.to_modal(source)
    coef *= dt
    coef[1:] /= den
    coef[nt - 1] += ratio * coef[nt]
    if term_t is None:
        for j in range(nt - 2, 0, -1):
            coef[j] += ratio * coef[j + 1]
        coef[0] += num * coef[1]
        return basis.from_modal(coef)

    def jac_t(j, comb):
        return basis.to_modal(term_t(j, basis.from_modal(comb)))

    coef[nt - 1] += gain * jac_t(nt - 1, 1.5 * coef[nt])
    for j in range(nt - 2, 0, -1):
        coef[j] += ratio * coef[j + 1] + gain * jac_t(j, 1.5 * coef[j + 1] - 0.5 * coef[j + 2])
    coef[0] += num * coef[1] + dt * jac_t(0, coef[1] - 0.5 * coef[2])
    return basis.from_modal(coef)


def solve_forward(model: ModelSpec, u: ControlSignal | None, design: ActuatorDesign,
                  x0: np.ndarray, tg: TimeGrid) -> Trajectory:
    """Integrate the IVP; raises BlowUpError(step) on non-finite states."""
    grid = model.grid
    if x0.shape != (grid.size,):
        raise ValueError(f"x0 of shape {x0.shape} does not match grid size {grid.size}")
    uv = np.zeros(tg.nt + 1) if u is None else u.values
    if uv.shape != (tg.nt + 1,):
        raise ValueError("control and state time grids disagree")

    b = model.actuator_family.evaluate(design, grid)  # checks the design
    source = None
    if np.any(uv[:-1]):
        u_ab2 = uv[:-1].copy()  # AB2 extrapolation of the input term b u_k
        u_ab2[1:] = 1.5 * uv[1:-1] - 0.5 * uv[:-2]
        source = np.outer(u_ab2, b)
    term = None if model.nonlinearity is None else lambda k, x: model.nonlinearity(x)
    states = cn_ab2_sweep(model.linear_op, tg, x0, source, term)
    return Trajectory(time_grid=tg, states=states)


def energy_trace(traj: Trajectory, grid) -> np.ndarray:
    """E(t_k) = <x_k, x_k> in the discrete L2 inner product."""
    return np.array([inner_product(x, x, grid) for x in traj.states])


def verify_ks_bound(traj: Trajectory, u: ControlSignal, design: ActuatorDesign,
                    model: ModelSpec) -> float:
    """Margin of the KS energy bound; nonnegative means the bound held.

    ||w(tau)||^2 <= ||w_0||^2 + (1/sigma(lam)) ||u||_{L2}^2 max_xi b^2(xi; r),
    with sigma(lam) the smallest eigenvalue of the model's discrete -A.  Only
    asserted where sigma > 0, which needs lam < 4 pi^2 and on coarse grids a
    smaller lam; raises NotApplicableError elsewhere.
    """
    lam, grid = model.lam, model.grid
    if lam >= FOUR_PI_SQ:
        raise NotApplicableError(f"bound requires lam < 4*pi^2 ~= {FOUR_PI_SQ:.3f}, got {lam}")
    sigma = smallest_eigenvalue(-model.linear_op)
    if sigma <= 0:
        raise NotApplicableError(f"discrete -A not positive definite (sigma = {sigma:.3e})")
    b = model.actuator_family.evaluate(design, grid)
    rhs = inner_product(traj.initial, traj.initial, grid) \
        + u.time_grid.norm(u.values)**2 * float(np.max(b**2)) / sigma
    lhs = inner_product(traj.terminal, traj.terminal, grid)
    return rhs - lhs


def verify_heat_iss_bound(traj: Trajectory, u: ControlSignal, design: ActuatorDesign,
                          model: ModelSpec) -> float:
    """Margin of the ISS bound for the nonlinear heat model.

    ||w(tau)||^2 <= ||w_0||^2 + (4/c_Omega) ||u||_{L2}^2 ||r||_{L2}^2, with
    c_Omega the smallest eigenvalue of the discrete -Laplacian (the discrete
    Poincare constant).  Requires the declared sign condition zeta F(zeta) <= 0.
    """
    if not (model.sign_condition or model.is_linear):
        raise NotApplicableError("ISS bound needs the sign condition zeta*F(zeta) <= 0")
    grid = model.grid
    c_omega = smallest_eigenvalue(-model.linear_op)
    r_vec = model.actuator_family.evaluate(design, grid)
    rhs = inner_product(traj.initial, traj.initial, grid) \
        + 4.0 / c_omega * u.time_grid.norm(u.values)**2 * inner_product(r_vec, r_vec, grid)
    lhs = inner_product(traj.terminal, traj.terminal, grid)
    return rhs - lhs


def energy_margin(model: ModelSpec, traj: Trajectory, u: ControlSignal,
                  design: ActuatorDesign) -> float | None:
    """Margin of the energy bound that belongs to ``model``, None if it does
    not apply (the bound raises NotApplicableError): the KS bound when the
    discrete -A is positive definite, with or without the nonlinearity; the
    heat ISS bound under the sign condition or on the linear model.
    """
    bound = verify_ks_bound if model.lam is not None else verify_heat_iss_bound
    try:
        return float(bound(traj, u, design, model))
    except NotApplicableError:
        return None


# --- trajectory export -----------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write rows (t, node values...) with full-precision scientific floats."""
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x_{i:06d}" for i in range(n))
    np.savetxt(path, np.column_stack((traj.time_grid.times, traj.states)),
               fmt="%.16e", delimiter=",", header=header, comments="")


_MAGIC = b"PDEOPTRJ"


def save_checkpoint(traj: Trajectory, grid, path) -> None:
    """Compact binary checkpoint: grid descriptor header + row-major doubles."""
    if isinstance(grid, Grid1D):
        desc = {"kind": "1d", "n": grid.n}
    else:
        desc = {"kind": "2d", "nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly,
                "dirichlet": [s for s, d in grid.dirichlet.items() if d]}
    header = json.dumps({"grid": desc, "nt": traj.time_grid.nt,
                         "tau": traj.time_grid.tau}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(traj.states, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Trajectory, object]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a trajectory checkpoint")
        (hlen,) = struct.unpack("<I", fh.read(4))
        meta = json.loads(fh.read(hlen).decode("utf-8"))
        payload = np.frombuffer(fh.read(), dtype="<f8")
    desc = meta["grid"]
    if desc["kind"] == "1d":
        grid = build_grid_1d(desc["n"])
    else:
        grid = build_grid_2d(desc["nx"], desc["ny"], desc["lx"], desc["ly"],
                             dirichlet_sides=tuple(desc["dirichlet"]))
    tg = TimeGrid(tau=meta["tau"], nt=meta["nt"])
    states = payload.reshape(tg.nt + 1, grid.size).copy()
    return Trajectory(time_grid=tg, states=states), grid
