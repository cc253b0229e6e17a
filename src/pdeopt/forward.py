"""Time integration of the semilinear IVP and trajectory-level energy checks.

The stepper is IMEX: Crank-Nicolson on the stiff linear operator A and a
second-order Adams-Bashforth extrapolation of the nonlinear-plus-input term
N(x, u) = F(x) + b u,

    (I - dt/2 A) x_{k+1} = (I + dt/2 A) x_k + dt * s_k,
    s_0 = N_0,   s_k = 3/2 N_k - 1/2 N_{k-1}   (k >= 1),

which is unconditionally stable against the linear part and avoids Newton
solves on the nonlinearity (the IMEX CNAB scheme of Ascher, Ruuth & Wetton,
SIAM J. Numer. Anal. 32 (1995)).  On a model with a nonlinearity the input
is part of N: each step adds u_k b to F(x_k) before the one modal transform
the step makes anyway.  A linear model has no such transform per step, so
there the input stays a modal rank-one source, 3/2 u_k - 1/2 u_{k-1} times
the modal coefficients of b.  Divergence of a trajectory is reported as a
``BlowUpError`` with the step index; existence is only local in time, so a
blow-up is a legitimate outcome, not a bug.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import BlowUpError, InvalidGridError, NotApplicableError, PdeoptError
from .grids import (Grid1D, LinearOperator, build_grid_1d, build_grid_2d, inner_product,
                    smallest_eigenvalue)
from .models import ActuatorDesign, ModelSpec


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
        # a bool is an int, and NaN fails every comparison
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real) \
                or not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"horizon must be a finite positive number, got tau={self.tau!r}")

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

    @property
    def ab2(self) -> np.ndarray:
        """The nt input weights of the AB2 steps, u_0 and 3/2 u_k - 1/2 u_{k-1}."""
        u_ab2 = self.values[:-1].copy()
        u_ab2[1:] = 1.5 * self.values[1:-1] - 0.5 * self.values[:-2]
        return u_ab2


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
    PdeoptError when the eigenvalues of M and P overflow, or M is nearly
    singular, at this dt.
    """
    basis = a_op.basis
    with np.errstate(over="ignore"):
        den = 1.0 - 0.5 * dt * basis.values
    if not np.isfinite(den).all():  # a finite den makes 1 + dt/2 A finite too
        raise PdeoptError(f"Crank-Nicolson factors I -/+ dt/2 A overflow at dt={dt}")
    if np.min(np.abs(den)) < 1e-8:
        raise PdeoptError(f"Crank-Nicolson factor I - dt/2 A is nearly singular "
                          f"at dt={dt}")
    return basis, 1.0 + 0.5 * dt * basis.values, den


def cn_ab2_sweep(a_op: LinearOperator, tg: TimeGrid, x0: np.ndarray,
                 source: np.ndarray | None = None, term=None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """States x_0..x_nt of the CN-AB2 stepper, one row per time, with

        M x_{k+1} = P x_k + dt (3/2 N_k - 1/2 N_{k-1}) + dt source_k,

    N_k = term(k, x_k) (plain N_0 on the first step).  The state is carried
    as modal coefficients c_k in A's basis, so a step is the elementwise
    c_{k+1} = (num/den) c_k + (dt/den) s_k with the right-hand side s_k in
    modal form.  ``term`` makes the one round trip per step (N_k in, x_{k+1}
    out), one state at a time through buffers made once per sweep; whatever
    a nonlinear model's step adds, the input included, belongs in N_k, and
    the array ``term`` returns is read before its next call, so it may be a
    buffer the term reuses.  The state-independent ``source`` is for sweeps
    without a term: it comes already in modal coordinates, shape (nt, n),
    and is scaled by dt/den in place.  Without a term the trajectory
    returns to nodal values in one batched transform at the end, written
    over the modal rows.  ``out``, C-contiguous of shape (nt+1, n),
    receives the states (a new array without it).

    Raises BlowUpError(step) at the first non-finite state, found in one
    pass over the finished trajectory, and when ``term`` raises PdeoptError
    on a finite state.
    """
    basis, num, den = crank_nicolson_factors(a_op, tg.dt)
    nt = tg.nt
    ratio, gain = num / den, tg.dt / den
    with np.errstate(over="ignore", invalid="ignore"):
        if source is not None:
            source *= gain
        states = np.empty((nt + 1, x0.size)) if out is None else out
        if term is None:
            coef = states
            coef[0] = basis.to_modal(x0)
            for k in range(nt):
                np.multiply(ratio, coef[k], out=coef[k + 1])
                if source is not None:
                    coef[k + 1] += source[k]
            states = basis.from_modal(coef, out=coef)
            _check_finite(states[1:])
            return states

        # N_k and N_{k-1} swap buffers each step; the AB2 weights carry dt/den
        states[0] = x0
        coef = basis.to_modal(x0)
        n_k, n_prev, s_k = (np.empty_like(coef) for _ in range(3))
        w_new, w_old = 1.5 * gain, 0.5 * gain
        for k in range(nt):
            try:
                basis.to_modal(term(k, states[k]), out=n_k)
            except PdeoptError as err:
                _check_finite(states[1:k + 1])  # a non-finite state the term refused
                raise BlowUpError(step=k + 1, message=f"step {k + 1}: {err}") from None
            coef *= ratio
            if k:
                np.multiply(w_new, n_k, out=s_k)
                coef += s_k
                np.multiply(w_old, n_prev, out=s_k)
                coef -= s_k
            else:
                np.multiply(gain, n_k, out=s_k)
                coef += s_k
            if source is not None:
                coef += source[k]
            basis.from_modal(coef, out=states[k + 1])
            n_k, n_prev = n_prev, n_k
        _check_finite(states[1:])
    return states


def _check_finite(rows: np.ndarray) -> None:
    """Raise BlowUpError naming the first non-finite row of states[1:]."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise BlowUpError(step=int(np.argmax(bad)) + 1)


def solve_forward(model: ModelSpec, u: ControlSignal | None, design: ActuatorDesign,
                  x0: np.ndarray, tg: TimeGrid, out: np.ndarray | None = None) -> Trajectory:
    """Integrate the IVP; raises BlowUpError(step) on non-finite states.

    ``u`` must lie on ``tg`` (None is the unforced solve).  With a
    nonlinearity the input always enters N_k = F(x_k) + u_k b, summed in a
    nodal buffer, so that AB2 extrapolates it with F and no trajectory-sized
    array besides the states is formed.  A linear model takes it as the modal
    rank-one source (3/2 u_k - 1/2 u_{k-1}) times b's modal coefficients.
    The states are written into ``out`` where it is given (see
    ``cn_ab2_sweep``).
    """
    grid = model.grid
    if x0.shape != (grid.size,):
        raise ValueError(f"x0 of shape {x0.shape} does not match grid size {grid.size}")
    u = ControlSignal.zero(tg) if u is None else u
    if u.time_grid != tg:
        raise ValueError("control and state time grids disagree")

    b = model.actuator_family.evaluate(design, grid)  # checks the design
    f, source, term = model.nonlinearity, None, None
    if f is not None:
        n_k = np.empty_like(b)

        def term(k, x):
            np.multiply(b, u.values[k], out=n_k)
            return np.add(n_k, f(x), out=n_k)
    elif np.any(u.values[:-1]):
        source = np.multiply.outer(u.ab2, model.linear_op.basis.to_modal(b))
    states = cn_ab2_sweep(model.linear_op, tg, x0, source, term, out)
    return Trajectory(time_grid=tg, states=states)


def energy_trace(traj: Trajectory, grid) -> np.ndarray:
    """E(t_k) = <x_k, x_k> in the discrete L2 inner product."""
    return np.array([inner_product(x, x, grid) for x in traj.states])


def verify_ks_bound(traj: Trajectory, u: ControlSignal, design: ActuatorDesign,
                    model: ModelSpec) -> float:
    """Margin of the KS energy bound; nonnegative means the bound held.

    ||w(tau)||^2 <= ||w_0||^2 + (1/sigma(lam)) ||u||_{L2}^2 max_xi b^2(xi; r),
    with sigma(lam) the smallest eigenvalue of the model's discrete -A.  Its
    one hypothesis is sigma > 0 (which holds only below lam = 4 pi^2, and on
    coarse grids below a smaller lam); raises NotApplicableError elsewhere.
    """
    grid = model.grid
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
    """Margin of the ISS bound for the heat model, with or without F.

    ||w(tau)||^2 <= ||w_0||^2 + (4/c_Omega) ||u||_{L2}^2 ||r||_{L2}^2, with
    c_Omega the smallest eigenvalue of the discrete -Laplacian (the discrete
    Poincare constant).  Requires ``model.sign_condition`` (True where F = 0).
    """
    if not model.sign_condition:
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
    not apply (the bound raises NotApplicableError): the KS bound on a 1-D
    grid, the heat ISS bound on a 2-D one.  Both margins are ||x_0||^2 +
    gain ||u||^2 - ||x(tau)||^2 and differ in their gain and hypothesis.
    """
    bound = verify_ks_bound if isinstance(model.grid, Grid1D) else verify_heat_iss_bound
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


def save_checkpoint(traj: Trajectory, path, grid) -> None:
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
        np.ascontiguousarray(traj.states, dtype="<f8").tofile(fh)


def load_checkpoint(path) -> tuple[Trajectory, object]:
    """Read a ``save_checkpoint`` file back.  Raises ValueError, naming the
    path, on a foreign file, on a header that does not describe a grid and
    time grid by integer counts, and on a truncated or overlong file with the
    byte counts."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC):
        raise ValueError(f"{path} is not a trajectory checkpoint")
    start = len(_MAGIC) + 4
    hlen = struct.unpack_from("<I", data, len(_MAGIC))[0] if len(data) >= start else 0
    if len(data) < start + hlen:
        raise ValueError(f"{path}: checkpoint header is truncated, expected at least "
                         f"{start + hlen} bytes, found {len(data)}")
    try:
        meta = json.loads(data[start:start + hlen].decode("utf-8"))
        desc = meta["grid"]
        counts = [meta["nt"]] + [desc[k] for k in ("n", "nx", "ny") if k in desc]
        if any(type(c) is not int for c in counts):  # a JSON float or bool is no count
            raise TypeError(f"counts {counts} are not all integers")
        if desc["kind"] == "1d":
            grid = build_grid_1d(desc["n"])
        else:
            grid = build_grid_2d(desc["nx"], desc["ny"], desc["lx"], desc["ly"],
                                 dirichlet_sides=tuple(desc["dirichlet"]))
        tg = TimeGrid(tau=meta["tau"], nt=meta["nt"])
    except (KeyError, TypeError, ValueError, InvalidGridError) as err:
        raise ValueError(f"{path}: checkpoint header is not a trajectory descriptor "
                         f"({type(err).__name__}: {err})") from None
    start += hlen
    expect, found = 8 * (tg.nt + 1) * grid.size, len(data) - start
    if found != expect:
        raise ValueError(f"{path}: checkpoint payload has {found} bytes, "
                         f"expected {expect}")
    states = np.frombuffer(data, dtype="<f8", offset=start).reshape(tg.nt + 1, grid.size)
    return Trajectory(time_grid=tg, states=states.copy()), grid
