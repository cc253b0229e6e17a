"""Projected-gradient optimization of (u, r), worst-initial-condition ascent,
and first-order optimality residuals.

The projections are exact in the geometry each variable lives in: the input
in the trapezoid L2(0,tau) norm, the design componentwise in its box, and the
initial condition radially in the discrete H1 norm.  Armijo backtracking uses
the projection-arc sufficient-decrease test, and a forward blow-up at a trial
point is treated as a rejected step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import CostWeights, GradientBundle, compute_bundle, evaluate_cost
from .exceptions import BlowUpError
from .forward import ControlSignal, TimeGrid, Trajectory, energy_margin, solve_forward
from .grids import h1_norm, inner_product
from .models import ActuatorDesign, ActuatorFamily, ModelSpec


@dataclass(frozen=True)
class AdmissibleSets:
    """Input ball, optional amplitude box, design set, and H1 ball for x0."""

    family: ActuatorFamily
    r1: float = 10.0
    r2: float = 1.0
    u_box: float | None = None

    def __post_init__(self):
        if self.r1 <= 0 or self.r2 <= 0:
            raise ValueError("ball radii R1 and R2 must be positive")
        if self.u_box is not None and self.u_box <= 0:
            raise ValueError("amplitude box bound must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    tol: float = 1e-5
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    step0: float = 1.0
    min_step: float = 1e-14
    seed: int = 0
    multi_start: int = 5

    def __post_init__(self):
        if not (0.0 < self.armijo_c1 < 1.0):
            raise ValueError("Armijo constant must lie in (0, 1)")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtracking factor must lie in (0, 1)")
        if self.tol <= 0:
            raise ValueError("stopping tolerance must be positive")


@dataclass(frozen=True)
class Residuals:
    """Tangent-cone-projected first-order stationarity residuals."""

    res_u: float
    res_r: float
    u_active: bool
    r_active: np.ndarray


@dataclass
class CostReport:
    """Per-iteration diagnostics; accepted-step costs must not increase.

    ``traj``, ``p``, ``bundle`` and ``residuals`` are the forward and adjoint
    solutions, the gradients and the optimality residuals at the returned
    iterate (not written by ``to_csv``).
    """

    iterations: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    traj: Trajectory | None = field(default=None, repr=False)
    p: Trajectory | None = field(default=None, repr=False)
    bundle: GradientBundle | None = field(default=None, repr=False)
    residuals: Residuals | None = field(default=None, repr=False)

    _FIELDS = ("iter", "cost", "grad_u_norm", "grad_r_norm", "step",
               "res_u", "res_r", "margin")

    def append(self, **kwargs) -> None:
        if self.iterations and kwargs["cost"] > self.iterations[-1]["cost"] + 1e-12:
            raise AssertionError("accepted-step cost increased "
                                 f"({self.iterations[-1]['cost']} -> {kwargs['cost']})")
        self.iterations.append({k: kwargs.get(k) for k in self._FIELDS})

    @property
    def final(self) -> dict:
        return self.iterations[-1] if self.iterations else {}

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self._FIELDS) + "\n")
            for row in self.iterations:
                cells = []
                for k in self._FIELDS:
                    v = row[k]
                    cells.append("" if v is None else
                                 (str(v) if isinstance(v, int) else f"{v:.16e}"))
                fh.write(",".join(cells) + "\n")


def project_U(u: ControlSignal, sets: AdmissibleSets) -> ControlSignal:
    """Box clamp (if configured), then radial projection onto the R1 ball."""
    values = u.values
    if sets.u_box is not None:
        values = np.clip(values, -sets.u_box, sets.u_box)
    norm = u.time_grid.norm(values)
    if norm > sets.r1:
        values = values * (sets.r1 / norm)
    elif values is u.values:
        return u
    return ControlSignal(time_grid=u.time_grid, values=values)


def project_K(design: ActuatorDesign, sets: AdmissibleSets) -> ActuatorDesign:
    """Componentwise clamp onto the design box."""
    return ActuatorDesign(params=sets.family.project(design.params))


def project_V_ball(x0: np.ndarray, r2: float, grid) -> np.ndarray:
    """Radial projection onto the discrete H1 ball of radius r2."""
    norm = h1_norm(x0, grid)
    if norm <= r2:
        return x0
    return x0 * (r2 / norm)


def optimality_residuals(bundle: GradientBundle, u: ControlSignal,
                         design: ActuatorDesign, sets: AdmissibleSets) -> Residuals:
    """res_u = ||rho u + B* p|| and res_r = |int (B'_r u)* p dt| at the point
    (u, design) whose gradients ``bundle`` holds, after projecting the
    steepest-descent direction onto the tangent cones."""
    tg = u.time_grid
    # input residual: v = rho*u + B*p, direction d = -v restricted to feasible moves
    v = 0.5 * bundle.grad_u
    d = -v
    active_tol = 1e-8
    if sets.u_box is not None:
        at_hi = u.values >= sets.u_box * (1 - active_tol)
        at_lo = u.values <= -sets.u_box * (1 - active_tol)
        d = d.copy()
        d[at_hi & (d > 0)] = 0.0
        d[at_lo & (d < 0)] = 0.0
    norm_u = tg.norm(u.values)
    u_active = False
    if norm_u >= sets.r1 * (1 - active_tol) and norm_u > 0:
        pairing = tg.inner(d, u.values)
        if pairing > 0:  # descent direction points out of the ball: clip radial part
            u_active = True
            d = d - (pairing / tg.inner(u.values, u.values)) * u.values
    res_u = tg.norm(d)

    # design residual, componentwise box cone
    d_r = -0.5 * bundle.grad_r
    params = design.params
    shifted = sets.family.project(params + 1.0)
    lowered = sets.family.project(params - 1.0)
    hi_active = np.abs(params - shifted) <= active_tol * np.maximum(1.0, np.abs(shifted))
    lo_active = np.abs(params - lowered) <= active_tol * np.maximum(1.0, np.abs(lowered))
    d_r[hi_active & (d_r > 0)] = 0.0
    d_r[lo_active & (d_r < 0)] = 0.0
    res_r = float(np.linalg.norm(d_r))
    return Residuals(res_u=res_u, res_r=res_r, u_active=u_active,
                     r_active=(lo_active | hi_active))


def minimize_joint(model: ModelSpec, sets: AdmissibleSets, weights: CostWeights,
                   x0: np.ndarray, tg: TimeGrid, config: OptimizerConfig,
                   optimize_design: bool = True,
                   initial_design: ActuatorDesign | None = None
                   ) -> tuple[ControlSignal, ActuatorDesign, CostReport]:
    """Projected gradient with Armijo backtracking on the joint variable (u, r).

    Starts from u = 0 and the family's reference design unless an explicit
    starting design is given.  With ``optimize_design=False`` the design
    block stays frozen at that start and only u moves (the input-only
    problem).  Persistent blow-up during backtracking aborts with the
    diagnostic recorded in the report, which also carries the forward and
    adjoint solutions at the returned iterate.  Whatever ends the run, the
    report's last row is that iterate.
    """
    u = project_U(ControlSignal.zero(tg), sets)
    start = initial_design if initial_design is not None \
        else model.actuator_family.initial_design()
    design = project_K(start, sets)
    report = CostReport()

    bundle, traj, p = compute_bundle(model, u, design, x0, weights, tg)
    alpha = config.step0
    for it in range(config.max_iters + 1):
        res = optimality_residuals(bundle, u, design, sets)
        report.append(iter=it, cost=bundle.cost,
                      grad_u_norm=tg.norm(bundle.grad_u),
                      grad_r_norm=float(np.linalg.norm(bundle.grad_r)),
                      step=alpha, res_u=res.res_u, res_r=res.res_r,
                      margin=energy_margin(model, traj, u, design))
        stationarity = max(res.res_u, res.res_r) if optimize_design else res.res_u
        if stationarity <= config.tol:
            report.converged = True
            report.stop_reason = "residuals below tolerance"
            break
        if it == config.max_iters:
            report.stop_reason = "max iterations reached"
            break

        accepted = False
        backtracked = False
        while alpha >= config.min_step:
            u_trial = project_U(ControlSignal(tg, u.values - alpha * bundle.grad_u), sets)
            d_trial = project_K(ActuatorDesign(design.params - alpha * bundle.grad_r), sets) \
                if optimize_design else design
            pred = tg.inner(bundle.grad_u, u.values - u_trial.values) \
                + float(np.dot(bundle.grad_r, design.params - d_trial.params))
            if pred <= 0:
                break  # projection moved nowhere useful; stationary in the moving blocks
            try:
                traj_trial = solve_forward(model, u_trial, d_trial, x0, tg)
            except BlowUpError:
                alpha *= config.backtrack
                backtracked = True
                continue
            cost_trial = evaluate_cost(traj_trial, u_trial, weights, model.grid)
            if cost_trial <= bundle.cost - config.armijo_c1 * pred:
                u, design, traj = u_trial, d_trial, traj_trial
                accepted = True
                break
            alpha *= config.backtrack
            backtracked = True
        if not accepted:
            report.stop_reason = "no acceptable step (projection stationary or blow-up)"
            break
        if not backtracked:
            alpha = min(alpha * 2.0, 1e6)  # grow only after a clean acceptance
        bundle, traj, p = compute_bundle(model, u, design, x0, weights, tg)
    report.traj, report.p, report.bundle, report.residuals = traj, p, bundle, res
    return u, design, report


def golden_section_r(model: ModelSpec, sets: AdmissibleSets, weights: CostWeights,
                     x0: np.ndarray, tg: TimeGrid, config: OptimizerConfig,
                     tol: float = 1e-3) -> tuple[float, float]:
    """Derivative-free cross-check for the scalar KS location: golden-section
    on r with an inner input-only solve.  Returns (r, cost)."""
    if model.actuator_family.design_dim != 1 or not hasattr(model.actuator_family,
                                                            "bounds"):
        raise ValueError("golden-section fallback applies to scalar interval designs")

    def inner_cost_at(r: float) -> float:
        _, _, rep = minimize_joint(model, sets, weights, x0, tg, config,
                                   optimize_design=False,
                                   initial_design=ActuatorDesign.of(r))
        return rep.final["cost"]

    lo, hi = model.actuator_family.bounds
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = inner_cost_at(c), inner_cost_at(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = inner_cost_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = inner_cost_at(d)
    r_best = 0.5 * (a + b)
    return r_best, inner_cost_at(r_best)


@dataclass
class WorstIcReport:
    """Multi-start ascent diagnostics for the worst-initial-condition problem."""

    starts: list = field(default_factory=list)
    best_start: int = -1
    converged: bool = False

    @property
    def best(self) -> dict:
        return self.starts[self.best_start]


def worst_initial_condition(model: ModelSpec, u_fixed: ControlSignal,
                            design_fixed: ActuatorDesign, sets: AdmissibleSets,
                            weights: CostWeights, tg: TimeGrid,
                            config: OptimizerConfig
                            ) -> tuple[np.ndarray, float, WorstIcReport]:
    """Projected gradient ascent of the cost over the H1 ball of radius R2.

    The ascent direction is the H1 Riesz representer of the x0-derivative;
    on convergence the multiplier is recovered from the active-constraint
    identity mu = ||riesz(p(0))||_V / R2 (mu = 0 at interior points), and the
    KKT residual ||riesz(p(0)) - mu x0||_H1 is reported.  The sign convention
    makes the V-gradient align with +x0 at a boundary maximizer.
    """
    grid = model.grid
    rng = np.random.default_rng(config.seed)
    model.actuator_family.check(design_fixed)

    def ascend(x0_init: np.ndarray, label: str) -> dict:
        x0 = project_V_ball(x0_init, sets.r2, grid)
        bundle, traj, p = compute_bundle(model, u_fixed, design_fixed, x0, weights, tg)
        alpha = config.step0
        for it in range(config.max_iters + 1):
            g_v = bundle.grad_x0  # H1 representer of dJ/dx0 (= 2 * riesz(p0))
            riesz_p0 = 0.5 * g_v
            norm_x0 = h1_norm(x0, grid)
            norm_p0 = h1_norm(riesz_p0, grid)
            active = norm_x0 >= sets.r2 * (1 - 1e-9)
            mu = norm_p0 / sets.r2 if active else 0.0
            kkt = h1_norm(riesz_p0 - mu * x0, grid)
            if kkt <= 1e-5 * max(norm_p0, 1e-300):
                stop = "kkt residual below tolerance"
                break
            if it == config.max_iters:
                stop = "max iterations reached"
                break
            accepted = False
            alpha = min(alpha * 2.0, 1e8)
            while alpha >= config.min_step:
                x_trial = project_V_ball(x0 + alpha * g_v, sets.r2, grid)
                pred = inner_product(bundle.grad_x0_l2, x_trial - x0, grid)
                if pred <= 0:
                    break
                try:
                    traj_trial = solve_forward(model, u_fixed, design_fixed, x_trial, tg)
                except BlowUpError:
                    alpha *= config.backtrack
                    continue
                cost_trial = evaluate_cost(traj_trial, u_fixed, weights, grid)
                if cost_trial >= bundle.cost + config.armijo_c1 * pred:
                    x0 = x_trial
                    accepted = True
                    break
                alpha *= config.backtrack
            if not accepted:
                stop = "no acceptable ascent step"
                break
            bundle, traj, p = compute_bundle(model, u_fixed, design_fixed, x0, weights, tg)
        return {
            "label": label, "x0": x0, "cost": bundle.cost, "mu": mu,
            "kkt_residual": kkt, "x0_h1_norm": norm_x0, "active": active,
            "iterations": it + 1, "stop": stop,
        }

    report = WorstIcReport()
    starts = []
    smooth = np.ones(grid.size)
    starts.append((smooth, "smooth"))
    for s in range(max(config.multi_start - 1, 0)):
        starts.append((rng.standard_normal(grid.size), f"random-{s}"))
    for x0_init, label in starts:
        report.starts.append(ascend(x0_init, label))
    costs = [s["cost"] for s in report.starts]
    report.best_start = int(np.argmax(costs))
    best = report.best
    report.converged = best["stop"] == "kkt residual below tolerance"
    return best["x0"], best["mu"], report
