"""Projected-gradient optimization of (u, r), the worst initial condition by
Lanczos or by ascent, and first-order optimality residuals.

The projections are exact in the geometry each variable lives in: the input
radially onto its ball in the trapezoid L2(0,tau) norm, the design
componentwise in its box, and the initial condition radially in the discrete
H1 norm.  One Armijo backtracking search serves both problems, with the
projection-arc sufficient-decrease test at ARMIJO_C1 = 1e-4 and a step halved
(BACKTRACK = 0.5) on each rejection; the worst-initial-condition ascent is a
descent on -J.  A forward blow-up at a trial point counts as a backtrack, and
the search stops below an input step of MIN_STEP = 1e-14.

The joint descent steps each block by its own length, and one search scales
both by the same factor.  grad_u = 2 (rho u + B* p) in the trapezoid L2
pairing, so the input block's first step is 1/(2 rho), which moves u to
-B* p / rho, at most MAX_STEP = 1e6; that is also its cap.  The design block
takes the input block's step until an accepted step has moved the design.
After each acceptance a block takes the spectral (Barzilai-Borwein) step
<s,s>/<s,y> of its last move s and gradient change y, in the trapezoid
pairing for u and the Euclidean one for r, at most its cap (MAX_STEP for
r).  A block with <s,y> <= 0 doubles its step after an acceptance that
needed no backtrack and keeps the backtracked step otherwise.  This is the
projected spectral gradient method with a monotone search (Birgin, Martinez
& Raydan, SIAM J. Optim. 10 (2000)), so accepted costs never increase.

The worst initial condition takes one of two paths.  With u = 0 a linear
model's cost is the quadratic form J(x0) = <x0, L x0>, L x0 = p(0), so its
maximizer on the H1 ball is the top generalized eigenvector of (L, K), K
the discrete H1 operator, scaled to the ball's radius.  That path finds it
by Lanczos on the H1-whitened map x0 -> p(0) (Golub & Van Loan, Matrix
Computations, 4th ed., sec. 10.1), one forward and one adjoint solve per
product, with no line search.  A nonlinear model, or a linear one under a
fixed u != 0 (whose cost has a linear term in x0), takes the multi-start
projected ascent.  The ascent starts at its cap, MAX_ASCENT_STEP = 1e8, and
each later search at twice the last accepted step, at most the cap.  It
forms the H1 gradient itself, by the H1 Riesz map of the bundle's L2
gradient 2 p(0).  On a linear model the cost is a convex quadratic in x0,
so J(y) >= J(x) + <grad J, y - x>: every trial with a positive predicted
gain passes the sufficient-increase test, and the first trial, projected,
is the ball's boundary point along the H1 gradient.  On a nonconvex model
the search pays its backtracks once per start and then adapts.

``tol`` stops both problems.  The joint descent stops when the absolute
residuals res_u and res_r and the design displacement
||r - P_K(r - alpha_r grad_r J)|| at the design block's current step
alpha_r are all below it; the last bounds the design move that the
curvature estimate still predicts (Kelley, Iterative Methods for
Optimization, ch. 5), where a small design gradient alone would not.  The
input-only problem stops on res_u.  Both worst-initial-condition paths
stop when the KKT residual is below ``tol``, relative to ||riesz p(0)||_H1;
Lanczos stops its products when the top Ritz residual is below ``tol``
relative to the Ritz value, which bounds that KKT residual up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import CostWeights, GradientBundle, compute_bundle, evaluate_cost
from .exceptions import BlowUpError
from .forward import ControlSignal, TimeGrid, Trajectory, energy_margin, solve_forward
from .grids import h1_norm, h1_riesz_map, inner_product, top_eigenvector
from .models import ActuatorDesign, ActuatorFamily, ModelSpec


ARMIJO_C1 = 1e-4  # sufficient-decrease share of the predicted change
BACKTRACK = 0.5  # step factor after a rejected trial
MAX_STEP = 1e6  # the joint descent's largest step on either block
MIN_STEP = 1e-14  # the Armijo search gives up below this step
MAX_ASCENT_STEP = 1e8  # the worst-IC ascent's first and largest trial step


@dataclass(frozen=True)
class AdmissibleSets:
    """Input ball, design set, and H1 ball for x0."""

    family: ActuatorFamily
    r1: float = 10.0
    r2: float = 1.0

    def __post_init__(self):
        if self.r1 <= 0 or self.r2 <= 0:
            raise ValueError("ball radii R1 and R2 must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    tol: float = 1e-5
    seed: int = 0
    multi_start: int = 5

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("stopping tolerance must be positive")
        if self.max_iters < 0:
            raise ValueError("iteration cap must be nonnegative")


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

    ``traj`` and ``residuals`` are the forward solution and the optimality
    residuals at the returned iterate (not written by ``to_csv``).  The
    costate is not kept: a reader that needs it solves the adjoint along
    ``traj``.
    """

    iterations: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    traj: Trajectory | None = field(default=None, repr=False)
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
        return self.iterations[-1]

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
    """Radial projection onto the R1 ball in the trapezoid norm."""
    norm = u.time_grid.norm(u.values)
    if not norm > sets.r1:
        return u
    return ControlSignal(time_grid=u.time_grid, values=u.values * (sets.r1 / norm))


def project_V_ball(x0: np.ndarray, r2: float, grid) -> np.ndarray:
    """Radial projection onto the discrete H1 ball of radius r2.

    A point whose squared H1 norm overflows (a long ascent trial on a wide
    ball) is first scaled by a power of two to a largest entry below 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = h1_norm(x0, grid)
    if norm <= r2:
        return x0
    if not np.isfinite(norm):
        x0 = np.ldexp(x0, -np.frexp(np.max(np.abs(x0)))[1])
        norm = h1_norm(x0, grid)
    return x0 * (r2 / norm)


def optimality_residuals(bundle: GradientBundle, u: ControlSignal,
                         design: ActuatorDesign, sets: AdmissibleSets) -> Residuals:
    """res_u = ||rho u + B* p|| and res_r = |int (B'_r u)* p dt| at the point
    (u, design) whose gradients ``bundle`` holds, after projecting the
    steepest-descent direction onto the tangent cones."""
    tg = u.time_grid
    # input residual: v = rho*u + B*p, direction d = -v restricted to feasible moves
    d = -0.5 * bundle.grad_u
    active_tol = 1e-8
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
    params, lower, upper = design.params, sets.family.lower, sets.family.upper
    hi_active = np.abs(params - upper) <= active_tol * np.maximum(1.0, np.abs(upper))
    lo_active = np.abs(params - lower) <= active_tol * np.maximum(1.0, np.abs(lower))
    d_r[hi_active & (d_r > 0)] = 0.0
    d_r[lo_active & (d_r < 0)] = 0.0
    res_r = float(np.linalg.norm(d_r))
    return Residuals(res_u=res_u, res_r=res_r, u_active=u_active,
                     r_active=(lo_active | hi_active))


def _armijo_search(trial, cost_at, cost: float, alpha: float):
    """Projection-arc Armijo backtracking from step ``alpha``.

    ``trial(step)`` gives the projected trial point and its predicted
    decrease, and ``cost_at(point)`` the cost there, to be decreased below
    ``cost``.  A trial whose forward solve blows up is a rejected step.
    Returns the accepted point, or None when the predicted decrease vanishes
    or the step falls below MIN_STEP, and the step the search ended at.
    """
    while alpha >= MIN_STEP:
        point, pred = trial(alpha)
        if pred <= 0:
            break  # the projection moved nowhere useful: stationary
        try:
            if cost_at(point) <= cost - ARMIJO_C1 * pred:
                return point, alpha
        except BlowUpError:
            pass
        alpha *= BACKTRACK
    return None, alpha


def _next_step(ss: float, sy: float, step: float, clean: bool, cap: float) -> float:
    """A block's next trial step after accepting ``step``: the spectral step
    <s,s>/<s,y> when the curvature <s,y> is positive, else twice ``step``
    after an acceptance that needed no backtrack and ``step`` itself after
    one that did; at most ``cap``."""
    if sy > 0:
        return min(ss / sy, cap)
    return min(2.0 * step, cap) if clean else step


def minimize_joint(model: ModelSpec, sets: AdmissibleSets, weights: CostWeights,
                   x0: np.ndarray, tg: TimeGrid, config: OptimizerConfig,
                   optimize_design: bool = True,
                   initial_design: ActuatorDesign | None = None
                   ) -> tuple[ControlSignal, ActuatorDesign, CostReport]:
    """Projected gradient with Armijo backtracking on the joint variable (u, r).

    Starts from u = 0 and the family's reference design unless an explicit
    starting design is given, which the first solve checks, not clips, like
    every design.  With ``optimize_design=False`` the design block stays
    frozen at that start and only u moves (the input-only problem).
    Persistent blow-up during backtracking aborts with the diagnostic
    recorded in the report, which also carries the forward solution at the
    returned iterate.  Whatever ends the run, the report's last row is that
    iterate.  One trajectory lives between iterations and two at most: the
    current one beside a trial, or the new one beside its costate.
    """
    u = ControlSignal.zero(tg)
    design = initial_design if initial_design is not None \
        else model.actuator_family.initial_design()
    report = CostReport()

    bundle, traj = compute_bundle(model, u, design, x0, weights, tg)
    cap_u = min(0.5 / weights.r_scale, MAX_STEP)
    alpha_u, alpha_r = cap_u, None  # alpha_r follows alpha_u until a design secant
    for it in range(config.max_iters + 1):
        res = optimality_residuals(bundle, u, design, sets)
        step_r = alpha_u if alpha_r is None else alpha_r
        report.append(iter=it, cost=bundle.cost,
                      grad_u_norm=tg.norm(bundle.grad_u),
                      grad_r_norm=float(np.linalg.norm(bundle.grad_r)),
                      step=alpha_u, res_u=res.res_u, res_r=res.res_r,
                      margin=energy_margin(model, traj, u, design))
        stationarity = res.res_u
        if optimize_design:
            # the design displacement the curvature estimate predicts
            moved = design.params - sets.family.project(design.params
                                                        - step_r * bundle.grad_r)
            stationarity = max(stationarity, res.res_r, float(np.linalg.norm(moved)))
        if stationarity <= config.tol:
            report.converged = True
            report.stop_reason = "residuals below tolerance"
            break
        if it == config.max_iters:
            report.stop_reason = "max iterations reached"
            break

        def trial(step):
            u_trial = project_U(ControlSignal(tg, u.values - step * bundle.grad_u), sets)
            d_trial = ActuatorDesign(sets.family.project(
                design.params - step_r * (step / alpha_u) * bundle.grad_r)) \
                if optimize_design else design
            pred = tg.inner(bundle.grad_u, u.values - u_trial.values) \
                + float(np.dot(bundle.grad_r, design.params - d_trial.params))
            return (u_trial, d_trial), pred

        def cost_at(point):
            u_trial, d_trial = point
            return evaluate_cost(solve_forward(model, u_trial, d_trial, x0, tg),
                                 u_trial, weights, model.grid)

        point, step = _armijo_search(trial, cost_at, bundle.cost, alpha_u)
        if point is None:
            report.stop_reason = "no acceptable step (projection stationary or blow-up)"
            break
        shrink, last = step / alpha_u, bundle  # the search's factor on both blocks
        s_u, s_r = point[0].values - u.values, point[1].params - design.params
        u, design = point
        del traj  # the old iterate's trajectory goes before the new one is solved
        bundle, traj = compute_bundle(model, u, design, x0, weights, tg)
        y_u, y_r = bundle.grad_u - last.grad_u, bundle.grad_r - last.grad_r
        alpha_u = _next_step(tg.inner(s_u, s_u), tg.inner(s_u, y_u), step,
                             shrink == 1.0, cap_u)
        if alpha_r is not None or np.any(s_r):
            alpha_r = _next_step(float(s_r @ s_r), float(s_r @ y_r), step_r * shrink,
                                 shrink == 1.0, MAX_STEP)
    report.traj, report.residuals = traj, res
    return u, design, report


def golden_section_r(model: ModelSpec, sets: AdmissibleSets, weights: CostWeights,
                     x0: np.ndarray, tg: TimeGrid, config: OptimizerConfig,
                     tol: float = 1e-3) -> tuple[float, float]:
    """Derivative-free cross-check for the scalar KS location: golden-section
    on r with an inner input-only solve.  Returns (r, cost)."""
    family = model.actuator_family
    if family.design_dim != 1:
        raise ValueError("golden-section fallback applies to scalar designs")

    def inner_cost_at(r: float) -> float:
        _, _, rep = minimize_joint(model, sets, weights, x0, tg, config,
                                   optimize_design=False,
                                   initial_design=ActuatorDesign.of(r))
        return rep.final["cost"]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(family.lower[0]), float(family.upper[0])
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
    """Worst-initial-condition diagnostics: one record per ascent start, or
    the one "lanczos" record of a linear model's eigensolve."""

    starts: list = field(default_factory=list)
    best_start: int = -1
    converged: bool = False

    @property
    def best(self) -> dict:
        return self.starts[self.best_start]


def _fix_sign(x0: np.ndarray, tol: float) -> np.ndarray:
    """x0 or -x0, whichever has <x0, 1> > 0; where that sum is at most
    ``tol`` times sum |x0_i| (zero within the vector's accuracy), whichever
    has its first largest-magnitude entry positive."""
    total = float(np.sum(x0))
    if abs(total) <= tol * float(np.sum(np.abs(x0))):
        total = float(x0[np.argmax(np.abs(x0))])
    return -x0 if total < 0 else x0


def worst_initial_condition(model: ModelSpec, u_fixed: ControlSignal,
                            design_fixed: ActuatorDesign, sets: AdmissibleSets,
                            weights: CostWeights, tg: TimeGrid,
                            config: OptimizerConfig
                            ) -> tuple[np.ndarray, float, WorstIcReport]:
    """The maximizer of the cost over the H1 ball of radius R2.

    On a linear model with u = 0 the cost is the quadratic form
    J(x0) = <x0, L x0> with L x0 = p(0), and its maximizer is the ball's
    boundary point along the top generalized eigenvector of (L, K), K the
    discrete H1 operator.  With K = V_K diag(k) V_K^T and x0 = V_K k^-1/2 y,
    that is the top eigenvector of the symmetric map y -> k^-1/2 V_K^T
    grad_x0, found by ``top_eigenvector`` from a ``config.seed`` start, to
    ``config.tol`` and in at most ``config.max_iters`` products, each one
    gradient bundle.  Its sign is fixed by ``_fix_sign``, so the answer does
    not depend on the start.  The report holds one "lanczos" record, whose
    ``iterations`` counts the products and the bundle at the answer.  Where
    the KKT test fails there, it stops with the ascent's "max iterations
    reached" at the cap and "no acceptable ascent step" otherwise (rounding
    holds the residual above a tolerance near machine precision).

    Elsewhere (a nonlinear model, or u != 0, where the cost has a linear
    term) it is projected gradient ascent from ``config.multi_start``
    starts, the smooth one and then random ones, each along the H1 Riesz
    representer of the x0-derivative.

    Both report the multiplier from the active-constraint identity
    mu = ||riesz(p(0))||_V / R2 (mu = 0 at interior points) and the KKT
    residual ||riesz(p(0)) - mu x0||_H1, and stop on it below ``config.tol``
    relative to ||riesz(p(0))||_V.  The sign convention makes the
    V-gradient align with +x0 at a boundary maximizer.  Every forward solve
    of the call, trial or bundle, writes its trajectory into one
    (nt+1) x n buffer and every costate into a second, both made once.
    """
    grid = model.grid
    rng = np.random.default_rng(config.seed)
    buffers = (np.empty((tg.nt + 1, grid.size)), np.empty((tg.nt + 1, grid.size)))

    def bundle_at(x0: np.ndarray):
        return compute_bundle(model, u_fixed, design_fixed, x0, weights, tg, out=buffers)[0]

    def kkt_at(x0: np.ndarray, bundle) -> tuple[np.ndarray, dict, bool]:
        """The H1 gradient at x0, its record, and whether the KKT test holds."""
        g_v = h1_riesz_map(bundle.grad_x0, grid)  # H1 representer of dJ/dx0
        riesz_p0 = 0.5 * g_v
        norm_x0 = h1_norm(x0, grid)
        norm_p0 = h1_norm(riesz_p0, grid)
        active = norm_x0 >= sets.r2 * (1 - 1e-9)
        mu = norm_p0 / sets.r2 if active else 0.0
        kkt = h1_norm(riesz_p0 - mu * x0, grid)
        record = {"x0": x0, "cost": bundle.cost, "mu": mu, "kkt_residual": kkt,
                  "x0_h1_norm": norm_x0, "active": active}
        return g_v, record, kkt <= config.tol * max(norm_p0, 1e-300)

    def lanczos() -> dict:
        k_basis = grid.h1.basis
        k_isqrt = 1.0 / np.sqrt(k_basis.values)

        def whitened(y: np.ndarray) -> np.ndarray:
            grad = bundle_at(k_basis.from_modal(k_isqrt * y)).grad_x0
            return k_isqrt * k_basis.to_modal(grad)

        y, products, ended = top_eigenvector(whitened, rng.standard_normal(grid.size),
                                             config.tol, config.max_iters)
        x0 = k_basis.from_modal(k_isqrt * y)
        x0 = _fix_sign(x0 * (sets.r2 / h1_norm(x0, grid)), config.tol)
        _, record, done = kkt_at(x0, bundle_at(x0))
        stop = "kkt residual below tolerance" if done else \
            "no acceptable ascent step" if ended else "max iterations reached"
        return {"label": "lanczos", **record, "iterations": products + 1, "stop": stop}

    def ascend(x0_init: np.ndarray, label: str) -> dict:
        x0 = project_V_ball(x0_init, sets.r2, grid)
        bundle = bundle_at(x0)
        alpha = MAX_ASCENT_STEP
        for it in range(config.max_iters + 1):
            g_v, record, done = kkt_at(x0, bundle)
            if done:
                stop = "kkt residual below tolerance"
                break
            if it == config.max_iters:
                stop = "max iterations reached"
                break

            def trial(step):
                x_trial = project_V_ball(x0 + step * g_v, sets.r2, grid)
                return x_trial, inner_product(bundle.grad_x0, x_trial - x0, grid)

            def neg_cost_at(x_trial):
                return -evaluate_cost(
                    solve_forward(model, u_fixed, design_fixed, x_trial, tg, out=buffers[0]),
                    u_fixed, weights, grid)

            # ascent of J is descent of -J: each search starts at twice the
            # last accepted step, at most MAX_ASCENT_STEP
            point, alpha = _armijo_search(trial, neg_cost_at, -bundle.cost,
                                          min(alpha * 2.0, MAX_ASCENT_STEP))
            if point is None:
                stop = "no acceptable ascent step"
                break
            x0 = point
            bundle = bundle_at(x0)
        return {"label": label, **record, "iterations": it + 1, "stop": stop}

    report = WorstIcReport()
    if model.is_linear and not np.any(u_fixed.values):
        report.starts.append(lanczos())
    else:
        starts = [(np.ones(grid.size), "smooth")]
        for s in range(max(config.multi_start - 1, 0)):
            starts.append((rng.standard_normal(grid.size), f"random-{s}"))
        for x0_init, label in starts:
            report.starts.append(ascend(x0_init, label))
    report.best_start = int(np.argmax([s["cost"] for s in report.starts]))
    best = report.best
    report.converged = best["stop"] == "kkt residual below tolerance"
    return best["x0"], best["mu"], report
