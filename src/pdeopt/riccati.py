"""Differential Riccati validation layer for the linearized models.

The matrix Riccati equation (backward, terminal value zero)

    dPi/dt = -Pi A - A* Pi - Q + Pi B R^{-1} B* Pi,   Pi(tau) = 0,

is integrated by Strang splitting with each part solved exactly (Hansen &
Stillfjord, SIAM J. Numer. Anal. 52 (2014) 3128-3139), in the orthonormal
eigenbasis of the (symmetric) discrete A.  There the Lyapunov part
Pi A + A* Pi + Q is elementwise, and the quadratic part, rank one for a
scalar input, has a closed form.  Both maps take PSD matrices to PSD
matrices, and a step needs no inner iteration.  The splitting error grows
with a = h s b^T Pi b (h the step, s = w/rho), so a step with a > 1 is
refused (StepSizeError).  A non-finite value raises, and Pi must pass a PSD
test every few steps.

For a stable A the Lyapunov flow from Pi(tau) = 0 keeps a diagonal D and
maps each rank-one term to a rank-one term, so Pi = D - Z Z^T holds exactly:
Z gains one column per step and is compressed every COMPRESS_EVERY steps
through the eigendecomposition of its Gram matrix (Stillfjord, IEEE Trans.
Automat. Control 60 (2015) 2791-2796), and a step costs O(n r) for rank r.
For an unstable A, D grows like e^{2 lambda_max t} and D - Z Z^T cancels
(on linear KS at lambda = 60, 800 steps, it is 7.6e-8 off the dense Pi
after 100 steps and indefinite by step 150), so Pi is kept as a dense
matrix there.  The low-rank Pi(0) is formed as an n x n matrix only when
it is read; the worst-IC eigen check needs only its products.

Adjoint pairing uses the uniform quadrature weight w of the grid, so with
scalar input the matrix form of B R^{-1} B* is (w/rho) b b^T, and the feedback
law reads u(t) = -(w/rho) b^T Pi(t) x(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adjoint import CostWeights, solve_adjoint
from .exceptions import PdeoptError, StepSizeError
from .forward import TimeGrid, Trajectory, cn_ab2_sweep
from .grids import (LinearOperator, SpectralBasis, h1_inner, h1_norm, inner_product,
                    top_eigenvector)
from .models import ActuatorDesign, ModelSpec
from .optimize import AdmissibleSets, OptimizerConfig, minimize_joint

COMPRESS_EVERY = 10  # steps between compressions of the low-rank factor
RANK_TOL = 1e-16  # Gram eigenvalues below this share of the largest are dropped
PSD_TOL = 1e-8  # Pi + delta I must be positive definite, delta = PSD_TOL max_i Pi_ii
LANCZOS_TOL = 1e-15  # the eigen check's Ritz residual norm, relative to its eigenvalue


@dataclass(frozen=True)
class RiccatiSolution:
    """What the sweep keeps of Pi(t_k): Pi(0) in the storage the sweep left
    it in, the feedback gains, and optionally Pi(t_k) x_k along a given
    trajectory.

    ``spectral`` is A's ``SpectralBasis`` and ``storage`` holds Pi-tilde(0)
    in it (``_LowRankPi`` or ``_DensePi``): ``storage.times(xi)`` is
    Pi-tilde(0) xi, with no n x n array.  ``pib[k]`` is the modal
    Pi-tilde(t_k) b-tilde and ``s_scale`` is w/rho.  ``modal``, the list of
    n x n matrices kept in A's basis (only Pi-tilde(0)), and ``gains``, with
    ``gains[k]`` = g_k = (w/rho) Pi(t_k) b so that the feedback law reads
    u_k = -<g_k, x_k>, are formed on first read.  ``along[k]`` is
    Pi(t_k) X[k] for the trajectory X passed as ``along=`` (None without one).
    """

    spectral: SpectralBasis = field(repr=False)
    storage: object = field(repr=False)
    b_vec: np.ndarray = field(repr=False)
    pib: np.ndarray = field(repr=False)
    s_scale: float
    along: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def modal(self) -> list:
        return [self.storage.modal()]

    @cached_property
    def gains(self) -> np.ndarray:
        return self.s_scale * self.spectral.from_modal(self.pib)

    @property
    def basis(self) -> np.ndarray:
        """The dense n x n eigenvector matrix V, formed on each call."""
        return self.spectral.matrix

    @property
    def pi0(self) -> np.ndarray:
        """The nodal Pi(0) = V Pi-tilde(0) V^T: ``from_modal`` on the rows of
        Pi-tilde(0), then on those of the result's transpose V Pi-tilde(0),
        written over it; V is never formed, and two n x n arrays at most
        besides Pi-tilde(0)."""
        pi = self.spectral.from_modal(self.modal[0])
        return self.spectral.from_modal(pi.T, out=pi)

    def pi0_to_csv(self, path) -> None:
        np.savetxt(path, self.pi0, fmt="%.16e", delimiter=",", comments="")


def _not_finite() -> PdeoptError:
    return PdeoptError("Riccati iterate is not finite")


def _indefinite(pi: np.ndarray) -> PdeoptError:
    return PdeoptError("Pi lost positive semidefiniteness "
                       f"(min eig {np.linalg.eigvalsh(pi)[0]:.2e})")


class _LowRankPi:
    """Modal Pi = diag(d) - Z Z^T for a stable A.  Z^T is kept row by row in
    a buffer that doubles when full; ``grow`` and ``source`` are the half
    Lyapunov step's factor e^{lambda h/2} and diagonal source."""

    def __init__(self, grow: np.ndarray, source: np.ndarray):
        n = grow.size
        self.grow, self.grow_sq, self.source = grow, grow * grow, source
        self.d = np.zeros(n)
        self.zt = np.empty((2 * COMPRESS_EVERY, n))
        self.rank = 0

    def half_lyapunov(self) -> None:
        self.d *= self.grow_sq
        self.d += self.source
        self.zt[:self.rank] *= self.grow

    def times(self, v: np.ndarray) -> np.ndarray:
        zt = self.zt[:self.rank]
        return self.d * v - (zt @ v) @ zt

    def downdate(self, beta: float, y: np.ndarray) -> None:
        """Pi <- Pi - beta y y^T: one more column sqrt(beta) y of Z."""
        if self.rank == len(self.zt):
            self.zt = np.concatenate((self.zt, np.empty_like(self.zt)))
        np.multiply(y, math.sqrt(beta), out=self.zt[self.rank])
        self.rank += 1

    def compress(self) -> None:
        """Z <- Z U over the eigenvectors U of the Gram matrix Z^T Z whose
        eigenvalues are at least RANK_TOL times the largest: Z U U^T Z^T
        keeps all of Z Z^T but a share RANK_TOL of its norm."""
        zt = self.zt[:self.rank]
        evs, u = np.linalg.eigh(zt @ zt.T)
        kept = u[:, evs > RANK_TOL * evs[-1]]
        self.rank = kept.shape[1]
        self.zt[:self.rank] = kept.T @ zt

    def check_psd(self) -> None:
        """PSD test of ``_DensePi.check_psd`` on r x r: with D_delta =
        D + delta I > 0, Pi + delta I = D_delta - Z Z^T is positive definite
        exactly when I - Z^T D_delta^{-1} Z is (a Schur complement).  As
        delta >= 1e-300, D_delta > 0 also where D is zero or subnormal;
        scaling Z by D_delta^{-1/2} keeps the r x r matrix exactly
        symmetric."""
        zt = self.zt[:self.rank]
        if not (np.all(np.isfinite(self.d)) and np.all(np.isfinite(zt))):
            raise _not_finite()
        diag = self.d - np.einsum("ij,ij->j", zt, zt)
        delta = max(PSD_TOL * float(diag.max()), 1e-300)
        w = zt / np.sqrt(self.d + delta)
        try:
            np.linalg.cholesky(np.eye(self.rank) - w @ w.T)
        except np.linalg.LinAlgError:
            raise _indefinite(self.modal()) from None

    def finish(self) -> None:
        """The sweep is over: keep Z^T's rows and not the buffer's slack."""
        self.zt = self.zt[:self.rank].copy()

    def modal(self) -> np.ndarray:
        """The n x n Pi-tilde, formed in one array."""
        zt = self.zt[:self.rank]
        pi = np.matmul(zt.T, zt)  # exactly symmetric (a rank-r update)
        np.negative(pi, out=pi)
        pi.reshape(-1)[::pi.shape[0] + 1] += self.d
        return pi


class _DensePi:
    """Modal Pi as an n x n matrix, for an A with a positive eigenvalue;
    the same maps as ``_LowRankPi``."""

    def __init__(self, grow: np.ndarray, source: np.ndarray):
        n = grow.size
        self.grow, self.source = grow, source
        self.pi, self.scratch = np.zeros((n, n)), np.empty((n, n))
        self.diag = self.pi.reshape(-1)[::n + 1]  # a view of the diagonal

    def half_lyapunov(self) -> None:
        # one product g_i g_j = g_j g_i per entry, and u_i u_j = u_j u_i in
        # the downdate, so Pi stays exactly symmetric
        self.pi *= np.multiply.outer(self.grow, self.grow, out=self.scratch)
        self.diag += self.source

    def times(self, v: np.ndarray) -> np.ndarray:
        return self.pi @ v

    def downdate(self, beta: float, y: np.ndarray) -> None:
        u = math.sqrt(beta) * y
        self.pi -= np.multiply.outer(u, u, out=self.scratch)

    def compress(self) -> None:
        pass

    def check_psd(self) -> None:
        """Pi is PSD up to the tolerance if the Cholesky factorization of
        Pi + delta I succeeds, delta = PSD_TOL max_i Pi_ii: it succeeds only
        if lambda_min > -delta >= -PSD_TOL lambda_max (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., sec. 10.1)."""
        if not np.all(np.isfinite(self.pi)):
            raise _not_finite()
        saved = self.diag.copy()
        self.diag += max(PSD_TOL * float(saved.max()), 1e-300)
        try:
            np.linalg.cholesky(self.pi)
        except np.linalg.LinAlgError:
            self.diag[:] = saved
            raise _indefinite(self.pi) from None
        self.diag[:] = saved

    def finish(self) -> None:
        """The sweep is over: drop the scratch array."""
        self.scratch = None

    def modal(self) -> np.ndarray:
        return self.pi


def _steps_needed(a: float, nt: int, dt: float, lam_max: float) -> int | float:
    """Steps over the horizon nt dt that keep a refused step's a <= 1.

    a = h s b^T Pi b is about linear in h while Pi stays as it is, so nt a
    steps do for the refused step.  On an unstable operator Pi grows on
    towards the split sweep's fixed point, where a = e^{2 lam_max h} - 1, so
    it needs h <= ln 2 / (2 lam_max) as well.  A count beyond float64 is
    returned as inf.
    """
    need = nt * a
    if lam_max > 0.0:
        need = max(need, 2.0 * lam_max * nt * dt / math.log(2.0))
    return math.ceil(need) if math.isfinite(need) else need


def solve_differential_riccati(a_op: LinearOperator, b_vec: np.ndarray,
                               weights: CostWeights, tg: TimeGrid,
                               state_weight: float = 1.0,
                               check_every: int = 1,
                               along: np.ndarray | None = None) -> RiccatiSolution:
    """Backward Strang-split sweep in A's eigenbasis over the nt steps of h = dt.

    One step from Pi_{k+1} to Pi_k is a half Lyapunov step, the exact
    rank-one step, and a second half Lyapunov step:

    - half Lyapunov: Pi_ij <- e^{(lam_i + lam_j) h/2} Pi_ij, plus
      q expm1(lam_i h) / (2 lam_i) on the diagonal (q h/2 where lam_i = 0),
      the exact flow of dPi/ds = Lam Pi + Pi Lam + q I over h/2;
    - rank one: Pi <- Pi - beta y y^T with y = Pi b, a = h s b^T y and
      beta = h s / (1 + a), the exact flow of dPi/ds = -s Pi b b^T Pi
      over h (Sherman-Morrison).

    s = w/rho, with w = ``state_weight`` the quadrature weight of the grid
    carrying b_vec (1.0 for a plain ODE system).  With ``along``, an
    (nt+1) x n trajectory X, the solution also carries Pi(t_k) X[k].

    A step with a > 1, or whose e^{lam_max h} overflows, raises
    StepSizeError (the caller names the field that sets the step).  A
    non-finite y raises PdeoptError, and so does a Pi that fails the PSD
    test, run every ``check_every`` steps and at the last; the low-rank
    storage is compressed every COMPRESS_EVERY steps.
    """
    basis = a_op.basis
    lam, nt, dt = basis.values, tg.nt, tg.dt
    lam_max, s_scale = float(lam.max()), state_weight / weights.r_scale
    h_s, b_modal = dt * s_scale, basis.to_modal(b_vec)
    along_modal = None if along is None else basis.to_modal(along)
    pib = np.zeros((nt + 1, lam.size))  # Pi(tau) = 0 leaves row nt zero
    pix = None if along is None else np.zeros((nt + 1, lam.size))
    # non-finite values are tested for and reported once, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.exp(dt * lam_max)):
            raise StepSizeError(f"a Riccati step has lambda_max h = {dt * lam_max:.3g}, whose "
                                "exponential overflows float64; take at least about "
                                f"{_steps_needed(0.0, nt, dt, lam_max):.3g} steps")
        grow = np.exp(0.5 * dt * lam)
        source = np.full(lam.size, 0.5 * dt)
        moving = lam != 0.0
        source[moving] = np.expm1(dt * lam[moving]) / (2.0 * lam[moving])
        source *= weights.q_scale
        pi = (_LowRankPi if lam_max <= 0.0 else _DensePi)(grow, source)
        for m in range(nt):
            k = nt - m - 1
            pi.half_lyapunov()
            y = pi.times(b_modal)
            a = h_s * float(b_modal @ y)
            if not math.isfinite(a):
                raise _not_finite()
            if a > 1.0:
                raise StepSizeError(f"a Riccati step has h s b^T Pi b = {a:.3g} > 1, where "
                                    "the splitting error grows; take at least about "
                                    f"{_steps_needed(a, nt, dt, lam_max)} steps")
            pi.downdate(h_s / (1.0 + a), y)
            pi.half_lyapunov()
            pib[k] = pi.times(b_modal)
            if pix is not None:
                pix[k] = pi.times(along_modal[k])
            if (m + 1) % check_every == 0 or k == 0:
                pi.check_psd()
            if (m + 1) % COMPRESS_EVERY == 0:
                pi.compress()
    pi.finish()
    return RiccatiSolution(spectral=basis, storage=pi, b_vec=b_vec, pib=pib,
                           s_scale=s_scale,
                           along=None if pix is None else basis.from_modal(pix))


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
    The optimizer keeps no costate, so p is solved here along the
    optimum's trajectory: the same bits as the optimizer's last adjoint.
    The comparison aligns the two time conventions: the CN-AB2 stepper with a
    trapezoid cost pairs the input u_j with the adjoint extrapolated to the
    half-step and applies the cost source with a half-step lag, so p_k is
    compared against Pi(t_k) (x_{k-1}+x_k)/2 and the feedback control against
    the midpoint gain acting on the node state.  The check is inconclusive,
    with the reason, where the input-only solve did not converge, or where
    the input ball binds at the optimum (``Residuals.u_active``: the descent
    direction points out of the ball).  The feedback law holds wherever the
    ball's multiplier is zero, also at an optimum that only touches it.
    """
    if not model.is_linear:
        raise ValueError("verify_feedback_consistency requires the linearized model")
    grid = model.grid
    cfg = OptimizerConfig(tol=1e-7, max_iters=5000)

    u_opt, _, report = minimize_joint(model, sets, weights, x0, tg, cfg,
                                      optimize_design=False, initial_design=design)
    traj_opt = report.traj
    # p = Pi x along the optimizer's own trajectory (x at the half-lagged sample)
    x_lag = traj_opt.states.copy()
    x_lag[1:] = 0.5 * (traj_opt.states[:-1] + traj_opt.states[1:])
    ric = solve_differential_riccati(model.linear_op,
                                     model.actuator_family.evaluate(design, grid),
                                     weights, tg, state_weight=grid.weight,
                                     check_every=check_every, along=x_lag)
    if not report.converged or report.residuals.u_active:
        reason = "input constraint active at optimum" if report.converged \
            else f"input-only solve did not converge: {report.stop_reason}"
        return FeedbackCheck(discrepancy=np.inf, inconclusive=True,
                             parts={"reason": reason}, riccati=ric)

    traj_ric, _ = closed_loop_simulate(model, ric, x0, tg)

    def sup_norm(rows):  # max over t of the row's L2 norm
        return max(np.sqrt(inner_product(v, v, grid)) for v in rows)

    # state comparison at node times
    e_state = sup_norm(traj_opt.states - traj_ric.states) \
        / max(sup_norm(traj_ric.states), 1e-300)
    pix = ric.along
    p_opt = solve_adjoint(model, traj_opt, weights, tg)  # the optimum's costate
    e_adj = sup_norm(p_opt.states[1:] - pix[1:]) / max(sup_norm(pix), 1e-300)

    # control comparison: midpoint gain on the node state
    g_mid = 0.5 * (ric.gains[:-1] + ric.gains[1:])
    u_ric_cmp = -np.einsum("kn,kn->k", g_mid, traj_ric.states[:-1])
    du = u_opt.values[:tg.nt] - u_ric_cmp
    denom_u = max(np.sqrt(tg.dt * np.sum(u_ric_cmp**2)), 1e-300)
    e_ctrl = np.sqrt(tg.dt * np.sum(du**2)) / denom_u

    parts = {"state": float(e_state), "adjoint": float(e_adj), "control": float(e_ctrl),
             "optimizer_converged": report.converged, "u_norm": float(tg.norm(u_opt.values))}
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

    With K = V_K diag(k) V_K^T, W = V_K diag(k^-1/2) has W^T K W = I, so it
    becomes (W^T Pi(0) W) y = theta y, and with Pi(0) = V Pi-tilde(0) V^T
    and Q = V^T V_K that matrix is diag(k^-1/2) Q^T Pi-tilde(0) Q
    diag(k^-1/2).  Its top pair comes from Lanczos on its products, from a
    fixed start vector: Q is ``from_modal`` in K's basis and then
    ``to_modal`` in A's on one state, Q^T the two maps back, and
    Pi-tilde(0) is the storage's ``times``.  No n x n array is formed, and
    the one path serves the low-rank and the dense storage.
    """
    spectral, k_basis, storage = ric.spectral, grid.h1.basis, ric.storage
    k_isqrt = 1.0 / np.sqrt(k_basis.values)

    def whitened(y: np.ndarray) -> np.ndarray:
        xi = spectral.to_modal(k_basis.from_modal(k_isqrt * y))
        return k_isqrt * k_basis.to_modal(spectral.from_modal(storage.times(xi)))

    y = top_eigenvector(whitened, np.random.default_rng(0).standard_normal(k_isqrt.size),
                        LANCZOS_TOL)[0]
    extremal = k_basis.from_modal(k_isqrt * y)
    denom = h1_norm(x0_star, grid) * h1_norm(extremal, grid)
    cosine = abs(h1_inner(x0_star, extremal, grid)) / max(denom, 1e-300)
    xi = spectral.to_modal(x0_star)  # <x0, Pi(0) x0> = <xi, Pi-tilde(0) xi>
    rayleigh = inner_product(xi, storage.times(xi), grid) / \
        max(h1_inner(x0_star, x0_star, grid), 1e-300)
    return float(cosine), float(rayleigh)
