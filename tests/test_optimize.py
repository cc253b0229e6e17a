import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pdeopt as po
import pdeopt.optimize as optimize
from pdeopt.adjoint import compute_bundle
from pdeopt.config import ExperimentConfig
from pdeopt.exceptions import BlowUpError, ConstraintViolationError
from pdeopt.models import ScalarNonlinearity
from pdeopt.optimize import BACKTRACK

from conftest import first_mode_2d, lq_optimum


@pytest.fixture
def ks_sets(ks_model_small):
    return po.AdmissibleSets(family=ks_model_small.actuator_family, r1=2.0, r2=1.0)


@pytest.fixture
def growth_model(grid2d_small):
    """Heat model with the growth term F = +z^3: large states blow up."""
    growth = ScalarNonlinearity(value=lambda z: z**3, derivative=lambda z: 3 * z**2,
                                sign_condition=False)
    return po.make_heat_model(grid2d_small, f_scalar=growth)


@pytest.fixture
def blowups(monkeypatch):
    """Step indices of the blow-ups raised by the optimizers' forward solves."""
    steps = []
    solve = optimize.solve_forward

    def recording(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except BlowUpError as err:
            steps.append(err.step)
            raise

    monkeypatch.setattr(optimize, "solve_forward", recording)
    return steps


@pytest.fixture
def search_log(monkeypatch):
    """The joint descent's gradient bundles and Armijo trials, in call order:
    ("bundle", u, design, grad_u, grad_r) and ("trial", u, design)."""
    log = []
    solve, bundle = optimize.solve_forward, optimize.compute_bundle

    def trial(model, u, design, x0, tg):
        log.append(("trial", u.values, design.params))
        return solve(model, u, design, x0, tg)

    def bundled(model, u, design, x0, weights, tg):
        out = bundle(model, u, design, x0, weights, tg)
        log.append(("bundle", u.values, design.params, out[0].grad_u, out[0].grad_r))
        return out

    monkeypatch.setattr(optimize, "solve_forward", trial)
    monkeypatch.setattr(optimize, "compute_bundle", bundled)
    return log


@pytest.fixture
def every_trial_blows_up(monkeypatch):
    """The initial state of every trial solve, each of which raises
    BlowUpError.  Gradient bundles still solve through the adjoint module's
    own binding."""
    trials = []

    def blow_up(model, u, design, x0, tg, out=None):
        trials.append(x0)
        raise BlowUpError(1)

    monkeypatch.setattr(optimize, "solve_forward", blow_up)
    return trials


class TestProjections:
    def test_project_u_inside_unchanged(self, ks_sets):
        tg = po.TimeGrid(tau=1.0, nt=20)
        u = po.ControlSignal(tg, 0.1 * np.ones(21))
        assert po.project_U(u, ks_sets) is u

    def test_project_u_radial_scaling(self, ks_sets):
        tg = po.TimeGrid(tau=1.0, nt=20)
        u = po.ControlSignal(tg, np.full(21, 4.0))  # norm 4 = 2 R1
        proj = po.project_U(u, ks_sets)
        assert tg.norm(proj.values) == pytest.approx(ks_sets.r1, rel=1e-13)
        # direction preserved
        assert proj.values == pytest.approx(u.values * ks_sets.r1 / 4.0)

    def test_project_u_idempotent_and_nonexpansive(self, ks_sets, rng):
        tg = po.TimeGrid(tau=1.0, nt=16)
        for _ in range(100):
            a = po.ControlSignal(tg, 3.0 * rng.standard_normal(17))
            b = po.ControlSignal(tg, 3.0 * rng.standard_normal(17))
            pa, pb = po.project_U(a, ks_sets), po.project_U(b, ks_sets)
            assert pa.values == pytest.approx(po.project_U(pa, ks_sets).values,
                                              rel=1e-13, abs=1e-15)
            assert tg.norm(pa.values - pb.values) <= \
                tg.norm(a.values - b.values) * (1 + 1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    # tau in [1e-2, 1e2], nt in [2, 80], r1 and scale in [1e-3, 1e3]; the
    # edges are the smallest signals in the smallest ball and the largest in
    # the largest ball
    @given(tau=st.floats(1e-2, 1e2), nt=st.integers(2, 80), r1=st.floats(1e-3, 1e3),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
    @example(tau=1e-2, nt=2, r1=1e-3, scale=1e-3, seed=0)
    @example(tau=1e2, nt=80, r1=1e3, scale=1e3, seed=2**16)
    def test_project_u_in_ball_idempotent_nonexpansive(self, tau, nt, r1, scale, seed):
        tg = po.TimeGrid(tau=tau, nt=nt)
        sets = po.AdmissibleSets(family=po.KsGaussianActuator(), r1=r1)
        a, b = (po.ControlSignal(tg, v) for v in
                scale * np.random.default_rng(seed).standard_normal((2, nt + 1)))
        pa, pb = po.project_U(a, sets), po.project_U(b, sets)
        assert tg.norm(pa.values) <= r1 * (1 + 1e-12)
        assert po.project_U(pa, sets).values == pytest.approx(pa.values, rel=1e-12,
                                                              abs=1e-300)
        assert tg.norm(pa.values - pb.values) <= \
            tg.norm(a.values - b.values) * (1 + 1e-12) + 1e-12 * r1

    def test_project_k_clamp(self, ks_sets):
        out = ks_sets.family.project(np.array([0.95]))
        assert out[0] == pytest.approx(0.9)
        for r in np.linspace(0.1, 0.9, 7):
            assert ks_sets.family.project(np.array([r]))[0] == pytest.approx(r)

    def test_project_v_ball(self, grid1d_small, rng):
        r2 = 0.7
        x = rng.standard_normal(32)
        x = x * (2 * r2 / po.h1_norm(x, grid1d_small))
        proj = po.project_V_ball(x, r2, grid1d_small)
        assert po.h1_norm(proj, grid1d_small) == pytest.approx(r2, rel=1e-13)
        # direction preserved
        assert proj == pytest.approx(0.5 * x, rel=1e-13)

    def test_project_v_ball_when_the_squared_norm_overflows(self, grid1d_small, rng):
        # ||x||^2 is about 1e320: the projection scales x by a power of two
        # first, so it keeps the direction and raises no overflow warning
        x = rng.standard_normal(32)
        x = x * (1e160 / po.h1_norm(x, grid1d_small))
        proj = po.project_V_ball(x, 1.0, grid1d_small)
        assert po.h1_norm(proj, grid1d_small) == pytest.approx(1.0, rel=1e-13)
        assert proj == pytest.approx(1e-160 * x, rel=1e-13)

    def test_project_v_ball_nonexpansive(self, grid1d_small, rng):
        for _ in range(50):
            a = rng.standard_normal(32)
            b = rng.standard_normal(32)
            pa = po.project_V_ball(a, 0.5, grid1d_small)
            pb = po.project_V_ball(b, 0.5, grid1d_small)
            assert po.h1_norm(pa - pb, grid1d_small) <= \
                po.h1_norm(a - b, grid1d_small) * (1 + 1e-12)


class TestOptimizerConfigValidation:
    @pytest.mark.parametrize("field, value", [("max_iters", -1)])
    def test_bad_step0_or_iteration_cap(self, field, value):
        with pytest.raises(ValueError):
            po.OptimizerConfig(**{field: value})


class TestMinimizeJoint:
    def test_zero_initial_condition_trivial(self, ks_model_small, ks_sets):
        tg = po.TimeGrid(tau=0.3, nt=30)
        u, d, rep = po.minimize_joint(ks_model_small, ks_sets, po.CostWeights(),
                                      np.zeros(32), tg, po.OptimizerConfig())
        assert rep.converged
        assert len(rep.iterations) == 1  # stationary at the start
        assert rep.final["cost"] == 0.0
        assert np.all(u.values == 0.0)

    @pytest.mark.parametrize("optimize_design", [True, False])
    def test_start_outside_the_design_box_is_refused(self, ks_model_small, ks_sets,
                                                     optimize_design):
        # the start is checked like every design, not clipped into [0.1, 0.9]
        tg = po.TimeGrid(tau=0.3, nt=30)
        with pytest.raises(ConstraintViolationError):
            po.minimize_joint(ks_model_small, ks_sets, po.CostWeights(),
                              np.ones(32), tg, po.OptimizerConfig(),
                              optimize_design=optimize_design,
                              initial_design=po.ActuatorDesign.of(0.95))

    def test_linear_heat_converges_interior(self, heat_model_linear):
        g = heat_model_linear.grid
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family,
                                 r1=50.0, r2=1.0)
        tg = po.TimeGrid(tau=0.5, nt=100)
        x0 = first_mode_2d(g, 1.0)
        cfg = po.OptimizerConfig(tol=1e-7, max_iters=3000)
        u, d, rep = po.minimize_joint(heat_model_linear, sets, po.CostWeights(1.0, 0.1),
                                      x0, tg, cfg, optimize_design=False)
        assert rep.converged
        assert rep.final["res_u"] <= 1e-7
        costs = [row["cost"] for row in rep.iterations]
        assert all(costs[i + 1] <= costs[i] + 1e-12 for i in range(len(costs) - 1))
        assert tg.norm(u.values) < sets.r1

    def test_ks_joint_descent_and_feasibility(self):
        g = po.build_grid_1d(64)
        model = po.make_ks_model(g, lam=30.0)
        sets = po.AdmissibleSets(family=model.actuator_family, r1=20.0, r2=1.0)
        tg = po.TimeGrid(tau=0.2, nt=100)
        x0 = 2.0 * np.exp(-((g.nodes - 0.3) ** 2) / (2 * 0.07**2))
        cfg = po.OptimizerConfig(tol=1e-5, max_iters=500)
        u, d, rep = po.minimize_joint(model, sets, po.CostWeights(1.0, 1e-3), x0,
                                      tg, cfg)
        assert rep.converged
        assert max(rep.final["res_u"], rep.final["res_r"]) <= 1e-5
        assert 0.1 <= d.params[0] <= 0.9
        assert tg.norm(u.values) <= sets.r1 * (1 + 1e-12)
        assert len(rep.iterations) > 3  # the problem is not trivially stationary

    def test_report_csv(self, tmp_path, heat_model_linear):
        g = heat_model_linear.grid
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family,
                                 r1=50.0, r2=1.0)
        tg = po.TimeGrid(tau=0.3, nt=30)
        cfg = po.OptimizerConfig(tol=1e-5, max_iters=50)
        _, _, rep = po.minimize_joint(heat_model_linear, sets, po.CostWeights(),
                                      first_mode_2d(g, 0.5), tg, cfg)
        path = tmp_path / "iters.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,cost,grad_u_norm,grad_r_norm,step,res_u,res_r,margin"
        assert len(lines) == len(rep.iterations) + 1

    def test_blowup_rejects_the_trial_and_backtracks(self, growth_model, blowups):
        # a tiny rho makes the first step the 1e6 cap, and q = 100 makes the
        # gradient large enough that it drives the growth model to overflow;
        # the line search must shrink the step and still accept descent steps
        g = growth_model.grid
        sets = po.AdmissibleSets(family=growth_model.actuator_family, r1=1e8, r2=1.0)
        tg = po.TimeGrid(tau=0.2, nt=20)
        cfg = po.OptimizerConfig(max_iters=3, tol=1e-12)
        _, _, rep = po.minimize_joint(growth_model, sets, po.CostWeights(100.0, 1e-12),
                                      first_mode_2d(g, 0.5), tg, cfg)
        costs = [row["cost"] for row in rep.iterations]
        assert rep.iterations[0]["step"] == 1e6
        assert blowups
        assert len(costs) == 4 and costs[-1] < costs[0]

    @pytest.mark.parametrize("r_scale, trials", [(0.5, 47), (1e-12, 67)])
    def test_search_gives_up_below_the_minimum_step(self, heat_model_linear,
                                                    every_trial_blows_up, r_scale,
                                                    trials):
        # every trial blows up, so the search halves the step from
        # min(1/(2 rho), 1e6) until it falls below 1e-14: from 1,
        # 2^-46 >= 1e-14 > 2^-47, and from the cap 1e6, 1e6 2^-66 likewise
        step0 = min(0.5 / r_scale, 1e6)
        g = heat_model_linear.grid
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family, r1=50.0)
        tg = po.TimeGrid(tau=0.3, nt=30)
        cfg = po.OptimizerConfig(max_iters=50)
        u, _, rep = po.minimize_joint(heat_model_linear, sets, po.CostWeights(1.0, r_scale),
                                      first_mode_2d(g, 0.5), tg, cfg)
        assert rep.stop_reason == "no acceptable step (projection stationary or blow-up)"
        assert not rep.converged
        assert len(rep.iterations) == 1 and rep.final["step"] == step0
        assert not np.any(u.values)
        assert len(every_trial_blows_up) == trials

    @pytest.mark.parametrize("stop, tol, max_iters", [
        ("residuals below tolerance", 1e-4, 500),
        ("max iterations reached", 1e-12, 2),
        ("no acceptable step (projection stationary or blow-up)", 1e-12, 50),
    ])
    def test_report_traj_is_the_returned_iterate(self, heat_model_small, request,
                                                 stop, tol, max_iters):
        # the descent drops each old trajectory before solving the new one,
        # and the Riccati cross-check solves its costate along report.traj
        if stop.startswith("no acceptable"):
            request.getfixturevalue("every_trial_blows_up")
        g = heat_model_small.grid
        sets = po.AdmissibleSets(family=heat_model_small.actuator_family, r1=50.0)
        tg = po.TimeGrid(tau=0.3, nt=30)
        x0 = first_mode_2d(g, 2.0)
        u, d, rep = po.minimize_joint(heat_model_small, sets, po.CostWeights(1.0, 0.1),
                                      x0, tg, po.OptimizerConfig(tol=tol, max_iters=max_iters))
        assert rep.stop_reason == stop
        # the blow-up run returns its start, the others an accepted step
        assert (len(rep.iterations) == 1) == stop.startswith("no acceptable")
        again = po.solve_forward(heat_model_small, u, d, x0, tg)
        assert np.array_equal(rep.traj.states, again.states)

    def test_step_doubles_after_a_clean_acceptance_or_halves(self, search_log):
        # Replays the step rule on a KS joint run that takes every branch of
        # it: the input step starts at min(1/(2 rho), 1e6) = 50 and the
        # design step follows it until the design has moved; after that each
        # block takes <s,s>/<s,y> (the input block in the trapezoid pairing),
        # at most its cap, where <s,y> > 0, and otherwise doubles after a
        # clean acceptance or keeps the backtracked step.  Both blocks share
        # the search's factor.
        g = po.build_grid_1d(64)
        model = po.make_ks_model(g, lam=30.0)
        sets = po.AdmissibleSets(family=model.actuator_family, r1=200.0, r2=1.0)
        tg = po.TimeGrid(tau=0.2, nt=100)
        x0 = 3.0 * np.exp(-((g.nodes - 0.3) ** 2) / (2 * 0.07**2))
        weights = po.CostWeights(1.0, 1e-2)
        _, _, rep = po.minimize_joint(model, sets, weights, x0, tg,
                                      po.OptimizerConfig(tol=1e-7, max_iters=12))
        steps = [row["step"] for row in rep.iterations]
        assert steps[0] == 50.0

        def rule(ss, sy, step, clean, cap, block):
            if sy > 0:
                fired.add(f"{block} spectral" + (" under the cap" if ss / sy < cap else ""))
                return min(ss / sy, cap)
            fired.add(f"{block} doubled" if clean else f"{block} kept")
            return min(2.0 * step, cap) if clean else step

        fired = set()
        bundles = [i for i, event in enumerate(search_log) if event[0] == "bundle"]
        alpha_r = None
        for k, (i, j) in enumerate(zip(bundles, bundles[1:])):
            (_, u0, r0, gu0, gr0), (_, u1, r1, gu1, gr1) = search_log[i], search_log[j]
            trials = search_log[i + 1:j]
            step_r = steps[k] if alpha_r is None else alpha_r
            # the first trial moves the (interior) design by step_r along -grad_r
            assert trials[0][2] == pytest.approx(r0 - step_r * gr0, rel=1e-14)
            shrink = BACKTRACK ** (len(trials) - 1)
            s_u, y_u, s_r, y_r = u1 - u0, gu1 - gu0, r1 - r0, gr1 - gr0
            assert steps[k + 1] == rule(tg.inner(s_u, s_u), tg.inner(s_u, y_u),
                                        steps[k] * shrink, shrink == 1.0, 50.0, "u")
            if alpha_r is not None or np.any(s_r):
                alpha_r = rule(float(s_r @ s_r), float(s_r @ y_r), step_r * shrink,
                               shrink == 1.0, 1e6, "r")
        assert {"u spectral under the cap", "r spectral under the cap", "u doubled",
                "u kept", "r doubled"} <= fired


class TestOptimalityResiduals:
    def test_exact_stationarity_construction(self, ks_model_small, ks_sets):
        # with u := -(1/rho) B*p taken from the same adjoint, the input
        # residual vanishes identically
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.3, nt=40)
        weights = po.CostWeights(1.0, 0.5)
        design = po.ActuatorDesign.of(0.5)
        x0 = 0.3 * np.sin(np.pi * g.nodes)
        u0 = po.ControlSignal.zero(tg)
        bundle, traj = compute_bundle(ks_model_small, u0, design, x0, weights, tg)
        p = po.solve_adjoint(ks_model_small, traj, weights, tg)
        u_star = po.ControlSignal(tg, -0.5 * bundle.grad_u / weights.r_scale)
        bundle = po.assemble_gradients(ks_model_small, traj, p, u_star, design, weights)
        res = po.optimality_residuals(bundle, u_star, design, ks_sets)
        assert res.res_u <= 1e-12

    def test_active_clamp_zero_residual(self):
        # the cost keeps improving past r = 0.2, so a design box capped there
        # must clamp, with the raw descent direction pointing out of the box
        g = po.build_grid_1d(64)
        fam = po.KsGaussianActuator(bounds=(0.1, 0.2))
        model = po.make_ks_model(g, lam=30.0, actuator=fam)
        sets = po.AdmissibleSets(family=fam, r1=200.0, r2=1.0)
        tg = po.TimeGrid(tau=0.2, nt=200)
        x0 = 3.0 * np.exp(-((g.nodes - 0.3) ** 2) / (2 * 0.07**2))
        weights = po.CostWeights(1.0, 1e-4)
        cfg = po.OptimizerConfig(tol=1e-7, max_iters=800)
        u, d, rep = po.minimize_joint(model, sets, weights, x0, tg, cfg)
        traj = po.solve_forward(model, u, d, x0, tg)
        p = po.solve_adjoint(model, traj, weights, tg)
        res = po.optimality_residuals(po.assemble_gradients(model, traj, p, u, d, weights),
                                      u, d, sets)
        assert d.params[0] == pytest.approx(0.2, abs=1e-12)
        assert bool(res.r_active[0])
        assert res.res_r == 0.0

    def test_residual_matches_directional_derivative(self, ks_model_small, ks_sets,
                                                     rng):
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.3, nt=60)
        weights = po.CostWeights(1.0, 1.0)
        design = po.ActuatorDesign.of(0.45)
        x0 = 0.4 * np.sin(np.pi * g.nodes)
        u = po.ControlSignal(tg, 0.2 * rng.standard_normal(tg.nt + 1))
        bundle, _ = compute_bundle(ks_model_small, u, design, x0, weights, tg)
        res = po.optimality_residuals(bundle, u, design, ks_sets)
        # interior point: res_u = ||v|| with v the half-gradient; the
        # directional derivative of the cost along v/||v|| equals 2 res_u
        v = 0.5 * bundle.grad_u
        d = v / tg.norm(v)
        eps = 1e-6

        def cost_at(uv):
            t = po.solve_forward(ks_model_small, po.ControlSignal(tg, uv), design,
                                 x0, tg)
            return po.evaluate_cost(t, po.ControlSignal(tg, uv), weights, g)

        fd = (cost_at(u.values + eps * d) - cost_at(u.values - eps * d)) / (2 * eps)
        assert fd == pytest.approx(2 * res.res_u, rel=1e-4)


class TestConvergedAnswers:
    """The default tolerance gives the answer of a tight solve: each problem
    is solved again at tol = 1e-9 as the reference."""

    @staticmethod
    def readme_ks(n=128):
        g = po.build_grid_1d(n)
        model = po.make_ks_model(g, lam=30.0)
        sets = po.AdmissibleSets(family=model.actuator_family, r1=200.0, r2=1.0)
        x0 = 3.0 * np.exp(-((g.nodes - 0.3) ** 2) / (2 * 0.07**2))
        return model, sets, po.CostWeights(1.0, 1e-4), x0, po.TimeGrid(tau=0.2, nt=200)

    @staticmethod
    def solve(problem, tol, **kwargs):
        _, design, rep = po.minimize_joint(*problem, po.OptimizerConfig(tol=tol,
                                                                        max_iters=3000),
                                           **kwargs)
        assert rep.converged
        assert rep.final["res_u"] <= tol
        if kwargs.get("optimize_design", True):
            assert rep.final["res_r"] <= tol
        return design, rep

    def test_readme_ks_design(self):
        problem = self.readme_ks()
        design, _ = self.solve(problem, 1e-5)
        reference, _ = self.solve(problem, 1e-9)
        assert abs(design.params[0] - reference.params[0]) <= 1e-4

    def test_iteration_count_does_not_grow_with_n(self):
        rows = [len(self.solve(self.readme_ks(n), 1e-5)[1].iterations)
                for n in (63, 127, 255)]
        assert max(rows) - min(rows) <= 1

    def test_heat_shape_design_and_active_set(self):
        cfg = ExperimentConfig(values={
            "model.kind": "heat", "model.nonlinearity": "cubic", "model.linear": False,
            "grid.nx": 32, "grid.ny": 32, "grid.dirichlet": "left,right,bottom,top",
            "time.tau": 1.0, "time.nt": 200, "cost.r_scale": 1e-2,
            "initial_condition.kind": "sine", "initial_condition.amplitude": 3.0,
            "actuator.basis_per_axis": 3})
        grid = cfg.build_grid()
        model = cfg.build_model(grid)
        problem = (model, cfg.build_sets(model), cfg.build_weights(), cfg.build_x0(grid),
                   cfg.build_time_grid())
        design, rep = self.solve(problem, 1e-5)
        reference, ref = self.solve(problem, 1e-9)
        assert np.all(np.abs(design.params - reference.params) <= 1e-4)
        assert np.array_equal(rep.residuals.r_active, ref.residuals.r_active)
        assert np.any(ref.residuals.r_active)

    @pytest.mark.parametrize("r", [0.2, 0.4])
    def test_ks_input_only_cost(self, r):
        problem = self.readme_ks()
        start = po.ActuatorDesign.of(r)
        _, rep = self.solve(problem, 1e-5, optimize_design=False, initial_design=start)
        _, ref = self.solve(problem, 1e-9, optimize_design=False, initial_design=start)
        assert rep.final["cost"] == pytest.approx(ref.final["cost"], rel=1e-6)


def _linear_heat_lq():
    g = po.build_grid_2d(8, 8)
    model = po.make_heat_model(g, f_scalar=None)
    return (model, model.actuator_family.initial_design(), first_mode_2d(g),
            po.TimeGrid(tau=1.0, nt=50))


def _linear_ks_lq():
    g = po.build_grid_1d(32)
    model = po.make_ks_model(g, lam=30.0, linear=True)
    x0 = 3.0 * np.exp(-((g.nodes - 0.3) ** 2) / (2 * 0.07**2))
    return model, po.ActuatorDesign.of(0.3), x0, po.TimeGrid(tau=0.5, nt=50)


@pytest.mark.parametrize("problem, u_tol", [(_linear_heat_lq, 1e-6), (_linear_ks_lq, 1e-5)],
                         ids=["heat", "ks"])
def test_input_only_optimum_is_the_discrete_lq_optimum(problem, u_tol):
    # the dense oracle solves the discrete quadratic exactly, so the optimizer
    # is held to its own stopping tolerance, not to a dt-sized gap; the control
    # removes 39 % (heat) and 6.7 % (KS) of the free cost here
    model, design, x0, tg = problem()
    weights = po.CostWeights(1.0, 1e-6)
    u_star, j_star = lq_optimum(model, design, x0, weights, tg)
    free = po.evaluate_cost(po.solve_forward(model, None, design, x0, tg),
                            po.ControlSignal.zero(tg), weights, model.grid)
    assert j_star < 0.95 * free
    sets = po.AdmissibleSets(family=model.actuator_family, r1=1e6)
    u, _, rep = po.minimize_joint(model, sets, weights, x0, tg, po.OptimizerConfig(tol=1e-10),
                                  optimize_design=False, initial_design=design)
    assert rep.converged
    assert abs(rep.final["cost"] - j_star) <= 1e-10 * j_star
    assert np.linalg.norm(u.values - u_star) <= u_tol * np.linalg.norm(u_star)


def _fixed_input(tg):
    """A nonzero input: under it a linear model's cost is a convex quadratic
    in x0 with a linear term, which the worst-IC ascent, not Lanczos, solves."""
    return po.ControlSignal(tg, np.ones(tg.nt + 1))


class TestWorstInitialCondition:
    def test_blowup_rejects_the_ascent_trial(self, growth_model, blowups):
        # on a wide H1 ball the ascent's first step, at its cap, overflows the
        # growth model; the ascent must backtrack instead of raising
        tg = po.TimeGrid(tau=0.2, nt=20)
        sets = po.AdmissibleSets(family=growth_model.actuator_family, r1=10.0, r2=1e4)
        cfg = po.OptimizerConfig(max_iters=3, multi_start=1)
        _, _, rep = po.worst_initial_condition(
            growth_model, po.ControlSignal.zero(tg),
            growth_model.actuator_family.initial_design(), sets, po.CostWeights(), tg, cfg)
        assert blowups
        assert rep.best["iterations"] == 4

    def test_ascent_stops_when_every_trial_blows_up(self, heat_model_linear,
                                                   every_trial_blows_up):
        # the first search halves the step from MAX_ASCENT_STEP until it falls
        # below MIN_STEP, which takes floor(log2(cap / floor)) + 1 trials, or
        # stops earlier where x_trial - x0 rounds to zero and the predicted gain is 0
        tg = po.TimeGrid(tau=0.3, nt=30)
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family, r2=1.0)
        cfg = po.OptimizerConfig(multi_start=1, max_iters=50)
        _, _, rep = po.worst_initial_condition(
            heat_model_linear, _fixed_input(tg),
            heat_model_linear.actuator_family.initial_design(), sets, po.CostWeights(),
            tg, cfg)
        assert rep.best["stop"] == "no acceptable ascent step"
        assert rep.best["iterations"] == 1
        most = math.floor(math.log2(optimize.MAX_ASCENT_STEP / optimize.MIN_STEP)) + 1
        assert 1 <= len(every_trial_blows_up) <= most

    def test_first_ascent_step_is_the_boundary_point_along_the_gradient(
            self, heat_model_linear):
        # with the input fixed the linear model's cost is convex in x0, so the
        # first trial, at step a = MAX_ASCENT_STEP from the projected smooth
        # start x, passes the Armijo test.  Projected, it is r2 y / ||y|| with
        # y = x + a g, and ||y / ||y|| - g / ||g|| || <= 2 ||x|| / (a ||g||)
        # (all norms H1)
        g2 = heat_model_linear.grid
        tg = po.TimeGrid(tau=0.3, nt=30)
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family, r2=1.0)
        u0 = _fixed_input(tg)
        design = heat_model_linear.actuator_family.initial_design()
        cfg = po.OptimizerConfig(multi_start=1, max_iters=1)
        x0, _, _ = po.worst_initial_condition(heat_model_linear, u0, design, sets,
                                              po.CostWeights(), tg, cfg)
        start = po.project_V_ball(np.ones(g2.size), sets.r2, g2)
        g = po.h1_riesz_map(compute_bundle(heat_model_linear, u0, design, start,
                                           po.CostWeights(), tg)[0].grad_x0, g2)
        norm_g = po.h1_norm(g, g2)
        bound = 2.0 * po.h1_norm(start, g2) / (optimize.MAX_ASCENT_STEP * norm_g)
        assert po.h1_norm(x0 - sets.r2 * g / norm_g, g2) <= bound * sets.r2

    def test_ascent_reaches_sphere(self, heat_model_linear):
        g = heat_model_linear.grid
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family,
                                 r1=10.0, r2=0.8)
        tg = po.TimeGrid(tau=0.5, nt=60)
        cfg = po.OptimizerConfig(seed=11, multi_start=3, max_iters=200)
        u0 = po.ControlSignal.zero(tg)
        d = heat_model_linear.actuator_family.initial_design()
        x0s, mu, rep = po.worst_initial_condition(heat_model_linear, u0, d, sets,
                                                  po.CostWeights(), tg, cfg)
        best = rep.best
        assert best["active"]
        assert best["x0_h1_norm"] == pytest.approx(sets.r2, abs=1e-9)
        assert mu > 0
        assert best["kkt_residual"] <= 1e-4 * mu * sets.r2
        assert rep.converged

    def test_tolerance_stops_the_ascent(self, heat_model_linear):
        # optimizer.tol bounds the relative KKT residual, so a looser tolerance
        # stops every start no later, and here sooner
        tg = po.TimeGrid(tau=0.5, nt=60)
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family, r2=1.0)
        u0 = _fixed_input(tg)
        d = heat_model_linear.actuator_family.initial_design()
        iterations = {}
        for tol in (1e-2, 1e-5):
            cfg = po.OptimizerConfig(tol=tol, multi_start=2, max_iters=200)
            _, _, rep = po.worst_initial_condition(heat_model_linear, u0, d, sets,
                                                   po.CostWeights(), tg, cfg)
            assert rep.converged
            for s in rep.starts:
                assert s["kkt_residual"] <= tol * s["mu"] * sets.r2
            iterations[tol] = [s["iterations"] for s in rep.starts]
        assert all(a <= b for a, b in zip(iterations[1e-2], iterations[1e-5]))
        assert sum(iterations[1e-2]) < sum(iterations[1e-5])

    def test_deterministic_given_seed(self, heat_model_linear):
        g = heat_model_linear.grid
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family,
                                 r1=10.0, r2=1.0)
        tg = po.TimeGrid(tau=0.3, nt=30)
        cfg = po.OptimizerConfig(seed=21, multi_start=2, max_iters=60)
        u0 = po.ControlSignal.zero(tg)
        d = heat_model_linear.actuator_family.initial_design()
        runs = [po.worst_initial_condition(heat_model_linear, u0, d, sets,
                                           po.CostWeights(), tg, cfg)
                for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_report_records_initialization(self, heat_model_linear):
        g = heat_model_linear.grid
        sets = po.AdmissibleSets(family=heat_model_linear.actuator_family,
                                 r1=10.0, r2=1.0)
        tg = po.TimeGrid(tau=0.3, nt=30)
        cfg = po.OptimizerConfig(seed=2, multi_start=3, max_iters=40)
        u0 = _fixed_input(tg)
        d = heat_model_linear.actuator_family.initial_design()
        _, _, rep = po.worst_initial_condition(heat_model_linear, u0, d, sets,
                                               po.CostWeights(), tg, cfg)
        labels = [s["label"] for s in rep.starts]
        assert labels[0] == "smooth"
        assert len(labels) == 3



class TestLanczosWorstIc:
    """A linear model under u = 0 takes the Lanczos path."""

    @staticmethod
    def _solve(model, tg, cfg, r2=1.0, weights=po.CostWeights(1.0, 1.0)):
        sets = po.AdmissibleSets(family=model.actuator_family, r1=10.0, r2=r2)
        return po.worst_initial_condition(model, po.ControlSignal.zero(tg),
                                          model.actuator_family.initial_design(), sets,
                                          weights, tg, cfg)

    def test_matches_the_generalized_eigensolve(self):
        # L x0 = p(0) = grad_x0 / 2, one column per unit x0; the maximizer of
        # <x0, L x0> on the H1 ball is r2 v / sqrt(w) for the top pair (mu, v)
        # of eigh(L, K), v^T K v = 1, and mu is the multiplier
        import scipy.linalg as sla
        from conftest import toarray
        g = po.build_grid_2d(6, 5)
        model = po.make_heat_model(g, f_scalar=None)
        tg = po.TimeGrid(tau=0.5, nt=40)
        weights, r2 = po.CostWeights(1.0, 1.0), 0.7
        design = model.actuator_family.initial_design()
        cols = [compute_bundle(model, po.ControlSignal.zero(tg), design, e, weights,
                               tg)[0].grad_x0 / 2 for e in np.eye(g.size)]
        lmat = np.column_stack(cols)
        vals, vecs = sla.eigh(0.5 * (lmat + lmat.T), toarray(po.h1_operator(g)))
        x0, mu, rep = self._solve(model, tg, po.OptimizerConfig(tol=1e-12), r2, weights)
        expect = r2 * vecs[:, -1] / np.sqrt(g.weight)
        expect *= np.sign(expect @ x0)
        assert [s["label"] for s in rep.starts] == ["lanczos"] and rep.converged
        assert np.linalg.norm(x0 - expect) <= 1e-10 * np.linalg.norm(expect)
        assert mu == pytest.approx(vals[-1], rel=1e-10)
        assert rep.best["cost"] == pytest.approx(vals[-1] * r2**2, rel=1e-10)

    def test_sign_does_not_depend_on_the_start(self, heat_model_linear):
        g = heat_model_linear.grid
        tg = po.TimeGrid(tau=0.5, nt=60)
        x_a, x_b = (self._solve(heat_model_linear, tg,
                                po.OptimizerConfig(tol=1e-8, seed=seed))[0]
                    for seed in (3, 4))
        cosine = po.h1_inner(x_a, x_b, g) / (po.h1_norm(x_a, g) * po.h1_norm(x_b, g))
        assert cosine >= 1 - 1e-10
        assert np.sum(x_a) > 0 and np.sum(x_b) > 0

    def test_sign_rule_falls_back_to_the_largest_entry(self):
        for x in (np.array([1.0, -2.0, 2.0, -1.0]), np.array([-0.5, 3.0, 1.0])):
            fixed = optimize._fix_sign(x, 1e-5)
            assert np.array_equal(fixed, optimize._fix_sign(-x, 1e-5))
        assert optimize._fix_sign(np.array([1.0, -2.0, 2.0, -1.0]), 1e-5)[1] == 2.0
        assert np.sum(optimize._fix_sign(np.array([-0.5, 3.0, 1.0]), 1e-5)) > 0

    def test_criterion_6_problem_in_at_most_12_solve_pairs(self, monkeypatch):
        # the multi-start ascent made 71 forward and 38 adjoint solves here
        import pdeopt.adjoint as adjoint
        counts = {"forward": 0, "adjoint": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module in (adjoint, optimize):
            monkeypatch.setattr(module, "solve_forward",
                                counting(module.solve_forward, "forward"))
        monkeypatch.setattr(adjoint, "solve_adjoint",
                            counting(adjoint.solve_adjoint, "adjoint"))
        model = po.make_heat_model(po.build_grid_2d(16, 16), f_scalar=None)
        _, _, rep = self._solve(model, po.TimeGrid(tau=1.0, nt=200),
                                po.OptimizerConfig(seed=106, multi_start=5, max_iters=400))
        assert rep.converged
        assert counts["forward"] == counts["adjoint"] == rep.best["iterations"] <= 12

    def test_iteration_cap_stops_the_products(self, heat_model_linear):
        tg = po.TimeGrid(tau=0.5, nt=60)
        for cap in (0, 2):
            _, _, rep = self._solve(heat_model_linear, tg,
                                    po.OptimizerConfig(tol=1e-12, max_iters=cap))
            assert rep.best["iterations"] == cap + 1
            assert rep.best["stop"] == "max iterations reached" and not rep.converged
            assert rep.best["x0_h1_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_nonlinear_model_takes_the_ascent(self, heat_model_small):
        # (a linear model under u != 0 does too: test_report_records_initialization)
        tg = po.TimeGrid(tau=0.3, nt=30)
        sets = po.AdmissibleSets(family=heat_model_small.actuator_family, r2=1.0)
        _, _, rep = po.worst_initial_condition(
            heat_model_small, po.ControlSignal.zero(tg),
            heat_model_small.actuator_family.initial_design(), sets, po.CostWeights(), tg,
            po.OptimizerConfig(multi_start=3, max_iters=20))
        assert [s["label"] for s in rep.starts] == ["smooth", "random-0", "random-1"]

def test_symmetric_problem_symmetric_landscape():
    # symmetric initial state + mirror-symmetric actuator family: the
    # input-optimized cost at r and 1-r must coincide (problem symmetry)
    g = po.build_grid_1d(63)
    model = po.make_ks_model(g, lam=30.0)
    sets = po.AdmissibleSets(family=model.actuator_family, r1=50.0, r2=1.0)
    tg = po.TimeGrid(tau=0.2, nt=80)
    x0 = 2.0 * np.sin(np.pi * g.nodes)
    weights = po.CostWeights(1.0, 1e-3)
    cfg = po.OptimizerConfig(tol=1e-7, max_iters=500)
    costs = {}
    for r in (0.3, 0.7, 0.25, 0.75):
        _, _, rep = po.minimize_joint(model, sets, weights, x0, tg, cfg,
                                      optimize_design=False,
                                      initial_design=po.ActuatorDesign.of(r))
        costs[r] = rep.final["cost"]
    assert costs[0.3] == pytest.approx(costs[0.7], rel=1e-6)
    assert costs[0.25] == pytest.approx(costs[0.75], rel=1e-6)


def test_golden_section_matches_joint():
    g = po.build_grid_1d(48)
    model = po.make_ks_model(g, lam=30.0)
    sets = po.AdmissibleSets(family=model.actuator_family, r1=20.0, r2=1.0)
    tg = po.TimeGrid(tau=0.2, nt=80)
    x0 = 2.0 * np.exp(-((g.nodes - 0.35) ** 2) / (2 * 0.08**2))
    weights = po.CostWeights(1.0, 1e-3)
    cfg = po.OptimizerConfig(tol=1e-6, max_iters=600)
    _, d_joint, _ = po.minimize_joint(model, sets, weights, x0, tg, cfg)
    r_golden, cost_golden = po.golden_section_r(model, sets, weights, x0, tg, cfg,
                                                tol=5e-3)
    assert abs(r_golden - d_joint.params[0]) < 2e-2


_FAMILIES = {
    "ks": lambda: po.KsGaussianActuator(bounds=(0.2, 0.7)),
    "heat": lambda: po.HeatShapeActuator(basis_per_axis=2, lx=1.0, ly=2.0),
}


@st.composite
def design_pairs(draw):
    """(kind, a, b): a family of _FAMILIES and two parameter vectors of its
    dimension with coordinates in [-10, 10]."""
    kind = draw(st.sampled_from(sorted(_FAMILIES)))
    dim = _FAMILIES[kind]().design_dim
    coords = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    return kind, draw(coords), draw(coords)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pair=design_pairs())
# the edges of design_pairs: opposite corners of the coordinate range
@example(pair=("ks", [-10.0], [10.0]))
@example(pair=("heat", [10.0, -10.0, 10.0, -10.0], [-10.0, 10.0, -10.0, 10.0]))
def test_project_K_is_a_nonexpansive_projection_onto_the_box(pair):
    kind, a, b = pair
    family = _FAMILIES[kind]()
    a, b = np.array(a), np.array(b)
    pa, pb = family.project(a), family.project(b)
    family.check(po.ActuatorDesign(pa))  # raises outside the box
    assert np.array_equal(family.project(pa), pa)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b)
