import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdeopt as po
import pdeopt.optimize as optimize
from pdeopt.adjoint import compute_bundle
from pdeopt.exceptions import BlowUpError
from pdeopt.models import ScalarNonlinearity

from conftest import first_mode_2d


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
    @given(tau=st.floats(1e-2, 1e2), nt=st.integers(2, 80), r1=st.floats(1e-3, 1e3),
           u_box=st.one_of(st.none(), st.floats(1e-3, 1e3)),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
    def test_project_u_in_ball_idempotent_nonexpansive(self, tau, nt, r1, u_box,
                                                       scale, seed):
        tg = po.TimeGrid(tau=tau, nt=nt)
        sets = po.AdmissibleSets(family=po.KsGaussianActuator(), r1=r1, u_box=u_box)
        a, b = (po.ControlSignal(tg, v) for v in
                scale * np.random.default_rng(seed).standard_normal((2, nt + 1)))
        pa, pb = po.project_U(a, sets), po.project_U(b, sets)
        assert tg.norm(pa.values) <= r1 * (1 + 1e-12)
        if u_box is not None:
            assert np.max(np.abs(pa.values)) <= u_box
        assert po.project_U(pa, sets).values == pytest.approx(pa.values, rel=1e-12,
                                                              abs=1e-300)
        assert tg.norm(pa.values - pb.values) <= \
            tg.norm(a.values - b.values) * (1 + 1e-12) + 1e-12 * r1

    def test_project_u_box_then_ball(self, ks_model_small):
        sets = po.AdmissibleSets(family=ks_model_small.actuator_family, r1=10.0,
                                 r2=1.0, u_box=0.5)
        tg = po.TimeGrid(tau=1.0, nt=10)
        u = po.ControlSignal(tg, np.linspace(-2, 2, 11))
        proj = po.project_U(u, sets)
        assert np.max(np.abs(proj.values)) <= 0.5

    def test_project_k_clamp(self, ks_sets):
        out = po.project_K(po.ActuatorDesign.of(0.95), ks_sets)
        assert out.params[0] == pytest.approx(0.9)
        for r in np.linspace(0.1, 0.9, 7):
            d = po.ActuatorDesign.of(r)
            assert po.project_K(d, ks_sets).params[0] == pytest.approx(r)

    def test_project_v_ball(self, grid1d_small, rng):
        r2 = 0.7
        x = rng.standard_normal(32)
        x = x * (2 * r2 / po.h1_norm(x, grid1d_small))
        proj = po.project_V_ball(x, r2, grid1d_small)
        assert po.h1_norm(proj, grid1d_small) == pytest.approx(r2, rel=1e-13)
        # direction preserved
        assert proj == pytest.approx(0.5 * x, rel=1e-13)

    def test_project_v_ball_nonexpansive(self, grid1d_small, rng):
        for _ in range(50):
            a = rng.standard_normal(32)
            b = rng.standard_normal(32)
            pa = po.project_V_ball(a, 0.5, grid1d_small)
            pb = po.project_V_ball(b, 0.5, grid1d_small)
            assert po.h1_norm(pa - pb, grid1d_small) <= \
                po.h1_norm(a - b, grid1d_small) * (1 + 1e-12)


class TestOptimizerConfigValidation:
    def test_bad_armijo(self):
        with pytest.raises(ValueError):
            po.OptimizerConfig(armijo_c1=1.5)


class TestMinimizeJoint:
    def test_zero_initial_condition_trivial(self, ks_model_small, ks_sets):
        tg = po.TimeGrid(tau=0.3, nt=30)
        u, d, rep = po.minimize_joint(ks_model_small, ks_sets, po.CostWeights(),
                                      np.zeros(32), tg, po.OptimizerConfig())
        assert rep.converged
        assert len(rep.iterations) == 1  # stationary at the start
        assert rep.final["cost"] == 0.0
        assert np.all(u.values == 0.0)

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
        # a huge first step drives the growth model to overflow; the line
        # search must shrink the step and still accept descent steps
        g = growth_model.grid
        sets = po.AdmissibleSets(family=growth_model.actuator_family, r1=1e8, r2=1.0)
        tg = po.TimeGrid(tau=0.2, nt=20)
        cfg = po.OptimizerConfig(step0=1e8, max_iters=3, tol=1e-12)
        _, _, rep = po.minimize_joint(growth_model, sets, po.CostWeights(),
                                      first_mode_2d(g, 0.5), tg, cfg)
        costs = [row["cost"] for row in rep.iterations]
        assert blowups
        assert len(costs) == 4 and costs[-1] < costs[0]


class TestOptimalityResiduals:
    def test_box_active_components_leave_the_cone(self):
        # u at +box on samples 0-1 and -box on 2-3: only moves back into the
        # box count, so the outward components of -grad_u/2 drop out
        tg = po.TimeGrid(tau=1.0, nt=4)
        fam = po.KsGaussianActuator()
        sets = po.AdmissibleSets(family=fam, r1=100.0, u_box=1.0)
        u = po.ControlSignal(tg, np.array([1.0, 1.0, -1.0, -1.0, 0.5]))
        grad_u = np.array([-2.0, 2.0, 2.0, -2.0, 2.0])
        bundle = po.GradientBundle(grad_u=grad_u, grad_r=np.zeros(1),
                                   grad_x0=np.zeros(4), cost=1.0, grad_x0_l2=np.zeros(4))
        res = po.optimality_residuals(bundle, u, fam.initial_design(), sets)
        assert res.res_u == pytest.approx(tg.norm(np.array([0.0, -1.0, 0.0, 1.0, -1.0])),
                                          rel=1e-15)
        assert not res.u_active
        assert res.res_r == 0.0

    def test_exact_stationarity_construction(self, ks_model_small, ks_sets):
        # with u := -(1/rho) B*p taken from the same adjoint, the input
        # residual vanishes identically
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.3, nt=40)
        weights = po.CostWeights(1.0, 0.5)
        design = po.ActuatorDesign.of(0.5)
        x0 = 0.3 * np.sin(np.pi * g.nodes)
        u0 = po.ControlSignal.zero(tg)
        bundle, traj, p = compute_bundle(ks_model_small, u0, design, x0, weights, tg)
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
        bundle, traj, p = compute_bundle(ks_model_small, u, design, x0, weights, tg)
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


class TestWorstInitialCondition:
    def test_blowup_rejects_the_ascent_trial(self, growth_model, blowups):
        # on a wide H1 ball the doubled ascent step overflows the growth
        # model; the ascent must backtrack instead of raising
        tg = po.TimeGrid(tau=0.2, nt=20)
        sets = po.AdmissibleSets(family=growth_model.actuator_family, r1=10.0, r2=1e4)
        cfg = po.OptimizerConfig(step0=1e6, max_iters=3, multi_start=1)
        _, _, rep = po.worst_initial_condition(
            growth_model, po.ControlSignal.zero(tg),
            growth_model.actuator_family.initial_design(), sets, po.CostWeights(), tg, cfg)
        assert blowups
        assert rep.best["iterations"] == 4

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
        u0 = po.ControlSignal.zero(tg)
        d = heat_model_linear.actuator_family.initial_design()
        _, _, rep = po.worst_initial_condition(heat_model_linear, u0, d, sets,
                                               po.CostWeights(), tg, cfg)
        labels = [s["label"] for s in rep.starts]
        assert labels[0] == "smooth"
        assert len(labels) == 3


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_FAMILIES)), data=st.data())
def test_project_K_is_a_nonexpansive_projection_onto_the_box(kind, data):
    family = _FAMILIES[kind]()
    sets = po.AdmissibleSets(family=family)
    coords = st.lists(st.floats(min_value=-10.0, max_value=10.0),
                      min_size=family.design_dim, max_size=family.design_dim)
    a, b = (po.ActuatorDesign(params=np.array(data.draw(coords))) for _ in range(2))
    pa, pb = po.project_K(a, sets), po.project_K(b, sets)
    assert family.contains(pa.params)
    assert np.array_equal(po.project_K(pa, sets).params, pa.params)
    assert np.linalg.norm(pa.params - pb.params) <= np.linalg.norm(a.params - b.params)
