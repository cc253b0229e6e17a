import numpy as np
import pytest

import pdeopt as po
from pdeopt.adjoint import adjoint_sweep, assemble_gradients, compute_bundle, \
    linearized_forward, solve_adjoint
from pdeopt.forward import cn_ab2_sweep
from pdeopt.models import actuator_design_derivative_adjoint

from conftest import first_mode_2d, l2_norm, smooth_clamped, toarray, traced_peak


def spacetime_identity_error(model, traj, tg, rng):
    """Relative defect of <L_fwd g, phi> = <g, L_adj phi> for one random pair."""
    w = model.grid.weight
    g = rng.standard_normal(traj.states.shape)
    phi = rng.standard_normal(traj.states.shape)
    h = linearized_forward(model, traj, tg, g)
    lam = adjoint_sweep(model, traj, tg, phi.copy())
    lhs = tg.dt * w * float(np.sum(h[1:] * phi[1:]))
    rhs = tg.dt * w * float(np.sum(g[:-1] * lam[1:]))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def reference_pi_rows(p):
    """AB2 pairing rows of the reported adjoint p, one n-vector per input
    sample, built step by step: u_j enters step j with weight 3/2 (1 on the
    first step) and step j+1 with weight -1/2, and step k is paired with
    p_{k+1}.  So pi_0 = p_1 - p_2 / 2, pi_j = 3/2 p_{j+1} - 1/2 p_{j+2},
    pi_{nt-1} = 3/2 p_nt and pi_nt = 0."""
    nt, pv = p.time_grid.nt, p.states
    pi = np.zeros_like(pv)
    for j in range(nt):
        pi[j] = (1.0 if j == 0 else 1.5) * pv[j + 1]
        if j + 1 < nt:
            pi[j] -= 0.5 * pv[j + 2]
    return pi


def reference_gradients(model, p, u, design, weights):
    """grad_u and grad_r from the nodal pi rows: B*p = <pi_j, b> / theta_j,
    and the design gradient accumulated one time sample at a time."""
    grid, tg = model.grid, p.time_grid
    pi = reference_pi_rows(p)
    b = model.actuator_family.evaluate(design, grid)
    grad_u = 2.0 * (weights.r_scale * u.values + grid.weight * (pi @ b) / tg.weights)
    grad_r = sum(actuator_design_derivative_adjoint(model.actuator_family, design,
                                                    u_j * 2.0 * tg.dt * pi_j, grid)
                 for u_j, pi_j in zip(u.values, pi))
    return grad_u, grad_r


class TestCostWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            po.CostWeights(q_scale=-1.0)
        with pytest.raises(ValueError):
            po.CostWeights(r_scale=0.0)


class TestEvaluateCost:
    def test_zero_everything(self, grid1d_small):
        tg = po.TimeGrid(tau=1.5, nt=6)
        traj = po.Trajectory(tg, np.zeros((7, 32)))
        u = po.ControlSignal.zero(tg)
        assert po.evaluate_cost(traj, u, po.CostWeights(), grid1d_small) == 0.0

    def test_constant_input_only(self, grid1d_small):
        tg = po.TimeGrid(tau=2.0, nt=8)
        traj = po.Trajectory(tg, np.zeros((9, 32)))
        u = po.ControlSignal(tg, np.ones(9))
        cost = po.evaluate_cost(traj, u, po.CostWeights(q_scale=1.0, r_scale=1.0),
                                grid1d_small)
        assert cost == pytest.approx(2.0, rel=1e-14)

    def test_matches_quadrature_loop_oracle(self, rng):
        g = po.build_grid_1d(6)
        tg = po.TimeGrid(tau=0.7, nt=5)
        states = rng.standard_normal((6, 6))
        uv = rng.standard_normal(6)
        weights = po.CostWeights(q_scale=0.8, r_scale=1.7)
        cost = po.evaluate_cost(po.Trajectory(tg, states),
                                po.ControlSignal(tg, uv), weights, g)
        theta = [0.5, 1, 1, 1, 1, 0.5]
        expect = sum(theta[k] * tg.dt * (
            weights.q_scale * sum(g.h * states[k, i] ** 2 for i in range(6))
            + weights.r_scale * uv[k] ** 2) for k in range(6))
        assert cost == pytest.approx(expect, rel=1e-13)

    def test_time_grid_mismatch(self, grid1d_small):
        tg = po.TimeGrid(tau=1.0, nt=4)
        other = po.TimeGrid(tau=1.0, nt=5)
        traj = po.Trajectory(tg, np.zeros((5, 32)))
        with pytest.raises(ValueError):
            po.evaluate_cost(traj, po.ControlSignal.zero(other), po.CostWeights(),
                             grid1d_small)


class TestSolveAdjoint:
    def test_zero_state_weight_gives_zero_adjoint(self, ks_model_small, rng):
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.3, nt=40)
        x0 = 0.2 * np.sin(np.pi * g.nodes)
        traj = po.solve_forward(ks_model_small, None, po.ActuatorDesign.of(0.5), x0, tg)
        p = po.solve_adjoint(ks_model_small, traj, po.CostWeights(q_scale=0.0), tg)
        assert np.all(p.states == 0.0)

    def test_zero_trajectory_gives_zero_adjoint(self, ks_model_small):
        tg = po.TimeGrid(tau=0.3, nt=40)
        traj = po.Trajectory(tg, np.zeros((41, 32)))
        p = po.solve_adjoint(ks_model_small, traj, po.CostWeights(), tg)
        assert np.all(p.states == 0.0)

    def test_scalar_mode_ode_oracle(self):
        # project the linear-heat adjoint on the first eigenmode and compare
        # against a fine backward-Euler integration of p' = mu p - x1(t);
        # the discrete adjoint is O(dt)-consistent (cost source applied at
        # nodes inside midpoint-centered steps), so the defect must shrink
        # linearly under dt refinement
        g = po.build_grid_2d(12, 12)
        model = po.make_heat_model(g, f_scalar=None)
        vals, vecs = np.linalg.eigh(-toarray(model.linear_op))
        mu1, e1 = vals[0], vecs[:, 0]
        e1 = e1 / np.sqrt(g.weight)  # unit norm in the weighted inner product
        x0 = 0.8 * e1

        def defect(nt):
            tg = po.TimeGrid(tau=0.4, nt=nt)
            traj = po.solve_forward(model, None,
                                    model.actuator_family.initial_design(), x0, tg)
            p = po.solve_adjoint(model, traj, po.CostWeights(q_scale=1.0), tg)
            x1 = traj.states @ e1 * g.weight
            p1 = p.states @ e1 * g.weight
            refine = 100
            dt_f = tg.dt / refine
            p_ref = np.zeros(tg.nt * refine + 1)
            grid_f = np.linspace(0, tg.tau, tg.nt * refine + 1)
            x1_fine = np.interp(grid_f, tg.times, x1)
            for m in range(tg.nt * refine, 0, -1):
                # backward Euler in reverse time on p' = mu p - q x1
                p_ref[m - 1] = (p_ref[m] + dt_f * x1_fine[m - 1]) / (1.0 + dt_f * mu1)
            return np.max(np.abs(p1 - p_ref[::refine])) / np.max(np.abs(p_ref))

        d200, d400 = defect(200), defect(400)
        assert d400 < 2.5e-2
        assert d400 < 0.65 * d200

    def test_terminal_value_order_dt(self, heat_model_linear):
        g = heat_model_linear.grid
        x0 = first_mode_2d(g, 1.0)
        norms = []
        for nt in (50, 100):
            tg = po.TimeGrid(tau=0.2, nt=nt)
            traj = po.solve_forward(heat_model_linear, None,
                                    heat_model_linear.actuator_family.initial_design(),
                                    x0, tg)
            p = po.solve_adjoint(heat_model_linear, traj, po.CostWeights(), tg)
            norms.append(l2_norm(p.states[-1], g))
        # p(tau) = O(dt): halves when dt halves
        assert norms[1] < 0.6 * norms[0]


class TestDiscreteAdjointIdentity:
    def test_ks(self, rng):
        g = po.build_grid_1d(48)
        model = po.make_ks_model(g, lam=30.0)
        tg = po.TimeGrid(tau=0.5, nt=60)
        x0 = smooth_clamped(g, 0.4)
        u = po.ControlSignal(tg, 0.3 * np.sin(2 * np.pi * tg.times))
        traj = po.solve_forward(model, u, po.ActuatorDesign.of(0.5), x0, tg)
        for _ in range(3):
            assert spacetime_identity_error(model, traj, tg, rng) < 1e-11

    def test_heat(self, heat_model_small, rng):
        g = heat_model_small.grid
        tg = po.TimeGrid(tau=0.5, nt=60)
        x0 = first_mode_2d(g, 0.7)
        u = po.ControlSignal(tg, 0.3 * np.cos(2 * np.pi * tg.times))
        traj = po.solve_forward(heat_model_small, u,
                                heat_model_small.actuator_family.initial_design(),
                                x0, tg)
        for _ in range(3):
            assert spacetime_identity_error(heat_model_small, traj, tg, rng) < 1e-11


    @pytest.mark.parametrize("kind", ["ks", "ks-linear", "heat", "heat-linear"])
    def test_initial_row(self, kind, rng):
        """dt sum_{k=0..nt} <h_k, phi_k> = <d, lam_0> for the linearized
        stepper started at h_0 = d: pins lam_0, the gradient row, which the
        identity above leaves out."""
        if kind.startswith("ks"):
            g = po.build_grid_1d(48)
            model = po.make_ks_model(g, lam=30.0, linear=kind == "ks-linear")
            x0 = smooth_clamped(g, 0.4)
        else:
            g = po.build_grid_2d(8, 8)
            model = po.make_heat_model(g, f_scalar=None if kind == "heat-linear"
                                       else po.CUBIC_SINK)
            x0 = first_mode_2d(g, 0.7)
        tg = po.TimeGrid(tau=0.5, nt=60)
        u = po.ControlSignal(tg, 0.3 * np.sin(2 * np.pi * tg.times))
        traj = po.solve_forward(model, u, model.actuator_family.initial_design(), x0, tg)
        jac, x = model.jacobian_apply, traj.states
        term = None if jac is None else lambda k, h: jac(x[k], h)
        for _ in range(3):
            d = rng.standard_normal(g.size)
            phi = rng.standard_normal(x.shape)
            h = cn_ab2_sweep(model.linear_op, tg, d, None, term)
            lam = adjoint_sweep(model, traj, tg, phi.copy())
            lhs = tg.dt * float(np.sum(h * phi))
            assert abs(lhs - float(d @ lam[0])) / abs(lhs) < 1e-11


    def test_refuses_a_source_it_cannot_write_over(self, heat_model_small):
        # the sweep writes lam over nodal source rows: a modal-shaped or a
        # transposed source is refused, not read in the wrong coordinates
        g = heat_model_small.grid
        tg = po.TimeGrid(tau=0.1, nt=4)
        traj = po.solve_forward(heat_model_small, None,
                                heat_model_small.actuator_family.initial_design(),
                                first_mode_2d(g), tg)
        for source in (np.zeros((tg.nt + 1, g.ny, g.nx)), np.zeros((g.size, tg.nt + 1)).T):
            with pytest.raises(ValueError, match="C-contiguous nodal rows"):
                adjoint_sweep(heat_model_small, traj, tg, source)


class TestAssembleGradients:
    def test_zero_adjoint_collapses_formulas(self, ks_model_small, rng):
        # q = 0 forces p = 0, so grad_u = 2 rho u (the honest derivative of
        # the input term), grad_r = 0, grad_x0 = 0
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.3, nt=30)
        weights = po.CostWeights(q_scale=0.0, r_scale=1.3)
        u = po.ControlSignal(tg, rng.standard_normal(tg.nt + 1))
        design = po.ActuatorDesign.of(0.5)
        x0 = 0.1 * np.sin(np.pi * g.nodes)
        bundle, traj = compute_bundle(ks_model_small, u, design, x0, weights, tg)
        assert np.all(solve_adjoint(ks_model_small, traj, weights, tg).states == 0.0)
        assert bundle.grad_u == pytest.approx(2 * 1.3 * u.values, rel=1e-14)
        assert np.all(bundle.grad_r == 0.0)
        assert np.all(bundle.grad_x0 == 0.0)

    def test_zero_input_kills_design_gradient(self, ks_model_small):
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.3, nt=30)
        u = po.ControlSignal.zero(tg)
        x0 = 0.2 * np.sin(np.pi * g.nodes)
        bundle, _ = compute_bundle(ks_model_small, u, po.ActuatorDesign.of(0.4),
                                   x0, po.CostWeights(), tg)
        assert np.all(bundle.grad_r == 0.0)

    def test_reference_pi_rows_ends(self, rng):
        tg = po.TimeGrid(tau=1.0, nt=6)
        p = po.Trajectory(tg, rng.standard_normal((7, 4)))
        pi_raw = reference_pi_rows(p)
        assert np.all(pi_raw[-1] == 0.0)
        assert pi_raw[tg.nt - 1] == pytest.approx(1.5 * p.states[tg.nt])

    @pytest.mark.parametrize("nt", [2, 3, 30])
    @pytest.mark.parametrize("kind", ["ks", "heat-linear", "heat"])
    def test_matches_reference_pi_rows(self, kind, nt, rng):
        """The rank-one pairings (B*p from <p_k, b>, the design integral from
        the AB2 weights of u) equal the nodal pi-row assembly; nt = 2 leaves
        the interior slices empty."""
        if kind == "ks":
            # off the symmetric center r = 0.5, where grad_r is a cancellation
            # residue of the mirror-symmetric state and measures only rounding
            g = po.build_grid_1d(32)
            model, x0 = po.make_ks_model(g, lam=30.0), smooth_clamped(g, 0.4)
            design = po.ActuatorDesign.of(0.3)
        else:
            g = po.build_grid_2d(8, 8)
            model = po.make_heat_model(g, f_scalar=None if kind == "heat-linear"
                                       else po.CUBIC_SINK)
            x0 = first_mode_2d(g, 0.7)
            design = model.actuator_family.initial_design()
        tg = po.TimeGrid(tau=0.2, nt=nt)
        u = po.ControlSignal(tg, rng.standard_normal(nt + 1))
        weights = po.CostWeights(r_scale=0.1)
        bundle, traj = compute_bundle(model, u, design, x0, weights, tg)
        want_u, want_r = reference_gradients(model, solve_adjoint(model, traj, weights, tg),
                                             u, design, weights)
        for got, want in ((bundle.grad_u, want_u), (bundle.grad_r, want_r)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestAllocation:
    """On a nonlinear model a solve forms no trajectory-sized array besides
    the one it returns: the input rides the forward term N = F + b u, and
    the adjoint writes the costate over its nodal source.  32x32 cubic heat
    with u != 0, and KS with n = 128."""

    @pytest.fixture(scope="class")
    def case(self):
        g = po.build_grid_2d(32, 32)
        model = po.make_heat_model(g)
        tg = po.TimeGrid(tau=0.1, nt=100)
        u = po.ControlSignal(tg, np.random.default_rng(0).standard_normal(tg.nt + 1))
        design, weights = model.actuator_family.initial_design(), po.CostWeights()
        x0 = first_mode_2d(g)
        traj = po.solve_forward(model, u, design, x0, tg)  # builds the eigenbasis
        p = solve_adjoint(model, traj, weights, tg)
        return model, u, design, x0, weights, traj, p

    def test_solve_forward_peak(self, case):
        model, u, design, x0, _, traj, _ = case
        got, peak = traced_peak(lambda: po.solve_forward(model, u, design, x0, traj.time_grid))
        assert peak < 1.5 * got.states.nbytes

    def test_solve_forward_peak_ks(self):
        g = po.build_grid_1d(128)
        model = po.make_ks_model(g, lam=30.0)
        tg = po.TimeGrid(tau=0.2, nt=400)
        u = po.ControlSignal(tg, np.random.default_rng(0).standard_normal(tg.nt + 1))
        design, x0 = po.ActuatorDesign.of(0.3), smooth_clamped(g, 0.4)
        model.linear_op.basis  # built outside the traced call
        got, peak = traced_peak(lambda: po.solve_forward(model, u, design, x0, tg))
        assert peak < 1.5 * got.states.nbytes

    def test_solve_forward_peak_linear(self, case):
        # the linear sweep holds the modal source, the modal trajectory and
        # one GEMM intermediate; the nodal rows go back over the modal ones
        model, u, design, x0, _, traj, _ = case
        linear = po.make_heat_model(model.grid, f_scalar=None)
        linear.linear_op.basis  # built outside the traced call
        got, peak = traced_peak(lambda: po.solve_forward(linear, u, design, x0,
                                                         traj.time_grid))
        assert peak < 3.5 * got.states.nbytes

    def test_assemble_gradients_peak(self, case):
        model, u, design, _, weights, traj, p = case
        _, peak = traced_peak(lambda: assemble_gradients(model, traj, p, u, design, weights))
        assert peak < 0.5 * p.states.nbytes

    def test_solve_adjoint_peak(self, case):
        model, _, _, _, weights, traj, p = case
        _, peak = traced_peak(lambda: solve_adjoint(model, traj, weights, traj.time_grid))
        assert peak < 1.5 * p.states.nbytes

    def test_solve_adjoint_peak_ks(self):
        # the nodal source, which becomes p, is the adjoint's only
        # trajectory-sized array
        g = po.build_grid_1d(128)
        model = po.make_ks_model(g, lam=30.0)
        tg = po.TimeGrid(tau=0.2, nt=400)
        u = po.ControlSignal(tg, np.random.default_rng(0).standard_normal(tg.nt + 1))
        weights = po.CostWeights()
        traj = po.solve_forward(model, u, po.ActuatorDesign.of(0.3),
                                smooth_clamped(g, 0.4), tg)  # builds the eigenbasis
        p, peak = traced_peak(lambda: solve_adjoint(model, traj, weights, tg))
        assert peak < 1.5 * p.states.nbytes

    def test_minimize_joint_peak(self, case):
        # one trajectory lives between iterations: an Armijo trial's solve
        # holds the current one beside the trial's, and an accepted step's
        # compute_bundle holds the new one beside its costate, after the
        # previous iterate's trajectory has been dropped
        model, _, _, x0, weights, traj, _ = case
        sets = po.AdmissibleSets(family=model.actuator_family)
        (_, _, report), peak = traced_peak(lambda: po.minimize_joint(
            model, sets, weights, x0, traj.time_grid, po.OptimizerConfig()))
        assert len(report.iterations) >= 2  # at least one accepted step
        assert peak < 2.5 * traj.states.nbytes


class TestGradientCheck:
    def test_ks_small_amplitude(self):
        g = po.build_grid_1d(48)
        model = po.make_ks_model(g, lam=30.0)
        tg = po.TimeGrid(tau=0.5, nt=100)
        u = po.ControlSignal(tg, 0.2 * np.sin(2 * np.pi * tg.times))
        x0 = 0.1 * np.sin(np.pi * g.nodes)
        report = po.gradient_check(model, u, po.ActuatorDesign.of(0.4), x0,
                                   po.CostWeights(), tg, seed=5)
        assert report.ok
        assert report.max_rel_error < 1e-5

    def test_linear_heat_near_exact(self, heat_model_linear):
        g = heat_model_linear.grid
        tg = po.TimeGrid(tau=0.5, nt=80)
        u = po.ControlSignal(tg, 0.3 * np.cos(np.pi * tg.times))
        x0 = first_mode_2d(g, 0.6)
        d = heat_model_linear.actuator_family.initial_design()
        report = po.gradient_check(heat_model_linear, u, d, x0, po.CostWeights(), tg,
                                   seed=6)
        assert report.max_rel_error < 1e-7

    def test_large_epsilon_report_well_formed(self, ks_model_small):
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.2, nt=20)
        u = po.ControlSignal(tg, 0.1 * np.ones(tg.nt + 1))
        x0 = 0.1 * np.sin(np.pi * g.nodes)
        report = po.gradient_check(ks_model_small, u, po.ActuatorDesign.of(0.5), x0,
                                   po.CostWeights(), tg, epsilon_list=(1e-1,), seed=7)
        payload = report.to_dict()
        assert set(payload) == {"tolerance", "ok", "best_errors", "rows"}
        assert {row["variable"] for row in payload["rows"]} >= {"u", "x0"}
