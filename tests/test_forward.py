import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdeopt as po
from pdeopt.exceptions import BlowUpError, NotApplicableError
from pdeopt.models import ScalarNonlinearity

from conftest import first_mode_2d, smooth_clamped


class TestTimeGridAndSignals:
    def test_time_grid_validation(self):
        with pytest.raises(ValueError):
            po.TimeGrid(tau=1.0, nt=1)
        with pytest.raises(ValueError):
            po.TimeGrid(tau=-1.0, nt=10)

    def test_control_shape_checked(self):
        tg = po.TimeGrid(tau=1.0, nt=10)
        with pytest.raises(ValueError):
            po.ControlSignal(tg, np.zeros(10))

    def test_control_l2_norm_trapezoid(self):
        tg = po.TimeGrid(tau=2.0, nt=4)
        u = po.ControlSignal(tg, np.ones(5))
        assert tg.norm(u.values) == pytest.approx(np.sqrt(2.0))

    def test_trapezoid_weights(self):
        th = po.TimeGrid(tau=1.0, nt=4).weights
        assert list(th) == [0.5, 1.0, 1.0, 1.0, 0.5]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(tau=st.floats(1e-3, 1e3), nt=st.integers(2, 500), seed=st.integers(0, 2**16))
    def test_inner_symmetric_and_exact_on_linear_signals(self, tau, nt, seed):
        tg = po.TimeGrid(tau=tau, nt=nt)
        f, g = np.random.default_rng(seed).standard_normal((2, nt + 1))
        assert tg.inner(f, g) == pytest.approx(tg.inner(g, f), rel=1e-14)
        # the trapezoid rule integrates the linear t exactly: int_0^tau t dt
        assert tg.inner(np.ones(nt + 1), tg.times) == pytest.approx(0.5 * tau**2, rel=1e-12)


class TestSolveForward:
    def test_zero_equilibrium_exact(self, ks_model_small):
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.5, nt=50)
        traj = po.solve_forward(ks_model_small, po.ControlSignal.zero(tg),
                                po.ActuatorDesign.of(0.5), np.zeros(g.size), tg)
        assert np.all(traj.states == 0.0)

    def test_linear_heat_eigen_decay(self):
        g = po.build_grid_2d(16, 16)
        model = po.make_heat_model(g, f_scalar=None)
        vals, vecs = np.linalg.eigh(-model.linear_op.toarray())
        mu1, e1 = vals[0], vecs[:, 0]
        tg = po.TimeGrid(tau=0.1, nt=200)
        traj = po.solve_forward(model, None, model.actuator_family.initial_design(),
                                e1, tg)
        expect = np.exp(-mu1 * tg.times)[:, None] * e1[None, :]
        rel = np.max(np.abs(traj.states - expect)) / np.max(np.abs(expect))
        assert rel < 5e-4  # O(dt^2) against the discrete eigen-decay oracle

    def test_ks_uncontrolled_energy_decay(self):
        g = po.build_grid_1d(128)
        model = po.make_ks_model(g, lam=30.0)
        tg = po.TimeGrid(tau=0.5, nt=200)
        x0 = 0.1 * np.sin(np.pi * g.nodes)
        traj = po.solve_forward(model, None, po.ActuatorDesign.of(0.5), x0, tg)
        energy = po.energy_trace(traj, g)
        assert np.all(np.diff(energy) < 0)

    def test_linear_superposition(self, rng):
        g = po.build_grid_1d(48)
        model = po.make_ks_model(g, lam=20.0, linear=True)
        tg = po.TimeGrid(tau=0.2, nt=80)
        d = po.ActuatorDesign.of(0.4)
        zero = np.zeros(g.size)
        u1 = po.ControlSignal(tg, rng.standard_normal(tg.nt + 1))
        u2 = po.ControlSignal(tg, rng.standard_normal(tg.nt + 1))
        both = po.ControlSignal(tg, u1.values + u2.values)
        t1 = po.solve_forward(model, u1, d, zero, tg)
        t2 = po.solve_forward(model, u2, d, zero, tg)
        t12 = po.solve_forward(model, both, d, zero, tg)
        scale = np.max(np.abs(t12.states))
        assert np.max(np.abs(t12.states - t1.states - t2.states)) < 1e-10 * scale

    def test_blow_up_reports_step(self):
        g = po.build_grid_1d(64)
        model = po.make_ks_model(g, lam=30.0)
        tg = po.TimeGrid(tau=1.0, nt=50)
        x0 = 4e3 * np.sin(np.pi * g.nodes)
        with pytest.raises(BlowUpError) as err:
            po.solve_forward(model, None, po.ActuatorDesign.of(0.5), x0, tg)
        assert 1 <= err.value.step <= tg.nt

    def test_initial_state_preserved(self, heat_model_small, rng):
        g = heat_model_small.grid
        tg = po.TimeGrid(tau=0.1, nt=20)
        x0 = 0.1 * rng.standard_normal(g.size)
        traj = po.solve_forward(heat_model_small, None,
                                heat_model_small.actuator_family.initial_design(),
                                x0, tg)
        assert np.array_equal(traj.initial, x0)
        assert np.all(np.isfinite(traj.states))

    def test_nonlinearity_overflow_is_a_blowup(self, grid2d_small):
        # z^3 of a finite state overflows: the stepper reports the step
        growth = ScalarNonlinearity(value=lambda z: z**3, derivative=lambda z: 3 * z**2,
                                    sign_condition=False)
        model = po.make_heat_model(grid2d_small, f_scalar=growth)
        tg = po.TimeGrid(tau=0.1, nt=10)
        x0 = first_mode_2d(grid2d_small, 1e110)
        with pytest.raises(BlowUpError) as err:
            po.solve_forward(model, None, model.actuator_family.initial_design(), x0, tg)
        assert err.value.step == 1
        assert "nonlinearity overflowed" in str(err.value)


class TestEnergyTrace:
    def test_zero_trajectory(self, grid1d_small):
        tg = po.TimeGrid(tau=1.0, nt=4)
        traj = po.Trajectory(tg, np.zeros((5, 32)))
        assert np.all(po.energy_trace(traj, grid1d_small) == 0.0)

    def test_constant_state(self, grid1d_small):
        tg = po.TimeGrid(tau=1.0, nt=3)
        state = np.sin(grid1d_small.nodes)
        traj = po.Trajectory(tg, np.tile(state, (4, 1)))
        trace = po.energy_trace(traj, grid1d_small)
        assert np.all(trace == trace[0])

    def test_matches_summation_oracle(self, rng):
        g = po.build_grid_1d(8)
        tg = po.TimeGrid(tau=1.0, nt=3)
        states = rng.standard_normal((4, 8))
        traj = po.Trajectory(tg, states)
        trace = po.energy_trace(traj, g)
        for k in range(4):
            assert trace[k] == pytest.approx(
                sum(g.weight * states[k, i] ** 2 for i in range(8)), rel=1e-13)


class TestKsBound:
    def test_uncontrolled_margin_is_energy_drop(self):
        g = po.build_grid_1d(64)
        model = po.make_ks_model(g, lam=30.0)
        tg = po.TimeGrid(tau=0.5, nt=100)
        x0 = 0.2 * np.sin(np.pi * g.nodes)
        u = po.ControlSignal.zero(tg)
        traj = po.solve_forward(model, u, po.ActuatorDesign.of(0.5), x0, tg)
        margin = po.verify_ks_bound(traj, u, po.ActuatorDesign.of(0.5), model)
        energy = po.energy_trace(traj, g)
        assert margin == pytest.approx(energy[0] - energy[-1], rel=1e-12)
        assert margin >= 0

    def test_above_threshold_not_applicable(self, grid1d_small):
        tg = po.TimeGrid(tau=0.5, nt=10)
        traj = po.Trajectory(tg, np.zeros((11, 32)))
        u = po.ControlSignal.zero(tg)
        with pytest.raises(NotApplicableError):
            po.verify_ks_bound(traj, u, po.ActuatorDesign.of(0.5),
                               po.make_ks_model(grid1d_small, lam=39.5))


class TestHeatIssBound:
    def test_uncontrolled_margin_nonnegative(self, heat_model_small):
        g = heat_model_small.grid
        tg = po.TimeGrid(tau=0.5, nt=100)
        x0 = first_mode_2d(g, amplitude=0.5)
        u = po.ControlSignal.zero(tg)
        d = heat_model_small.actuator_family.initial_design()
        traj = po.solve_forward(heat_model_small, u, d, x0, tg)
        assert po.verify_heat_iss_bound(traj, u, d, heat_model_small) >= 0

    def test_zero_data_margin_zero(self, heat_model_small):
        g = heat_model_small.grid
        tg = po.TimeGrid(tau=0.5, nt=10)
        u = po.ControlSignal.zero(tg)
        d = heat_model_small.actuator_family.initial_design()
        traj = po.solve_forward(heat_model_small, u, d, np.zeros(g.size), tg)
        assert po.verify_heat_iss_bound(traj, u, d, heat_model_small) == 0.0

    def test_missing_sign_condition(self, grid2d_small):
        growth = ScalarNonlinearity(value=lambda z: z**3,
                                    derivative=lambda z: 3 * z**2,
                                    sign_condition=False)
        model = po.make_heat_model(grid2d_small, f_scalar=growth)
        tg = po.TimeGrid(tau=0.1, nt=10)
        u = po.ControlSignal.zero(tg)
        d = model.actuator_family.initial_design()
        traj = po.Trajectory(tg, np.zeros((11, grid2d_small.size)))
        with pytest.raises(NotApplicableError):
            po.verify_heat_iss_bound(traj, u, d, model)


class TestExports:
    def test_csv_round_trip_values(self, tmp_path, ks_model_small):
        g = ks_model_small.grid
        tg = po.TimeGrid(tau=0.1, nt=5)
        x0 = smooth_clamped(g, 0.3)
        traj = po.solve_forward(ks_model_small, None, po.ActuatorDesign.of(0.5), x0, tg)
        path = tmp_path / "traj.csv"
        po.trajectory_to_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,x_000000")
        assert len(lines) == tg.nt + 2
        row1 = np.array([float(tok) for tok in lines[1].split(",")])
        assert row1[0] == 0.0
        assert row1[1:] == pytest.approx(x0, rel=1e-15)

    def test_checkpoint_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "notatraj.bin"
        path.write_bytes(b"CSVHEADER whatever")
        with pytest.raises(ValueError):
            po.load_checkpoint(path)

    @pytest.mark.parametrize("which", ["ks", "heat"])
    def test_checkpoint_round_trip(self, tmp_path, which, rng):
        if which == "ks":
            grid = po.build_grid_1d(16)
        else:
            grid = po.build_grid_2d(5, 4, dirichlet_sides=("left", "right"))
        tg = po.TimeGrid(tau=0.3, nt=7)
        states = rng.standard_normal((8, grid.size))
        traj = po.Trajectory(tg, states)
        path = tmp_path / "traj.bin"
        po.save_checkpoint(traj, grid, path)
        loaded, grid2 = po.load_checkpoint(path)
        assert loaded.time_grid == tg
        assert np.array_equal(loaded.states, states)
        assert grid2.size == grid.size
        if which == "heat":
            assert grid2.dirichlet == grid.dirichlet
