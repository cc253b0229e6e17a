import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh, expm, sqrtm

import pdeopt as po
from pdeopt import riccati
from pdeopt.config import ExperimentConfig
from pdeopt.grids import LinearOperator, SpectralBasis
from pdeopt.riccati import closed_loop_simulate, solve_differential_riccati, \
    verify_feedback_consistency, worst_ic_eigen_check

from conftest import first_mode_2d, smooth_clamped, toarray, traced_peak


def scalar_op(a=0.0):
    return LinearOperator(factors=(np.array([[a]]),))


def reference_split_riccati(a_op, b_vec, weights, tg, state_weight, along):
    """The Strang-split sweep on dense nodal matrices, with no eigenbasis: the
    half Lyapunov step is Pi <- E Pi E + q G with E = expm(A h/2) and
    G = int_0^{h/2} e^{2 A s} ds, both read off Van Loan's block exponential
    expm([[-A, I], [0, A]] h/2) = [[., F], [0, E]] as E and E^T F; the
    rank-one step is Pi <- Pi - (h s / (1 + h s b^T y)) y y^T with y = Pi b
    (Sherman-Morrison).  No step bound and no PSD check.  Returns the nodal
    Pi(0), the gains and Pi(t_k) along[k].
    """
    a, n = toarray(a_op), b_vec.size
    h, s, q = tg.dt, state_weight / weights.r_scale, weights.q_scale
    block = expm(np.block([[-a, np.eye(n)], [np.zeros((n, n)), a]]) * (0.5 * h))
    e = block[n:, n:]
    g = e.T @ block[:n, n:]
    g = 0.5 * q * (g + g.T)

    def half_lyapunov(p):
        return e @ p @ e.T + g

    gains, pix = np.zeros((tg.nt + 1, n)), np.zeros((tg.nt + 1, n))
    p = np.zeros((n, n))
    for k in range(tg.nt - 1, -1, -1):
        p = half_lyapunov(p)
        y = p @ b_vec
        p = half_lyapunov(p - (h * s / (1.0 + h * s * (b_vec @ y))) * np.outer(y, y))
        gains[k] = s * (p @ b_vec)
        pix[k] = p @ along[k]
    return p, gains, pix


def assert_rel_close(got, want, rel):
    # plus one unit in the last place of max|want|: where the outputs are
    # subnormal, rel * max|want| is below one unit, and two float computations
    # of the same value need not agree bit for bit
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rel * scale + np.spacing(scale)


def stable_problem(n, seed, b_norm, q_scale, r_scale, tau, nt, state_weight, check_every):
    """A symmetric stable n x n operator with b of norm ``b_norm``, the cost
    weights, the state weight, a time grid, a PSD check interval and a
    trajectory to carry Pi along; the operator, the direction of b and the
    trajectory come from ``seed``."""
    rng = np.random.default_rng(seed)
    lams = -np.exp(rng.uniform(np.log(0.1), np.log(50.0), n))
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    f = basis @ np.diag(lams) @ basis.T
    b = rng.standard_normal(n)
    b *= b_norm / np.linalg.norm(b)
    tg = po.TimeGrid(tau=tau, nt=nt)
    return (LinearOperator(factors=(0.5 * (f + f.T),)), b, po.CostWeights(q_scale, r_scale),
            tg, state_weight, check_every, rng.standard_normal((tg.nt + 1, n)))


@st.composite
def stable_problems(draw):
    """stable_problem over the ranges it means to cover: n <= 6 modes with
    eigenvalues in [-50, -0.1], b_norm in [0.1, 1], q_scale 0 or in
    [1e-290, 2] (so that Pi, the gains and along are zero or normal floats),
    r_scale in [1, 10], tau in [0.1, 1], 10 to 60 steps (so the low-rank
    factor is compressed at least once), state_weight in [0.1, 1] and a PSD
    check every 1 to 20 steps.  There h s b^T Pi b <= 0.2, so no step is
    refused."""
    return stable_problem(
        n=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**16)),
        b_norm=draw(st.floats(0.1, 1.0)),
        q_scale=draw(st.one_of(st.just(0.0), st.floats(1e-290, 2.0))),
        r_scale=draw(st.floats(1.0, 10.0)), tau=draw(st.floats(0.1, 1.0)),
        nt=draw(st.integers(10, 60)), state_weight=draw(st.floats(0.1, 1.0)),
        check_every=draw(st.integers(1, 20)))


class TestScalarOracles:
    def test_tanh_closed_form(self):
        tg = po.TimeGrid(tau=1.0, nt=1000)
        ric = solve_differential_riccati(scalar_op(0.0), np.ones(1),
                                         po.CostWeights(1.0, 1.0), tg,
                                         along=np.ones((tg.nt + 1, 1)))
        pis = np.array([ric.along[k, 0] for k in range(0, tg.nt + 1, 100)])
        expect = np.tanh(1.0 - tg.times[::100])
        assert np.max(np.abs(pis - expect)) < 1e-6

    def test_zero_state_weight(self):
        tg = po.TimeGrid(tau=1.0, nt=50)
        ric = solve_differential_riccati(scalar_op(-2.0), np.ones(1),
                                         po.CostWeights(0.0, 1.0), tg,
                                         along=np.ones((tg.nt + 1, 1)))
        assert all(ric.along[k, 0] == 0.0 for k in range(tg.nt + 1))

    def test_terminal_condition(self):
        tg = po.TimeGrid(tau=0.7, nt=40)
        ric = solve_differential_riccati(scalar_op(-1.0), np.ones(1),
                                         po.CostWeights(2.0, 0.5), tg,
                                         along=np.ones((tg.nt + 1, 1)))
        assert np.all(ric.along[tg.nt] == 0.0)


class TestAgainstDenseSplitReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problem=stable_problems())
    # the edges of stable_problems: one mode and q_scale = 0 (Pi stays zero);
    # six modes at the strongest quadratic term, the longest step and the
    # sparsest PSD checks; six modes at the smallest nonzero q_scale and the
    # most steps
    @example(problem=stable_problem(n=1, seed=0, b_norm=0.1, q_scale=0.0, r_scale=10.0,
                                    tau=0.1, nt=10, state_weight=0.1, check_every=1))
    @example(problem=stable_problem(n=6, seed=2**16, b_norm=1.0, q_scale=2.0, r_scale=1.0,
                                    tau=1.0, nt=10, state_weight=1.0, check_every=20))
    @example(problem=stable_problem(n=6, seed=7, b_norm=1.0, q_scale=1e-290, r_scale=1.0,
                                    tau=0.1, nt=60, state_weight=1.0, check_every=1))
    def test_matches_reference_sweep(self, problem):
        a_op, b, weights, tg, state_weight, check_every, xs = problem
        ric = solve_differential_riccati(a_op, b, weights, tg, state_weight=state_weight,
                                         check_every=check_every, along=xs)
        pi0, gains, along = reference_split_riccati(a_op, b, weights, tg, state_weight, xs)
        assert_rel_close(ric.pi0, pi0, 1e-12)
        assert_rel_close(ric.gains, gains, 1e-12)
        assert_rel_close(ric.along, along, 1e-12)


class TestSecondOrder:
    @pytest.mark.parametrize("kind", ["heat", "ks"])
    def test_order_against_sixteen_times_finer_run(self, kind):
        # the gains at the coarse times, against a run on a 16x finer step:
        # Strang splitting with exact sub-flows is second order, so each of
        # three halvings of the step must cut the error by 2^1.8 or more
        if kind == "heat":
            g = po.build_grid_2d(8, 8)
            model = po.make_heat_model(g, f_scalar=None)
            design, tau, nt = model.actuator_family.initial_design(), 0.2, 10
        else:
            g = po.build_grid_1d(48)
            model = po.make_ks_model(g, lam=30.0, linear=True)
            design, tau, nt = po.ActuatorDesign.of(0.5), 0.2, 40
        b = model.actuator_family.evaluate(design, g)
        weights = po.CostWeights(1.0, 1e-2)

        def gains(steps):
            return solve_differential_riccati(model.linear_op, b, weights,
                                              po.TimeGrid(tau, steps),
                                              state_weight=g.weight).gains

        fine = gains(16 * nt)
        errors = []
        for steps in (nt, 2 * nt, 4 * nt, 8 * nt):
            want = fine[::16 * nt // steps]
            errors.append(np.max(np.abs(gains(steps) - want)) / np.max(np.abs(want)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.8), (errors, orders)


class TestUnstableOperators:
    @pytest.mark.parametrize("nt", [1000, 2000])
    def test_scalar_matches_closed_form(self, nt):
        # a = 30 > 0, q = s = 1: pi(t) = q sinh(g r) / (g cosh(g r) - a sinh(g r))
        # with g = sqrt(a^2 + q s) and r = tau - t, the solution of
        # pi' = -2 a pi - q + s pi^2, pi(tau) = 0.  The split sweep's error is
        # second order: (a h)^2 / 6 of max pi to three digits at nt 1000 to
        # 4000, and the bound allows 10 % over that
        a, tau = 30.0, 1.0
        tg = po.TimeGrid(tau, nt)
        ric = solve_differential_riccati(scalar_op(a), np.ones(1), po.CostWeights(1.0, 1.0),
                                         tg, check_every=1, along=np.ones((nt + 1, 1)))
        gam, rest = math.sqrt(a * a + 1.0), tau - tg.times
        want = np.sinh(gam * rest) / (gam * np.cosh(gam * rest) - a * np.sinh(gam * rest))
        bound = 1.1 * (a * tg.dt) ** 2 / 6 * np.max(want)
        assert np.max(np.abs(ric.along[:, 0] - want)) <= bound
        np.testing.assert_array_equal(ric.gains, ric.along)

    def test_linear_ks_takes_dense_storage_and_stays_psd(self, monkeypatch):
        # linear KS at lambda = 60 has eigenvalues up to 278, where D - Z Z^T
        # would cancel: the sweep must keep Pi dense and still return a
        # finite PSD Pi(0).  Every map of a step multiplies entries (i, j)
        # and (j, i) by the same float, so the modal Pi stays symmetric bit
        # for bit
        def no_low_rank(*args):
            raise AssertionError("an unstable operator took the low-rank storage")

        monkeypatch.setattr(riccati, "_LowRankPi", no_low_rank)
        g = po.build_grid_1d(64)
        model = po.make_ks_model(g, lam=60.0, linear=True)
        assert model.linear_op.basis.values.max() > 0
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)
        ric = solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                         po.TimeGrid(tau=0.5, nt=800),
                                         state_weight=g.weight, check_every=1)
        np.testing.assert_array_equal(ric.modal[0], ric.modal[0].T)
        pi0 = ric.pi0
        assert np.all(np.isfinite(pi0))
        evs = eigvalsh(pi0)
        assert evs[0] >= -1e-8 * evs[-1]


class TestStepBound:
    @staticmethod
    def _heat_4x4():
        g = po.build_grid_2d(4, 4)
        model = po.make_heat_model(g, f_scalar=None)
        return g, model, model.actuator_family.evaluate(
            model.actuator_family.initial_design(), g)

    def test_refused_above_one_accepted_below(self):
        # 4x4 linear heat at nt = 400: the largest h s b^T Pi b is 0.46 at
        # q_scale 1e7 and 2.2 at 1e8
        g, model, b = self._heat_4x4()
        tg = po.TimeGrid(tau=1.0, nt=400)
        pi0 = solve_differential_riccati(model.linear_op, b, po.CostWeights(1e7, 1.0), tg,
                                         state_weight=g.weight).pi0
        assert np.all(np.isfinite(pi0))
        with pytest.raises(po.StepSizeError, match="> 1"):
            solve_differential_riccati(model.linear_op, b, po.CostWeights(1e8, 1.0), tg,
                                       state_weight=g.weight)

    def test_bound_follows_the_step(self):
        # a = 2.2 at r_scale 1e-8 on 16x16 heat at nt = 400, so nt = 400
        # is refused and nt = 2000 is not
        g = po.build_grid_2d(16, 16)
        model = po.make_heat_model(g, f_scalar=None)
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)
        weights = po.CostWeights(1.0, 1e-8)
        with pytest.raises(po.StepSizeError):
            solve_differential_riccati(model.linear_op, b, weights,
                                       po.TimeGrid(tau=1.0, nt=400), state_weight=g.weight)
        pi0 = solve_differential_riccati(model.linear_op, b, weights,
                                         po.TimeGrid(tau=1.0, nt=2000),
                                         state_weight=g.weight, check_every=100).pi0
        assert np.all(np.isfinite(pi0))


class TestNonFinite:
    # q_scale = 1e308 overflows Pi_00, which b = e_1 does not see, so y = Pi b
    # picks up 0 * inf = nan; r_scale = 1e308 keeps h s b^T Pi b under 1
    @pytest.mark.parametrize("lam0", [-0.1, 1.0], ids=["low-rank", "dense"])
    def test_overflow_raises(self, lam0):
        a_op = LinearOperator(factors=(np.diag([lam0, -1.0]),))
        with pytest.raises(po.PdeoptError, match="not finite"):
            solve_differential_riccati(a_op, np.array([0.0, 1.0]), po.CostWeights(1e308, 1e308),
                                       po.TimeGrid(20.0, 10), check_every=1000)


class TestLowRankStorage:
    @staticmethod
    def _dense_twin(monkeypatch):
        """Make every sweep keep the dense storage, whatever the operator."""
        monkeypatch.setattr(riccati, "_LowRankPi", riccati._DensePi)

    @pytest.mark.parametrize("r_scale", [1.0, 1e-6])
    def test_compression_matches_dense_split(self, r_scale, rng, monkeypatch):
        # the same split steps on D - Z Z^T (compressed every COMPRESS_EVERY
        # steps) and on a dense Pi agree to 1e-12, while the rank stays far
        # below n
        g = po.build_grid_2d(16, 16)
        model = po.make_heat_model(g, f_scalar=None)
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)
        tg = po.TimeGrid(tau=1.0, nt=200)
        xs = rng.standard_normal((tg.nt + 1, g.size))
        ranks = []

        class Recorded(riccati._LowRankPi):
            def compress(self):
                super().compress()
                ranks.append(self.rank)

        monkeypatch.setattr(riccati, "_LowRankPi", Recorded)

        def solve():
            return solve_differential_riccati(model.linear_op, b, po.CostWeights(1.0, r_scale),
                                              tg, state_weight=g.weight, check_every=10,
                                              along=xs)

        low = solve()
        self._dense_twin(monkeypatch)
        dense = solve()
        assert len(ranks) == tg.nt // riccati.COMPRESS_EVERY
        assert max(ranks) < g.size // 4
        assert_rel_close(low.modal[0], dense.modal[0], 1e-12)
        assert_rel_close(low.gains, dense.gains, 1e-12)
        assert_rel_close(low.along, dense.along, 1e-12)

    def test_stable_operator_takes_low_rank_storage(self, monkeypatch):
        def no_dense(*args):
            raise AssertionError("a stable operator took the dense storage")

        monkeypatch.setattr(riccati, "_DensePi", no_dense)
        g = po.build_grid_1d(48)
        model = po.make_ks_model(g, lam=30.0, linear=True)
        assert model.linear_op.basis.values.max() < 0
        b = model.actuator_family.evaluate(po.ActuatorDesign.of(0.5), g)
        solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                   po.TimeGrid(tau=0.2, nt=50), state_weight=g.weight)

    # q_scale 0 leaves D = 0 and Z = 0, and the subnormal q_scale leaves D
    # and Z subnormal; the r x r PSD test, run at every step, must pass both
    @pytest.mark.parametrize("q_scale", [0.0, 2.225073858507203e-309])
    def test_psd_test_at_zero_and_subnormal_d(self, q_scale, monkeypatch):
        a_op, b, weights, tg, state_weight, _, xs = stable_problem(
            n=2, seed=4, b_norm=0.75, q_scale=q_scale, r_scale=8.0, tau=0.3, nt=10,
            state_weight=0.1328125, check_every=1)
        low = solve_differential_riccati(a_op, b, weights, tg, state_weight=state_weight,
                                         check_every=1, along=xs)
        self._dense_twin(monkeypatch)
        dense = solve_differential_riccati(a_op, b, weights, tg, state_weight=state_weight,
                                           check_every=1, along=xs)
        assert np.all(np.diag(low.modal[0]) >= 0)
        assert_rel_close(low.modal[0], dense.modal[0], 1e-12)
        assert_rel_close(low.gains, dense.gains, 1e-12)
        assert_rel_close(low.along, dense.along, 1e-12)

    # Pi = d I - z z^T with z = z0 e_0, and delta = 1e-8 max_i Pi_ii (at
    # least 1e-300): Pi + delta I is positive definite iff z0^2 < d + delta
    @pytest.mark.parametrize("d, z0, refused", [
        (1.0, math.sqrt(1.0 + 0.5e-8), False), (1.0, math.sqrt(1.0 + 1e-6), True),
        (0.0, 0.0, False), (0.0, 1e-140, True),
        (2.225073858507203e-309, 1e-155, False), (2.225073858507203e-309, 1e-140, True)],
        ids=["d1-inside", "d1-beyond", "d0-z0", "d0-beyond", "subnormal-inside",
             "subnormal-beyond"])
    def test_psd_test_decides_as_the_dense_test(self, d, z0, refused):
        for storage in (riccati._LowRankPi, riccati._DensePi):
            pi = storage(np.ones(3), np.full(3, d))
            pi.half_lyapunov()  # Pi = d I
            pi.downdate(1.0, np.array([z0, 0.0, 0.0]))
            if refused:
                with pytest.raises(po.PdeoptError, match="semidefiniteness"):
                    pi.check_psd()
            else:
                pi.check_psd()


class TestDiagonalSystem:
    def test_per_mode_scalar_oracle(self):
        # diagonal A with b aligned to one mode: the matrix Riccati decouples
        # into independent scalar equations, integrated here with an
        # independent RK45 solver as the oracle
        lams = np.array([-1.0, -2.0, -3.0])
        a_op = LinearOperator(factors=(np.diag(lams),))
        b = np.array([0.0, 1.0, 0.0])
        q, rho, tau = 1.3, 0.7, 1.0
        tg = po.TimeGrid(tau=tau, nt=2000)
        ric = solve_differential_riccati(a_op, b, po.CostWeights(q, rho), tg)
        pi0 = ric.pi0

        for i, lam in enumerate(lams):
            s = (1.0 / rho) if i == 1 else 0.0

            def rhs(t, y):
                return -2 * lam * y[0] - q + s * y[0] ** 2

            # integrate backward via time reversal s = tau - t
            sol = solve_ivp(lambda t, y: [-rhs(t, y)], (0.0, tau), [0.0],
                            rtol=1e-10, atol=1e-12)
            assert pi0[i, i] == pytest.approx(sol.y[0, -1], abs=1e-6)
        off = pi0 - np.diag(np.diag(pi0))
        assert np.max(np.abs(off)) < 1e-12


class TestInvariants:
    def test_symmetry_and_psd_all_steps(self):
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)
        tg = po.TimeGrid(tau=1.0, nt=100)
        for k in range(0, tg.nt - 1, 10):
            # Pi(t_k) is Pi(0) of the sweep over the remaining horizon [t_k, tau]
            tg_k = po.TimeGrid(tau=(tg.nt - k) * tg.dt, nt=tg.nt - k)
            pi_k = solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                              tg_k, state_weight=g.weight,
                                              check_every=1).pi0
            assert np.max(np.abs(pi_k - pi_k.T)) < 1e-10
            evs = eigvalsh(pi_k)
            assert evs[0] >= -1e-8 * max(abs(evs[-1]), 1e-300)

    def test_horizon_monotonicity(self):
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)

        def pi0(tau, nt):
            tg = po.TimeGrid(tau=tau, nt=nt)
            return solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                              tg, state_weight=g.weight,
                                              check_every=20).pi0

        pi_long = pi0(1.0, 200)
        diff = pi_long - pi0(0.5, 100)
        scale = np.max(np.abs(eigvalsh(pi_long)))
        assert eigvalsh(diff)[0] >= -1e-8 * scale

    def test_value_function_identity(self):
        # closed-loop cost matches <x0, Pi(0) x0> for the linear model
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        fam = model.actuator_family
        b = fam.evaluate(fam.initial_design(), g)
        weights = po.CostWeights(1.0, 0.1)
        tg = po.TimeGrid(tau=1.0, nt=800)
        ric = solve_differential_riccati(model.linear_op, b, weights, tg,
                                         state_weight=g.weight, check_every=100)
        x0 = first_mode_2d(g, 1.0)
        traj, controls = closed_loop_simulate(model, ric, x0, tg)
        cost = po.evaluate_cost(traj, po.ControlSignal(tg, controls), weights, g)
        quad = g.weight * float(x0 @ ric.pi0 @ x0)
        assert cost == pytest.approx(quad, rel=2e-2)


class TestStorage:
    def test_memory_does_not_grow_with_nt_squared(self):
        # only Pi(0) is kept as a matrix; per step the sweep keeps n-vectors
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)
        model.linear_op.basis  # built once, outside the measured calls

        def peak(nt):
            tracemalloc.start()
            try:
                solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                           po.TimeGrid(tau=1.0, nt=nt),
                                           state_weight=g.weight, check_every=100)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1600) - peak(100) < 4 * 2**20

    @staticmethod
    def _heat_16x16():
        g = po.build_grid_2d(16, 16)
        model = po.make_heat_model(g, f_scalar=None)
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)
        model.linear_op.basis, g.h1.basis  # built once, outside the measured calls
        return g, model, b

    def test_sweep_peak_counts_its_arrays(self, rng):
        # n x n: the carried M, the scratch that holds Pi at a PSD test, R,
        # 2 c s W^2, and one more at a test (R + 1, then the Cholesky factor);
        # the dense V is formed after the sweep.  (nt + 1) x n: along in modal
        # coordinates and the rows Pi b and Pi along.  Plus 32 n-vectors of
        # slack; unit: n^2 doubles.
        g, model, b = self._heat_16x16()
        n, tg = g.size, po.TimeGrid(tau=1.0, nt=40)
        xs = rng.standard_normal((tg.nt + 1, n))
        _, peak = traced_peak(lambda: solve_differential_riccati(
            model.linear_op, b, po.CostWeights(), tg, state_weight=g.weight,
            check_every=1, along=xs))
        assert peak / (8 * n * n) <= 5 + (3 * (tg.nt + 1) + 32) / n

    def test_eigen_check_peak_counts_its_arrays(self, rng):
        # Lanczos on products with the low-rank Pi-tilde(0): its basis rows
        # (a few dozen n-vectors here) and one-state transforms, below one
        # n x n array, and never Pi-tilde(0), the nodal Pi(0), V or Q
        g, model, b = self._heat_16x16()
        ric = solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                         po.TimeGrid(tau=1.0, nt=40), state_weight=g.weight)
        n = g.size
        _, peak = traced_peak(lambda: worst_ic_eigen_check(ric, rng.standard_normal(n), g))
        assert peak < 8 * n * n
        assert "modal" not in vars(ric)

    def test_low_rank_solution_forms_pi0_on_first_read(self):
        # the sweep keeps D, Z, the modal rows Pi b and an r x r test matrix:
        # no n x n array until modal (or pi0, which reads it) forms Pi-tilde(0)
        g, model, b = self._heat_16x16()
        n = g.size
        ric, peak = traced_peak(lambda: solve_differential_riccati(
            model.linear_op, b, po.CostWeights(), po.TimeGrid(tau=1.0, nt=40),
            state_weight=g.weight))
        assert isinstance(ric.storage, riccati._LowRankPi)
        assert peak < 8 * n * n
        modal, peak = traced_peak(lambda: ric.modal)
        assert peak >= 8 * n * n
        assert ric.modal is modal
        np.testing.assert_array_equal(modal[0], ric.storage.modal())

    def test_pi0_peak_counts_its_arrays(self):
        # Pi-tilde(0) V^T, then V Pi-tilde(0) V^T written over it, each map
        # with one n x n intermediate: two n x n arrays plus 32 n-vectors of
        # slack, and never the dense V
        g, model, b = self._heat_16x16()
        ric = solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                         po.TimeGrid(tau=1.0, nt=40), state_weight=g.weight)
        n = g.size
        ric.modal  # Pi-tilde(0) is formed on first read, outside the measured call
        pi0, peak = traced_peak(lambda: ric.pi0)
        v = ric.basis
        assert_rel_close(pi0, v @ ric.modal[0] @ v.T, 1e-13)
        assert peak / (8 * n * n) <= 2 + 32 / n

    @pytest.mark.parametrize("kind", ["heat", "ks"])
    def test_along_matches_pi0_of_the_remaining_horizon(self, kind, rng):
        # Pi(t_k) x_k from one sweep is Pi(0) x_k of the sweep over [t_k, tau]
        if kind == "heat":
            g = po.build_grid_2d(8, 8)
            model = po.make_heat_model(g, f_scalar=None)
            design = model.actuator_family.initial_design()
            tg = po.TimeGrid(tau=1.0, nt=100)
        else:
            g = po.build_grid_1d(24)
            model = po.make_ks_model(g, lam=30.0, linear=True)
            design = po.ActuatorDesign.of(0.5)
            tg = po.TimeGrid(tau=0.2, nt=100)
        b = model.actuator_family.evaluate(design, g)
        weights = po.CostWeights(1.0, 0.5)
        xs = rng.standard_normal((tg.nt + 1, g.size))
        ric = solve_differential_riccati(model.linear_op, b, weights, tg,
                                         state_weight=g.weight, along=xs)
        assert ric.along.shape == xs.shape
        for k in range(10, tg.nt - 1, 4):
            tg_k = po.TimeGrid(tau=(tg.nt - k) * tg.dt, nt=tg.nt - k)
            pi0_k = solve_differential_riccati(model.linear_op, b, weights, tg_k,
                                               state_weight=g.weight).pi0
            expect = pi0_k @ xs[k]
            assert np.max(np.abs(ric.along[k] - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestFeedbackConsistency:
    def test_zero_initial_condition(self):
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        fam = model.actuator_family
        design = fam.initial_design()
        sets = po.AdmissibleSets(family=fam, r1=10.0, r2=1.0)
        tg = po.TimeGrid(tau=0.5, nt=50)
        chk = verify_feedback_consistency(model, sets, po.CostWeights(),
                                          np.zeros(g.size), tg, design, check_every=10)
        assert not chk.inconclusive
        assert chk.parts["state"] == 0.0

    def test_heat_two_percent(self):
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        fam = model.actuator_family
        design = fam.initial_design()
        weights = po.CostWeights(1.0, 1.0)
        sets = po.AdmissibleSets(family=fam, r1=100.0, r2=1.0)
        tg = po.TimeGrid(tau=1.0, nt=400)
        chk = verify_feedback_consistency(model, sets, weights,
                                          first_mode_2d(g, 1.0), tg, design, check_every=50)
        assert not chk.inconclusive
        assert chk.discrepancy <= 0.02

    def test_discrepancy_shrinks_with_dt(self):
        # three-point trend: the two code paths approach each other under
        # time refinement (first-order floor from the cost-source staggering)
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        fam = model.actuator_family
        design = fam.initial_design()
        weights = po.CostWeights(1.0, 1.0)
        sets = po.AdmissibleSets(family=fam, r1=100.0, r2=1.0)
        x0 = first_mode_2d(g, 1.0)
        discrepancies = []
        for nt in (100, 200, 400):
            tg = po.TimeGrid(tau=1.0, nt=nt)
            chk = verify_feedback_consistency(model, sets, weights, x0, tg, design,
                                              check_every=50)
            discrepancies.append(chk.discrepancy)
        assert discrepancies[2] < discrepancies[1] < discrepancies[0]
        assert discrepancies[0] / discrepancies[2] > 3.0

    def test_active_constraint_flagged_inconclusive(self):
        g = po.build_grid_2d(8, 8)
        model = po.make_heat_model(g, f_scalar=None)
        fam = model.actuator_family
        design = fam.initial_design()
        weights = po.CostWeights(1.0, 1e-6)  # cheap control wants a big input
        sets = po.AdmissibleSets(family=fam, r1=1e-5, r2=1.0)
        tg = po.TimeGrid(tau=0.5, nt=100)
        chk = verify_feedback_consistency(model, sets, weights,
                                          first_mode_2d(g, 1.0), tg, design, check_every=20)
        assert chk.inconclusive

    def test_unconverged_input_solve_flagged_inconclusive(self):
        # linear KS at lambda = 60 on a wide input ball: every Armijo trial
        # from u = 0 blows up, so the input-only solve stops there with no
        # acceptable step, and u = 0 is no optimum to compare
        cfg = ExperimentConfig(values={"model.kind": "ks", "model.lambda": 60.0,
                                       "model.linear": True, "grid.n": 64,
                                       "time.tau": 0.5, "sets.r1": 1e3})
        grid = cfg.build_grid()
        model = cfg.build_model(grid)
        chk = verify_feedback_consistency(model, cfg.build_sets(model), cfg.build_weights(),
                                          cfg.build_x0(grid), po.TimeGrid(tau=0.5, nt=800),
                                          cfg.build_design(model))
        assert chk.inconclusive
        assert "no acceptable step" in chk.parts["reason"]


class TestWorstIcEigenCheck:
    def test_exact_eigenvector_similarity_one(self):
        import scipy.linalg as sla
        g = po.build_grid_1d(8)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        pi0 = m @ m.T + np.eye(8)
        k = toarray(po.h1_operator(g))
        vals, vecs = sla.eigh(pi0, k)
        x_star = vecs[:, -1]
        ric = _synthetic_riccati(pi0, g)
        cos, ray = worst_ic_eigen_check(ric, x_star, g)
        assert cos == pytest.approx(1.0, abs=1e-12)
        assert ray == pytest.approx(vals[-1], rel=1e-10)

    def test_matches_whitened_eigensolve_oracle(self, rng):
        # independent oracle: whiten with K^{-1/2} via a matrix square root
        g = po.build_grid_1d(8)
        m = rng.standard_normal((8, 8))
        pi0 = m @ m.T
        k = toarray(po.h1_operator(g))
        k_isqrt = np.linalg.inv(sqrtm(k).real)
        wh = k_isqrt @ pi0 @ k_isqrt
        vals, vecs = np.linalg.eigh(wh)
        oracle_vec = k_isqrt @ vecs[:, -1]
        ric = _synthetic_riccati(pi0, g)
        x = rng.standard_normal(8)
        cos_x, _ = worst_ic_eigen_check(ric, x, g)
        oracle_cos = abs(po.h1_inner(x, oracle_vec, g)) / (
            po.h1_norm(x, g) * po.h1_norm(oracle_vec, g))
        assert cos_x == pytest.approx(oracle_cos, rel=1e-9)

    def test_matches_generalized_eigensolve_on_a_non_square_grid(self, rng):
        # random orthonormal 1-D factors Vy (5x5) and Vx (7x7) for A on a 7x5
        # grid: Q = V^T V_K is then no permutation (on heat it is the index
        # reversal, whatever axis a factor is applied to), so applying a
        # factor of Q to the wrong axis shows here
        v_y, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        v_x, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        _assert_matches_generalized_eigensolve(
            SpectralBasis(vectors=(v_y, v_x), values=np.zeros(35)), rng)

    def test_one_factor_basis_on_a_2d_grid(self, rng):
        # A's basis as one dense factor, K's as two: Q = V^T V_K then mixes a
        # one-factor and a Kronecker map
        v, _ = np.linalg.qr(rng.standard_normal((35, 35)))
        _assert_matches_generalized_eigensolve(SpectralBasis(vectors=(v,), values=np.zeros(35)),
                                               rng)

    def test_matches_generalized_eigensolve_on_dense_storage(self):
        # linear KS at lambda = 60 has positive eigenvalues, so Pi(0) comes in
        # the dense storage; the check runs on the same products as on heat
        import scipy.linalg as sla
        g = po.build_grid_1d(64)
        model = po.make_ks_model(g, lam=60.0, linear=True)
        b = model.actuator_family.evaluate(po.ActuatorDesign.of(0.5), g)
        ric = solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                         po.TimeGrid(tau=0.5, nt=800), state_weight=g.weight)
        assert isinstance(ric.storage, riccati._DensePi)
        vals, vecs = sla.eigh(ric.pi0, toarray(po.h1_operator(g)))
        cos, ray = worst_ic_eigen_check(ric, vecs[:, -1], g)
        assert cos == pytest.approx(1.0, abs=1e-10)
        assert ray == pytest.approx(vals[-1], rel=1e-10)

    def test_end_to_end_linear_heat(self):
        g = po.build_grid_2d(12, 12)
        model = po.make_heat_model(g, f_scalar=None)
        fam = model.actuator_family
        design = fam.initial_design()
        b = fam.evaluate(design, g)
        weights = po.CostWeights(1.0, 1.0)
        sets = po.AdmissibleSets(family=fam, r1=10.0, r2=1.0)
        tg = po.TimeGrid(tau=1.0, nt=200)
        cfg = po.OptimizerConfig(seed=5, multi_start=4, max_iters=300)
        u0 = po.ControlSignal.zero(tg)
        x0s, mu, rep = po.worst_initial_condition(model, u0, design, sets, weights,
                                                  tg, cfg)
        ric = solve_differential_riccati(model.linear_op, b, weights, tg,
                                         state_weight=g.weight, check_every=50)
        cos, ray = worst_ic_eigen_check(ric, x0s, g)
        assert cos >= 0.999
        assert ray > 0


def _assert_matches_generalized_eigensolve(spectral: SpectralBasis, rng) -> None:
    """The eigen check on a random PSD Pi-tilde(0) in ``spectral`` on a 7x5
    grid against scipy's eigh(Pi(0), K): cosine 1 for its top eigenvector,
    and the Rayleigh quotient its eigenvalue."""
    import scipy.linalg as sla
    g = po.build_grid_2d(7, 5, dirichlet_sides=("left", "bottom"))
    m = rng.standard_normal((g.size, g.size))
    ric = po.RiccatiSolution(spectral=spectral, storage=_dense_storage(m @ m.T),
                             b_vec=np.zeros(g.size), pib=np.zeros((3, g.size)), s_scale=1.0)
    vals, vecs = sla.eigh(ric.pi0, toarray(po.h1_operator(g)))
    cos, ray = worst_ic_eigen_check(ric, vecs[:, -1], g)
    assert cos == pytest.approx(1.0, abs=1e-10)
    assert ray == pytest.approx(vals[-1], rel=1e-10)


def _dense_storage(pi_modal: np.ndarray) -> "riccati._DensePi":
    """The sweep's dense storage holding the given modal Pi."""
    n = pi_modal.shape[0]
    storage = riccati._DensePi(np.ones(n), np.zeros(n))
    storage.pi[:] = pi_modal
    return storage


def _synthetic_riccati(pi0: np.ndarray, grid) -> po.RiccatiSolution:
    """Wrap a given matrix as Pi(0) of a degenerate one-step solution."""
    n = pi0.shape[0]
    tg = po.TimeGrid(tau=1.0, nt=2)
    identity = SpectralBasis(vectors=(np.eye(n),), values=np.zeros(n))
    return po.RiccatiSolution(spectral=identity, storage=_dense_storage(pi0),
                              b_vec=np.zeros(n), pib=np.zeros((tg.nt + 1, n)), s_scale=1.0)


def test_ks_linearized_feedback_two_percent():
    g = po.build_grid_1d(48)
    model = po.make_ks_model(g, lam=30.0, linear=True)
    fam = model.actuator_family
    design = po.ActuatorDesign.of(0.5)
    weights = po.CostWeights(1.0, 1.0)
    sets = po.AdmissibleSets(family=fam, r1=100.0, r2=1.0)
    tg = po.TimeGrid(tau=0.2, nt=400)
    chk = verify_feedback_consistency(model, sets, weights,
                                      smooth_clamped(g, 0.5), tg, design, check_every=50)
    assert not chk.inconclusive
    assert chk.discrepancy <= 0.02
