import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh, sqrtm

import pdeopt as po
from pdeopt.grids import LinearOperator
from pdeopt.riccati import closed_loop_simulate, solve_differential_riccati, \
    verify_feedback_consistency, worst_ic_eigen_check

from conftest import first_mode_2d, smooth_clamped, traced_peak


def scalar_op(a=0.0):
    return LinearOperator(factors=(np.array([[a]]),))


def reference_riccati(a_op, b_vec, weights, tg, state_weight, along):
    """The sweep with the fixed point on the full n x n matrix: each iterate is
    Pi_{k+1} = (E o Pi_k + 2cq I - c s (y y^T + z z^T)) / D, with
    E, D = 1 +- c (lam_i + lam_j), y = Pi_k b and z the previous iterate
    times b, stopped at ||dPi||_F <= 1e-13 max(1, ||Pi_{k+1}||_F) and then
    re-symmetrized.  No dt refinement and no PSD check: callers draw stable
    operators.  Returns the nodal Pi(0), the gains and Pi(t_k) along[k].
    """
    lam, v = a_op.basis.values.ravel(), reduce(np.kron, a_op.basis.vectors)
    n, b = lam.size, v.T @ b_vec
    s, q, c = state_weight / weights.r_scale, weights.q_scale, 0.5 * tg.dt
    shift = c * (lam[:, None] + lam[None, :])
    denom, explicit = 1.0 - shift, 1.0 + shift

    def quad(x):
        xb = x @ b
        return np.outer((c * s) * xb, xb)

    gains, pix = np.zeros((tg.nt + 1, n)), np.zeros((tg.nt + 1, n))
    x = np.zeros((n, n))
    for k in range(tg.nt - 1, -1, -1):
        lagged = quad(x)
        base = x * explicit - lagged
        base.flat[::n + 1] += 2.0 * c * q
        x_new = (base - lagged) / denom
        for _ in range(20):
            x_next = (base - quad(x_new)) / denom
            done = np.linalg.norm(x_next - x_new) <= 1e-13 * max(1.0, np.linalg.norm(x_next))
            x_new = x_next
            if done:
                break
        else:
            raise AssertionError("reference fixed point did not converge")
        x = 0.5 * (x_new + x_new.T)
        gains[k] = s * (v @ (x @ b))
        pix[k] = v @ (x @ (v.T @ along[k]))
    return v @ x @ v.T, gains, pix


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
    """stable_problem with n <= 6 and drawn weights, horizon and intervals."""
    return stable_problem(
        n=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**16)),
        b_norm=draw(st.floats(0.1, 1.0)), q_scale=draw(st.floats(0.0, 2.0)),
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


class TestAgainstMatrixFixedPoint:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problem=stable_problems())
    # a subnormal q_scale: Pi, the gains and along are subnormal too, and the
    # sweep and the reference have differed there by one unit (5e-324)
    @example(problem=stable_problem(n=2, seed=4, b_norm=0.75, q_scale=2.225073858507203e-309,
                                    r_scale=8.0, tau=0.3, nt=10, state_weight=0.1328125,
                                    check_every=1))
    def test_matches_reference_sweep(self, problem):
        a_op, b, weights, tg, state_weight, check_every, xs = problem
        ric = solve_differential_riccati(a_op, b, weights, tg, state_weight=state_weight,
                                         check_every=check_every, along=xs)
        pi0, gains, along = reference_riccati(a_op, b, weights, tg, state_weight, xs)
        assert_rel_close(ric.pi0, pi0, 1e-12)
        assert_rel_close(ric.gains, gains, 1e-12)
        assert_rel_close(ric.along, along, 1e-12)


class TestStepRefinement:
    def test_singular_factor_retries_at_half_step(self):
        # a = nt / tau makes I - (dt/2)(a + a) exactly zero, so the sweep must
        # run at dt/2 and sample every second step: that is the plain sweep
        # on the grid with 2 nt steps, read at the even indices
        tau, nt, a = 1.0, 2, 2.0
        weights = po.CostWeights(0.1, 10.0)
        xs = np.array([[1.0], [-2.0], [0.5]])
        ric = solve_differential_riccati(scalar_op(a), np.ones(1), weights,
                                         po.TimeGrid(tau, nt), along=xs)
        fine = solve_differential_riccati(scalar_op(a), np.ones(1), weights,
                                          po.TimeGrid(tau, 2 * nt),
                                          along=np.repeat(xs, 2, axis=0)[:2 * nt + 1])
        np.testing.assert_array_equal(ric.pi0, fine.pi0)
        np.testing.assert_array_equal(ric.gains, fine.gains[::2])
        np.testing.assert_array_equal(ric.along, fine.along[::2])
        assert ric.pi0[0, 0] > 0

    def test_unconverged_fixed_point_raises(self):
        # linear KS at lambda = 60: the fixed point of the quadratic term does
        # not converge in 20 iterations at dt, dt/2 or dt/4, and the sweep
        # must say so rather than keep an unconverged iterate
        g = po.build_grid_1d(64)
        model = po.make_ks_model(g, lam=60.0, linear=True)
        b = model.actuator_family.evaluate(model.actuator_family.initial_design(), g)
        with pytest.raises(po.PdeoptError, match="failed after dt refinements"):
            solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                       po.TimeGrid(tau=0.5, nt=100),
                                       state_weight=g.weight, check_every=1)

    def test_unstable_operator_refused_as_indefinite(self):
        # a = 30 > 0 with dt = 0.2: 1 - (dt/2)(a + a) < 0 at dt, dt/2 and dt/4,
        # so Pi turns negative after one step at every refinement
        with pytest.raises(po.PdeoptError, match="lost positive semidefiniteness"):
            solve_differential_riccati(scalar_op(30.0), np.ones(1), po.CostWeights(1, 1),
                                       po.TimeGrid(1.0, 5), check_every=1)


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
        # T = V^T V_K diag(k^-1/2), Pi-tilde(0) T and T^T Pi-tilde(0) T, whose
        # eigenvectors take the place of the product: three n x n arrays plus
        # 32 n-vectors of slack, and neither the nodal Pi(0) nor V_K diag(k^-1/2)
        g, model, b = self._heat_16x16()
        ric = solve_differential_riccati(model.linear_op, b, po.CostWeights(),
                                         po.TimeGrid(tau=1.0, nt=40), state_weight=g.weight)
        n = g.size
        _, peak = traced_peak(lambda: worst_ic_eigen_check(ric, rng.standard_normal(n), g))
        assert peak / (8 * n * n) <= 3 + 32 / n

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


class TestWorstIcEigenCheck:
    def test_exact_eigenvector_similarity_one(self):
        import scipy.linalg as sla
        g = po.build_grid_1d(8)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        pi0 = m @ m.T + np.eye(8)
        k = po.h1_operator(g).toarray()
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
        k = po.h1_operator(g).toarray()
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


def _synthetic_riccati(pi0: np.ndarray, grid) -> po.RiccatiSolution:
    """Wrap a given matrix as Pi(0) of a degenerate one-step solution."""
    n = pi0.shape[0]
    tg = po.TimeGrid(tau=1.0, nt=2)
    return po.RiccatiSolution(basis=np.eye(n), modal=[pi0],
                              b_vec=np.zeros(n), gains=np.zeros((tg.nt + 1, n)))


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
