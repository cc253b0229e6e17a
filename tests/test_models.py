import numpy as np
import pytest

import pdeopt as po
from pdeopt.exceptions import ConstraintViolationError, PdeoptError
from pdeopt.models import ScalarNonlinearity

from conftest import l2_norm


class TestKsNonlinearity:
    def test_zero(self, grid1d_small):
        assert np.all(po.ks_nonlinearity(np.zeros(32), grid1d_small) == 0.0)

    def test_sine_profile(self):
        g = po.build_grid_1d(255)
        w = np.sin(np.pi * g.nodes)
        # -sin(pi x) * pi cos(pi x) = -(pi/2) sin(2 pi x)
        expect = -(np.pi / 2) * np.sin(2 * np.pi * g.nodes)
        err = np.max(np.abs(po.ks_nonlinearity(w, g) - expect))
        assert err < 5 * g.h**2 * np.pi**3

    def test_stencil_loop_oracle(self, rng):
        g = po.build_grid_1d(8)
        w = rng.standard_normal(8)
        out = po.ks_nonlinearity(w, g)
        padded = np.concatenate(([0.0], w, [0.0]))
        for i in range(8):
            expect = -w[i] * (padded[i + 2] - padded[i]) / (2 * g.h)
            assert out[i] == pytest.approx(expect, rel=1e-14, abs=1e-14)

    def test_energy_neutrality(self):
        # discrete analogue of int w^2 w_xi = 0 for clamped profiles
        for n, tol_scale in ((127, 1.0), (255, 0.26)):
            g = po.build_grid_1d(n)
            w = 0.5 * (1 - np.cos(2 * np.pi * g.nodes))
            val = abs(po.inner_product(po.ks_nonlinearity(w, g), w, g))
            assert val < tol_scale * 10 * g.h**2


class TestKsJacobian:
    def test_zero_direction(self, grid1d_small, rng):
        w = rng.standard_normal(32)
        assert np.all(po.ks_jacobian_apply(w, np.zeros(32), grid1d_small) == 0.0)

    def test_self_direction_doubles_nonlinearity(self, grid1d_small, rng):
        w = rng.standard_normal(32)
        got = po.ks_jacobian_apply(w, w, grid1d_small)
        assert got == pytest.approx(2.0 * po.ks_nonlinearity(w, grid1d_small), rel=1e-13)

    def test_directional_finite_difference(self, grid1d_small, rng):
        g = grid1d_small
        w = 0.5 * np.sin(np.pi * g.nodes)
        f = np.cos(3 * g.nodes)
        eps = 1e-6
        fd = (po.ks_nonlinearity(w + eps * f, g) - po.ks_nonlinearity(w - eps * f, g)) / (2 * eps)
        jac = po.ks_jacobian_apply(w, f, g)
        assert np.max(np.abs(fd - jac)) / np.max(np.abs(jac)) < 1e-5

    def test_gateaux_slope(self, grid1d_small, rng):
        # ||(F(w+eps f)-F(w))/eps - F' f|| = O(eps): log-log slope ~ 1
        g = grid1d_small
        w = rng.standard_normal(32)
        f = rng.standard_normal(32)
        jac = po.ks_jacobian_apply(w, f, g)
        epss = np.array([1e-3, 1e-4, 1e-5])
        errs = []
        for eps in epss:
            diff = (po.ks_nonlinearity(w + eps * f, g) - po.ks_nonlinearity(w, g)) / eps
            errs.append(l2_norm(diff - jac, g))
        slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_linearity_of_jacobian(self, grid1d_small, rng):
        g = grid1d_small
        w = rng.standard_normal(32)
        f1 = rng.standard_normal(32)
        f2 = rng.standard_normal(32)
        lhs = po.ks_jacobian_apply(w, 2.5 * f1 - 0.5 * f2, g)
        rhs = 2.5 * po.ks_jacobian_apply(w, f1, g) - 0.5 * po.ks_jacobian_apply(w, f2, g)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestKsJacobianAdjoint:
    def test_zero(self, grid1d_small, rng):
        w = rng.standard_normal(32)
        assert np.all(po.ks_jacobian_adjoint_apply(w, np.zeros(32), grid1d_small) == 0.0)

    def test_exact_transpose(self, rng):
        g = po.build_grid_1d(16)
        w = rng.standard_normal(16)
        # explicit matrix transpose oracle
        jac_mat = np.column_stack([po.ks_jacobian_apply(w, e, g)
                                   for e in np.eye(16)])
        for _ in range(5):
            f = rng.standard_normal(16)
            h = rng.standard_normal(16)
            lhs = po.inner_product(po.ks_jacobian_apply(w, f, g), h, g)
            rhs = po.inner_product(f, po.ks_jacobian_adjoint_apply(w, h, g), g)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-3)
            assert po.ks_jacobian_adjoint_apply(w, h, g) == pytest.approx(
                jac_mat.T @ h, rel=1e-13, abs=1e-13)

    def test_continuous_adjoint_consistency(self):
        # the exact transpose approximates +w g_xi (integration by parts of
        # -w f_xi - w_xi f against g moves both terms onto f with that sign)
        errs = []
        for n in (255, 511):
            g = po.build_grid_1d(n)
            xi = g.nodes
            w = np.sin(np.pi * xi)
            h = np.sin(2 * np.pi * xi)
            expect = w * 2 * np.pi * np.cos(2 * np.pi * xi)
            errs.append(l2_norm(po.ks_jacobian_adjoint_apply(w, h, g) - expect, g))
        assert np.log2(errs[0] / errs[1]) > 1.8


class TestHeatNonlinearity:
    def test_zero(self):
        assert np.all(po.heat_nonlinearity(np.zeros(5), po.CUBIC_SINK) == 0.0)

    def test_constant_two(self):
        out = po.heat_nonlinearity(np.full(7, 2.0), po.CUBIC_SINK)
        assert np.all(out == -8.0)

    def test_sign_condition_samples(self):
        z = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert np.all(z * po.CUBIC_SINK.value(z) <= 0.0)
        assert po.CUBIC_SINK.sign_condition

    def test_overflow_raises(self):
        # under the errstate that cn_ab2_sweep steps in
        with pytest.raises(PdeoptError), np.errstate(over="ignore", invalid="ignore"):
            po.heat_nonlinearity(np.array([1e200]), po.CUBIC_SINK)

    def test_jacobian_pointwise(self):
        out = po.heat_jacobian_apply(np.ones(3), np.ones(3), po.CUBIC_SINK)
        assert np.all(out == -3.0)

    def test_adjoint_equals_forward(self, rng):
        w = rng.standard_normal(20)
        f = rng.standard_normal(20)
        assert np.array_equal(po.heat_jacobian_apply(w, f, po.CUBIC_SINK),
                              po.heat_jacobian_adjoint_apply(w, f, po.CUBIC_SINK))

    def test_directional_finite_difference(self, rng):
        w = rng.standard_normal(16)
        f = rng.standard_normal(16)
        eps = 1e-6
        fd = (po.CUBIC_SINK.value(w + eps * f) - po.CUBIC_SINK.value(w - eps * f)) / (2 * eps)
        jac = po.heat_jacobian_apply(w, f, po.CUBIC_SINK)
        assert np.max(np.abs(fd - jac)) / np.max(np.abs(jac)) < 1e-5


class TestKsActuator:
    def test_peak_at_location(self):
        g = po.build_grid_1d(99)  # 0.5 lies on the grid
        fam = po.KsGaussianActuator()
        b = fam.evaluate(po.ActuatorDesign.of(0.5), g)
        assert b[49] == pytest.approx(1.0)
        assert np.argmax(b) == 49

    def test_mirror_symmetry(self):
        g = po.build_grid_1d(99)
        fam = po.KsGaussianActuator()
        b3 = fam.evaluate(po.ActuatorDesign.of(0.3), g)
        b7 = fam.evaluate(po.ActuatorDesign.of(0.7), g)
        assert b3 == pytest.approx(b7[::-1], rel=1e-12)

    def test_design_continuity(self):
        g = po.build_grid_1d(64)
        fam = po.KsGaussianActuator()
        b0 = fam.evaluate(po.ActuatorDesign.of(0.4), g)
        prev = np.inf
        for delta in (1e-2, 1e-3, 1e-4):
            bd = fam.evaluate(po.ActuatorDesign.of(0.4 + delta), g)
            gap = l2_norm(bd - b0, g)
            assert gap < prev
            prev = gap

    def test_outside_kad_rejected(self, grid1d_small):
        fam = po.KsGaussianActuator()
        with pytest.raises(ConstraintViolationError):
            fam.evaluate(po.ActuatorDesign.of(0.05), grid1d_small)


class TestHeatActuator:
    def test_c1_ball_bound(self, rng):
        fam = po.HeatShapeActuator(basis_per_axis=3)
        g = po.build_grid_2d(24, 24)
        xx, yy = g.meshgrid()
        for _ in range(10):
            c = fam.project(rng.standard_normal(fam.design_dim))
            r = np.zeros_like(xx)
            gx = np.zeros_like(xx)
            gy = np.zeros_like(xx)
            for (j, k), cm in zip(fam.modes, c):
                r += cm * np.cos(j * np.pi * xx) * np.cos(k * np.pi * yy)
                gx += -cm * j * np.pi * np.sin(j * np.pi * xx) * np.cos(k * np.pi * yy)
                gy += -cm * k * np.pi * np.cos(j * np.pi * xx) * np.sin(k * np.pi * yy)
            c1_val = np.max(np.abs(r) + np.hypot(gx, gy))
            assert c1_val <= 1.0 + 1e-12

    def test_projection_idempotent(self, rng):
        fam = po.HeatShapeActuator(basis_per_axis=3)
        for _ in range(20):
            c = rng.standard_normal(fam.design_dim) * 3.0
            once = fam.project(c)
            assert np.array_equal(fam.project(once), once)

    def test_linear_in_coefficients(self, grid2d_small, rng):
        fam = po.HeatShapeActuator(basis_per_axis=2)
        c1 = fam.project(rng.standard_normal(fam.design_dim))
        c2 = fam.project(rng.standard_normal(fam.design_dim))
        b1 = fam.evaluate(po.ActuatorDesign(c1), grid2d_small)
        b2 = fam.evaluate(po.ActuatorDesign(c2), grid2d_small)
        mid = fam.evaluate(po.ActuatorDesign(0.5 * (c1 + c2)), grid2d_small)
        assert mid == pytest.approx(0.5 * (b1 + b2), rel=1e-12, abs=1e-15)

    def test_sampled_basis_follows_the_grid(self, rng):
        # one family used on two grids in turn must sample each grid anew
        fam = po.HeatShapeActuator(basis_per_axis=3)
        design = po.ActuatorDesign(fam.project(rng.standard_normal(fam.design_dim)))
        grids = [po.build_grid_2d(8, 6), po.build_grid_2d(5, 9, lx=2.0)]
        for g in grids * 3:
            xx, yy = g.meshgrid()
            rows = np.stack([(np.cos(j * np.pi * xx / fam.lx)
                              * np.cos(k * np.pi * yy / fam.ly)).ravel()
                             for j, k in fam.modes])
            assert np.array_equal(fam.param_derivative(design, g), rows)
            assert fam.evaluate(design, g) == pytest.approx(design.params @ rows,
                                                            rel=1e-14, abs=1e-15)


class TestDesignDerivativeAdjoint:
    def test_zero_adjoint_state(self, grid1d_small):
        fam = po.KsGaussianActuator()
        out = po.actuator_design_derivative_adjoint(
            fam, po.ActuatorDesign.of(0.5), np.zeros(32), grid1d_small)
        assert np.all(out == 0.0)

    def test_ks_finite_difference(self, rng):
        g = po.build_grid_1d(16)
        fam = po.KsGaussianActuator()
        p = rng.standard_normal(16)
        u_t, r, eps = 0.7, 0.45, 1e-6
        got = po.actuator_design_derivative_adjoint(fam, po.ActuatorDesign.of(r),
                                                    u_t * p, g)[0]
        b_hi = fam.evaluate(po.ActuatorDesign.of(r + eps), g)
        b_lo = fam.evaluate(po.ActuatorDesign.of(r - eps), g)
        fd = u_t * po.inner_product((b_hi - b_lo) / (2 * eps), p, g)
        assert got == pytest.approx(fd, rel=1e-5)

    def test_heat_components(self, grid2d_small, rng):
        fam = po.HeatShapeActuator(basis_per_axis=2)
        design = po.ActuatorDesign(fam.project(rng.standard_normal(fam.design_dim)))
        p = rng.standard_normal(grid2d_small.size)
        out = po.actuator_design_derivative_adjoint(fam, design, 2.0 * p, grid2d_small)
        rows = fam.param_derivative(design, grid2d_small)
        for m in range(fam.design_dim):
            assert out[m] == pytest.approx(2.0 * po.inner_product(rows[m], p, grid2d_small),
                                           rel=1e-12)


class TestModelSpecDuality:
    def test_jacobian_duality_ks(self, ks_model_small, rng):
        m, g = ks_model_small, ks_model_small.grid
        for _ in range(5):
            w = rng.standard_normal(g.size)
            f = rng.standard_normal(g.size)
            h = rng.standard_normal(g.size)
            lhs = po.inner_product(m.jacobian_apply(w, f), h, g)
            rhs = po.inner_product(f, m.jacobian_adjoint_apply(w, h), g)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-3)

    def test_jacobian_duality_heat(self, heat_model_small, rng):
        m, g = heat_model_small, heat_model_small.grid
        for _ in range(5):
            w = rng.standard_normal(g.size)
            f = rng.standard_normal(g.size)
            h = rng.standard_normal(g.size)
            lhs = po.inner_product(m.jacobian_apply(w, f), h, g)
            rhs = po.inner_product(f, m.jacobian_adjoint_apply(w, h), g)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-3)

    def test_linear_variant_has_no_nonlinearity(self, grid1d_small):
        m = po.make_ks_model(grid1d_small, lam=10.0, linear=True)
        assert m.is_linear
        w = np.ones(32)
        assert np.all((np.zeros_like(w) if m.nonlinearity is None else m.nonlinearity(w)) == 0.0)

    def test_linear_models_have_the_sign_condition(self, grid1d_small, grid2d_small):
        # F = 0 gives zeta F(zeta) = 0 <= 0; the nonlinear KS term is no pointwise F
        assert po.make_ks_model(grid1d_small, lam=10.0, linear=True).sign_condition
        assert po.make_heat_model(grid2d_small, f_scalar=None).sign_condition
        assert not po.make_ks_model(grid1d_small, lam=10.0).sign_condition

    def test_custom_scalar_nonlinearity_flag(self, grid2d_small):
        source = ScalarNonlinearity(value=lambda z: z**3,
                                    derivative=lambda z: 3 * z**2,
                                    sign_condition=False)
        m = po.make_heat_model(grid2d_small, f_scalar=source)
        assert not m.sign_condition
