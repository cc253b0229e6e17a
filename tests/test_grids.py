import numpy as np
import pytest

import pdeopt as po
from pdeopt.exceptions import InvalidBoundaryError, InvalidGridError
from pdeopt.grids import LinearOperator

from conftest import l2_norm, toarray


class TestGrid1D:
    def test_too_small_rejected(self):
        with pytest.raises(InvalidGridError):
            po.build_grid_1d(3)

    def test_uniform_spacing(self):
        g = po.build_grid_1d(99)
        assert g.h == pytest.approx(0.01)
        assert g.nodes[49] == pytest.approx(0.50)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0 and g.nodes[-1] < 1

    def test_weight_sum_is_one_minus_h(self):
        g = po.build_grid_1d(127)
        # direct summation oracle
        assert np.sum(np.full(g.n, g.weight)) == pytest.approx(1.0 - g.h, rel=1e-14)


class TestKsOperator:
    def test_zero_maps_to_zero(self):
        g = po.build_grid_1d(32)
        a = po.ks_operator(g, lam=17.3)
        assert np.all(a.apply(np.zeros(32)) == 0.0)

    def test_symmetry(self):
        g = po.build_grid_1d(64)
        a = toarray(po.ks_operator(g, lam=30.0))
        assert np.max(np.abs(a - a.T)) == 0.0

    def test_clamped_biharmonic_eigenvalue(self):
        # oracle: eigensolve at n=512 Richardson-extrapolated in h^2
        ev = {}
        for n in (256, 512):
            g = po.build_grid_1d(n)
            ev[n] = po.smallest_eigenvalue(-po.ks_operator(g, lam=0.0))
        # with h halved, err ~ h^2: extrapolate ev_inf = ev512 + (ev512 - ev256)/3
        oracle = ev[512] + (ev[512] - ev[256]) / 3.0
        assert oracle == pytest.approx(500.5639, rel=2e-4)
        assert abs(ev[256] - oracle) / oracle < 0.01

    def test_positive_definite_below_threshold(self):
        g = po.build_grid_1d(128)
        sigma = po.smallest_eigenvalue(-po.ks_operator(g, lam=30.0))
        assert sigma > 0

    def test_order_of_accuracy(self):
        # smooth clamped profile with smooth even extension: pure O(h^2)
        lam = 30.0
        errs = []
        for n in (63, 127, 255):
            g = po.build_grid_1d(n)
            xi = g.nodes
            w = 0.5 * (1 - np.cos(2 * np.pi * xi))
            w4 = -(2 * np.pi) ** 4 * np.cos(2 * np.pi * xi) / 2
            w2 = (2 * np.pi) ** 2 * np.cos(2 * np.pi * xi) / 2
            exact = -w4 - lam * w2
            errs.append(l2_norm(po.ks_operator(g, lam).apply(w) - exact, g))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.8


class TestHeatOperator:
    def test_dirichlet_eigenvalue(self):
        g = po.build_grid_2d(64, 64)
        ev = po.smallest_eigenvalue(-po.heat_operator(g))
        assert abs(ev - 2 * np.pi**2) / (2 * np.pi**2) < 0.01

    def test_zero_maps_to_zero(self, grid2d_small):
        a = po.heat_operator(grid2d_small)
        assert np.all(a.apply(np.zeros(grid2d_small.size)) == 0.0)

    def test_symmetry_mixed_bc(self):
        g = po.build_grid_2d(6, 5, dirichlet_sides=("left",))
        a = toarray(po.heat_operator(g))
        assert np.max(np.abs(a - a.T)) == 0.0

    def test_constant_vector_mixed_bc(self):
        # all-Neumann except the left side: Laplacian of a constant vanishes
        # away from the Dirichlet side
        g = po.build_grid_2d(6, 6, dirichlet_sides=("left",))
        out = po.heat_operator(g).apply(np.ones(g.size)).reshape(6, 6)
        assert np.max(np.abs(out[:, 1:])) == 0.0
        assert np.all(out[:, 0] != 0.0)

    def test_stencil_oracle_4x4(self):
        g = po.build_grid_2d(4, 4, dirichlet_sides=("left", "top"))
        mat = toarray(po.heat_operator(g))
        nx, ny = 4, 4
        hx2, hy2 = g.hx**2, g.hy**2

        def entry(ix, iy, jx, jy):
            # independent stencil bookkeeping
            val = 0.0
            if (jx, jy) == (ix, iy):
                val -= 2.0 / hx2 + 2.0 / hy2
                if ix == 0:
                    val += -1.0 / hx2  # Dirichlet left: ghost = -cell
                if ix == nx - 1:
                    val += 1.0 / hx2   # Neumann right: ghost = cell
                if iy == 0:
                    val += 1.0 / hy2   # Neumann bottom
                if iy == ny - 1:
                    val += -1.0 / hy2  # Dirichlet top
            elif abs(jx - ix) == 1 and jy == iy:
                val += 1.0 / hx2
            elif abs(jy - iy) == 1 and jx == ix:
                val += 1.0 / hy2
            return val

        for iy in range(ny):
            for ix in range(nx):
                for jy in range(ny):
                    for jx in range(nx):
                        expect = entry(ix, iy, jx, jy)
                        got = mat[iy * nx + ix, jy * nx + jx]
                        assert got == pytest.approx(expect, abs=1e-12)

    def test_empty_gamma0_rejected(self):
        with pytest.raises(InvalidBoundaryError):
            po.build_grid_2d(8, 8, dirichlet_sides=())
        g = po.Grid2D(nx=8, ny=8, lx=1.0, ly=1.0,
                      dirichlet={s: False for s in ("left", "right", "bottom", "top")})
        with pytest.raises(InvalidBoundaryError):
            po.heat_operator(g)


class TestInnerProduct:
    def test_sine_squared(self):
        g = po.build_grid_1d(255)
        f = np.sin(np.pi * g.nodes)
        assert po.inner_product(f, f, g) == pytest.approx(0.5, abs=1e-6)

    def test_mode_orthogonality(self):
        g = po.build_grid_1d(255)
        f = np.sin(np.pi * g.nodes)
        h = np.sin(2 * np.pi * g.nodes)
        assert abs(po.inner_product(f, h, g)) < 1e-10

    def test_unit_square_area(self):
        g = po.build_grid_2d(16, 16)
        ones = np.ones(g.size)
        # weight-summation oracle
        assert po.inner_product(ones, ones, g) == pytest.approx(np.sum(np.full(g.size, g.weight)))
        assert po.inner_product(ones, ones, g) == pytest.approx(1.0)

    def test_dimension_mismatch(self, grid1d_small):
        with pytest.raises(ValueError):
            po.inner_product(np.ones(5), np.ones(5), grid1d_small)


class TestRieszMap:
    def test_zero(self, grid1d_small):
        assert np.all(po.h1_riesz_map(np.zeros(32), grid1d_small) == 0.0)

    def test_round_trip(self, grid1d_small):
        g = grid1d_small
        k = po.h1_operator(g)
        target = np.sin(np.pi * g.nodes)
        v = k.apply(target)
        assert po.h1_riesz_map(v, g) == pytest.approx(target, rel=1e-10)

    def test_eigenvector_scaling(self):
        g = po.build_grid_1d(48)
        neg_lap = toarray(po.h1_operator(g)) - np.eye(g.size)
        vals, vecs = np.linalg.eigh(neg_lap)
        e1, mu1 = vecs[:, 0], vals[0]
        out = po.h1_riesz_map(e1, g)
        assert out == pytest.approx(e1 / (mu1 + 1.0), rel=1e-10)

    def test_h1_operator_spd_and_self_adjoint(self, grid2d_small, rng):
        g = grid2d_small
        k = po.h1_operator(g)
        f = rng.standard_normal(g.size)
        h = rng.standard_normal(g.size)
        lhs = po.inner_product(k.apply(f), h, g)
        rhs = po.inner_product(f, k.apply(h), g)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert po.inner_product(f, k.apply(f), g) > 0


class TestSmallestEigenvalue:
    def test_diagonal(self):
        op = LinearOperator(factors=(np.diag([3.0, 7.0]),))
        assert po.smallest_eigenvalue(op) == pytest.approx(3.0)

    def test_sparse_path_matches_dense(self):
        g = po.build_grid_2d(32, 32)  # n = 1024, basis from two 32 x 32 factors
        op = -po.heat_operator(g)
        sparse_val = po.smallest_eigenvalue(op)
        dense_val = np.linalg.eigvalsh(toarray(op))[0]
        assert sparse_val == pytest.approx(dense_val, rel=1e-9)


def test_adjoint_consistency_random_operators(rng):
    # every built operator satisfies <L f, g> = <f, L^T g> in the weighted
    # inner product because the weights are uniform
    g1 = po.build_grid_1d(24)
    g2 = po.build_grid_2d(6, 7, dirichlet_sides=("left", "bottom"))
    ops = [(po.ks_operator(g1, lam=12.0), g1), (po.heat_operator(g2), g2),
           (po.h1_operator(g1), g1), (po.h1_operator(g2), g2)]
    for op, grid in ops:
        mat_t = toarray(op).T
        for _ in range(5):
            f = rng.standard_normal(grid.size)
            h = rng.standard_normal(grid.size)
            lhs = po.inner_product(op.apply(f), h, grid)
            rhs = po.inner_product(f, mat_t @ h, grid)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
