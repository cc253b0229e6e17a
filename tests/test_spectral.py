"""Eigenbasis consumers against dense oracles on non-square, mixed-BC grids.

Every operator's Crank-Nicolson factors, H1 Riesz map and smallest
eigenvalue come from its cached eigenbasis; for the 2-D operators that basis
is a Kronecker product applied through x.reshape(ny, nx), so these checks use
nx != ny and lx != ly, where a transposed reshape would show.
"""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

import pdeopt as po
from pdeopt.adjoint import adjoint_sweep, linearized_forward
from pdeopt.exceptions import PdeoptError
from pdeopt.forward import crank_nicolson_factors
from pdeopt.grids import LinearOperator

SIDES = ("left", "right", "bottom", "top")


@st.composite
def rect_grids(draw):
    nx = draw(st.integers(4, 12))
    ny = draw(st.integers(4, 12).filter(lambda n: n != nx))
    lx = draw(st.floats(0.5, 2.0))
    ly = draw(st.floats(0.5, 2.0).filter(lambda v: abs(v - lx) > 0.05))
    sides = draw(st.lists(st.sampled_from(SIDES), min_size=1, max_size=4, unique=True))
    return po.build_grid_2d(nx, ny, lx, ly, dirichlet_sides=tuple(sides))


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grid=rect_grids(), dt=st.floats(1e-4, 1e-2), seed=st.integers(0, 2**16))
def test_eigenbasis_matches_dense_oracles(grid, dt, seed):
    rng = np.random.default_rng(seed)
    a_op = po.heat_operator(grid)
    a = a_op.toarray()
    eye = np.eye(grid.size)
    x = rng.standard_normal(grid.size)

    cn = crank_nicolson_factors(a_op, dt)
    assert rel_err(cn.solve(x), np.linalg.solve(eye - 0.5 * dt * a, x)) <= 1e-12
    assert rel_err(cn.explicit(x), (eye + 0.5 * dt * a) @ x) <= 1e-12

    k = po.h1_operator(grid).toarray()
    assert rel_err(po.h1_riesz_map(x, grid), np.linalg.solve(k, x)) <= 1e-10

    c_omega = po.smallest_eigenvalue(-a_op)
    assert c_omega == pytest.approx(np.linalg.eigvalsh(-a)[0], rel=1e-10)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), seed=st.integers(0, 2**16))
def test_linearized_adjoint_duality_non_square(grid, seed):
    rng = np.random.default_rng(seed)
    model = po.make_heat_model(grid)
    tg = po.TimeGrid(tau=0.1, nt=12)
    traj = po.solve_forward(model, None, model.actuator_family.initial_design(),
                            rng.standard_normal(grid.size), tg)
    g = rng.standard_normal(traj.states.shape)
    phi = rng.standard_normal(traj.states.shape)
    h = linearized_forward(model, traj, tg, g)
    lam = adjoint_sweep(model, traj, tg, phi)
    lhs = float(np.sum(h[1:] * phi[1:]))
    rhs = float(np.sum(g[:-1] * lam[1:]))
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_singular_crank_nicolson_factor_names_dt():
    # eigenvalue 2/dt makes I - dt/2 A singular
    op = LinearOperator(mat=sps.csr_matrix(np.diag([4.0, -1.0])), symmetric=True)
    with pytest.raises(PdeoptError, match="dt=0.5"):
        crank_nicolson_factors(op, 0.5)


def test_iss_margin_uses_own_poincare_constant():
    # Heat models built and dropped in a loop: a constant cached under the
    # id() of a dead operator would be handed to a later model of another size.
    rng = np.random.default_rng(7)
    tg = po.TimeGrid(tau=1.0, nt=4)
    u = po.ControlSignal(tg, np.full(tg.nt + 1, 5.0))
    for _ in range(200):
        nx, ny = rng.integers(4, 13, size=2)
        sides = [s for s in SIDES if rng.random() < 0.5] or ["left"]
        grid = po.build_grid_2d(int(nx), int(ny), dirichlet_sides=tuple(sides))
        model = po.make_heat_model(grid)
        design = model.actuator_family.initial_design()
        states = np.zeros((tg.nt + 1, grid.size))
        states[0] = rng.standard_normal(grid.size)
        traj = po.Trajectory(tg, states)
        margin = po.verify_heat_iss_bound(traj, u, design, grid, model)

        c_omega = np.linalg.eigvalsh(-model.linear_op.toarray())[0]
        r_vec = model.actuator_family.evaluate(design, grid)
        expect = po.inner_product(states[0], states[0], grid) \
            + 4.0 / c_omega * po.control_l2_norm(u) ** 2 * po.inner_product(r_vec, r_vec, grid)
        assert margin == pytest.approx(expect, rel=1e-10)
