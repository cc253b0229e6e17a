"""Eigenbasis consumers against dense oracles on non-square, mixed-BC grids.

Every operator's Crank-Nicolson factors, H1 Riesz map and smallest
eigenvalue come from its cached eigenbasis; for the 2-D operators that basis
is a Kronecker product applied through x.reshape(ny, nx), so these checks use
nx != ny and lx != ly, where a transposed reshape would show.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdeopt as po
from pdeopt.adjoint import adjoint_sweep, linearized_forward
from pdeopt.exceptions import BlowUpError, PdeoptError
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


def dense_cn_ab2(model, uv, design, x0, tg):
    """Nodal CN-AB2 with dense solves of I - dt/2 A: the stepper as written
    in forward.py's docstring, with no eigenbasis involved."""
    a = model.linear_op.toarray()
    eye = np.eye(a.shape[0])
    m, p = eye - 0.5 * tg.dt * a, eye + 0.5 * tg.dt * a
    b = model.actuator_family.evaluate(design, model.grid)
    states = [x0]
    n_prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(tg.nt):
            x = states[k]
            n_k = (np.zeros_like(x) if model.nonlinearity is None
                   else model.nonlinearity(x)) + b * uv[k]
            s_k = n_k if k == 0 else 1.5 * n_k - 0.5 * n_prev
            states.append(np.linalg.solve(m, p @ states[k] + tg.dt * s_k))
            n_prev = n_k
    return np.array(states)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grid=rect_grids(), seed=st.integers(0, 2**16))
def test_eigenbasis_matches_dense_oracles(grid, seed):
    rng = np.random.default_rng(seed)
    a_op = po.heat_operator(grid)
    a = a_op.toarray()
    x = rng.standard_normal(grid.size)

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
    op = LinearOperator(factors=(np.diag([4.0, -1.0]),))
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
        margin = po.verify_heat_iss_bound(traj, u, design, model)

        c_omega = np.linalg.eigvalsh(-model.linear_op.toarray())[0]
        r_vec = model.actuator_family.evaluate(design, grid)
        expect = po.inner_product(states[0], states[0], grid) \
            + 4.0 / c_omega * tg.norm(u.values) ** 2 * po.inner_product(r_vec, r_vec, grid)
        assert margin == pytest.approx(expect, rel=1e-10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(grid=rect_grids(), batch=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_batched_modal_transforms_match_rows(grid, batch, seed):
    rng = np.random.default_rng(seed)
    for basis in (po.heat_operator(grid).basis,
                  po.ks_operator(po.build_grid_1d(grid.size), 30.0).basis):
        x = rng.standard_normal((batch, 3, grid.size))
        c = basis.to_modal(x)
        assert c.shape == (batch, 3, *basis.values.shape)
        for i in np.ndindex(batch, 3):
            want = basis.to_modal(x[i])
            assert np.linalg.norm(c[i] - want) <= 1e-14 * np.linalg.norm(want)
            back = basis.from_modal(c[i])
            assert np.linalg.norm(basis.from_modal(c)[i] - back) <= 1e-14 * np.linalg.norm(back)
        assert rel_err(basis.from_modal(c), x) <= 1e-13


def _forward_case(model, rng, tg, amplitude):
    design = model.actuator_family.initial_design()
    u = po.ControlSignal(tg, rng.standard_normal(tg.nt + 1))
    x0 = amplitude * rng.standard_normal(model.grid.size)
    got = po.solve_forward(model, u, design, x0, tg).states
    return got, dense_cn_ab2(model, u.values, design, x0, tg)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), nt=st.integers(2, 30), seed=st.integers(0, 2**16))
def test_solve_forward_matches_dense_cn_ab2_heat(grid, nt, seed):
    rng = np.random.default_rng(seed)
    tg = po.TimeGrid(tau=0.05, nt=nt)
    for f_scalar in (None, po.CUBIC_SINK):
        got, want = _forward_case(po.make_heat_model(grid, f_scalar), rng, tg, 1.0)
        assert rel_err(got, want) <= 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=st.integers(8, 24), nt=st.integers(2, 30), seed=st.integers(0, 2**16))
def test_solve_forward_matches_dense_cn_ab2_ks(n, nt, seed):
    # The dense LU reference itself loses about kappa(I - dt/2 A) digits on
    # the biharmonic operator, so dt*max|lambda|/2 stays below ~2e3 here.
    rng = np.random.default_rng(seed)
    tg = po.TimeGrid(tau=1e-3, nt=nt)
    for linear in (True, False):
        model = po.make_ks_model(po.build_grid_1d(n), 30.0, linear=linear)
        got, want = _forward_case(model, rng, tg, 0.5)
        assert rel_err(got, want) <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), seed=st.integers(0, 2**16))
def test_linearized_adjoint_duality_linear_heat(grid, seed):
    rng = np.random.default_rng(seed)
    model = po.make_heat_model(grid, f_scalar=None)
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


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), nt=st.integers(2, 20), data=st.data())
def test_linear_blow_up_step_matches_dense_cn_ab2(grid, nt, data):
    # The linear path checks the whole trajectory once, after mapping it
    # back; it must still name the step the per-step reference fails at.
    model = po.make_heat_model(grid, f_scalar=None)
    design = model.actuator_family.initial_design()
    tg = po.TimeGrid(tau=0.05, nt=nt)
    uv = np.ones(nt + 1)
    uv[data.draw(st.integers(0, nt - 1))] = data.draw(st.sampled_from([np.inf, np.nan]))
    x0 = np.ones(grid.size)
    want = dense_cn_ab2(model, uv, design, x0, tg)
    first_bad = int(np.argmax(~np.isfinite(want).all(axis=1)))
    with pytest.raises(BlowUpError) as err:
        po.solve_forward(model, po.ControlSignal(tg, uv), design, x0, tg)
    assert err.value.step == first_bad
