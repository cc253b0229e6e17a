"""Eigenbasis consumers against dense oracles on non-square, mixed-BC grids.

Every operator's Crank-Nicolson factors, H1 Riesz map and smallest
eigenvalue come from its cached eigenbasis; for the 2-D operators that basis
is a Kronecker product applied through x.reshape(ny, nx), so these checks use
nx != ny and lx != ly, where a transposed reshape would show.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pdeopt as po
from pdeopt.adjoint import adjoint_sweep, linearized_forward
from pdeopt.exceptions import BlowUpError, PdeoptError
from pdeopt.forward import crank_nicolson_factors
from pdeopt.grids import LinearOperator

from conftest import toarray

SIDES = ("left", "right", "bottom", "top")


@st.composite
def rect_grids(draw):
    """Non-square rectangles: nx != ny in [4, 12] cells, lx and ly in
    [0.5, 2] at least 0.05 apart, and one to four Dirichlet sides."""
    nx = draw(st.integers(4, 12))
    ny = draw(st.integers(4, 12).filter(lambda n: n != nx))
    lx = draw(st.floats(0.5, 2.0))
    ly = draw(st.floats(0.5, 2.0).filter(lambda v: abs(v - lx) > 0.05))
    sides = draw(st.lists(st.sampled_from(SIDES), min_size=1, max_size=4, unique=True))
    return po.build_grid_2d(nx, ny, lx, ly, dirichlet_sides=tuple(sides))


# the edges of rect_grids: fewest x cells on the tallest rectangle with one
# Dirichlet side, and the most x cells on the widest with all four
SMALL_GRID = po.build_grid_2d(4, 12, 0.5, 2.0, dirichlet_sides=("top",))
LARGE_GRID = po.build_grid_2d(12, 4, 2.0, 0.5, dirichlet_sides=SIDES)
SEEDS = st.integers(0, 2**16)


@st.composite
def bad_inputs(draw):
    """(nt, step, value): 2 to 20 steps and the input sample at a step in
    [0, nt - 1] set to inf or nan."""
    nt = draw(st.integers(2, 20))
    return nt, draw(st.integers(0, nt - 1)), draw(st.sampled_from([np.inf, np.nan]))


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def dense_cn_ab2(model, uv, design, x0, tg):
    """Nodal CN-AB2 with dense solves of I - dt/2 A: the stepper as written
    in forward.py's docstring, with no eigenbasis involved.  Stops after the
    first non-finite state, which the heat nonlinearity refuses."""
    a = toarray(model.linear_op)
    eye = np.eye(a.shape[0])
    m, p = eye - 0.5 * tg.dt * a, eye + 0.5 * tg.dt * a
    b = model.actuator_family.evaluate(design, model.grid)
    states = [x0]
    n_prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(tg.nt):
            x = states[k]
            if not np.isfinite(x).all():
                break
            n_k = (np.zeros_like(x) if model.nonlinearity is None
                   else model.nonlinearity(x)) + b * uv[k]
            s_k = n_k if k == 0 else 1.5 * n_k - 0.5 * n_prev
            states.append(np.linalg.solve(m, p @ states[k] + tg.dt * s_k))
            n_prev = n_k
    return np.array(states)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grid=rect_grids(), seed=SEEDS)
@example(grid=SMALL_GRID, seed=0)
@example(grid=LARGE_GRID, seed=2**16)
def test_eigenbasis_matches_dense_oracles(grid, seed):
    rng = np.random.default_rng(seed)
    a_op = po.heat_operator(grid)
    a = toarray(a_op)
    x = rng.standard_normal(grid.size)

    k = toarray(po.h1_operator(grid))
    assert rel_err(po.h1_riesz_map(x, grid), np.linalg.solve(k, x)) <= 1e-10

    c_omega = po.smallest_eigenvalue(-a_op)
    assert c_omega == pytest.approx(np.linalg.eigvalsh(-a)[0], rel=1e-10)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), seed=SEEDS)
@example(grid=SMALL_GRID, seed=0)
@example(grid=LARGE_GRID, seed=2**16)
def test_linearized_adjoint_duality_non_square(grid, seed):
    rng = np.random.default_rng(seed)
    model = po.make_heat_model(grid)
    tg = po.TimeGrid(tau=0.1, nt=12)
    traj = po.solve_forward(model, None, model.actuator_family.initial_design(),
                            rng.standard_normal(grid.size), tg)
    g = rng.standard_normal(traj.states.shape)
    phi = rng.standard_normal(traj.states.shape)
    h = linearized_forward(model, traj, tg, g)
    lam = adjoint_sweep(model, traj, tg, phi.copy())
    lhs = float(np.sum(h[1:] * phi[1:]))
    rhs = float(np.sum(g[:-1] * lam[1:]))
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_singular_crank_nicolson_factor_names_dt():
    # eigenvalue 2/dt makes I - dt/2 A singular
    op = LinearOperator(factors=(np.diag([4.0, -1.0]),))
    with pytest.raises(PdeoptError, match="dt=0.5"):
        crank_nicolson_factors(op, 0.5)


def test_overflowing_crank_nicolson_factors_name_dt():
    # dt/2 times the stiff biharmonic eigenvalues overflows float64: an error
    # naming dt, not overflow warnings followed by a blow-up at step 1
    op = po.ks_operator(po.build_grid_1d(128), 30.0)
    with pytest.raises(PdeoptError, match="dt=5e\\+299"):
        crank_nicolson_factors(op, 5e299)


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

        c_omega = np.linalg.eigvalsh(-toarray(model.linear_op))[0]
        r_vec = model.actuator_family.evaluate(design, grid)
        expect = po.inner_product(states[0], states[0], grid) \
            + 4.0 / c_omega * tg.norm(u.values) ** 2 * po.inner_product(r_vec, r_vec, grid)
        assert margin == pytest.approx(expect, rel=1e-10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(grid=rect_grids(), batch=st.integers(1, 5), seed=SEEDS)
@example(grid=SMALL_GRID, batch=1, seed=0)
@example(grid=LARGE_GRID, batch=5, seed=2**16)
def test_batched_modal_transforms_match_rows(grid, batch, seed):
    rng = np.random.default_rng(seed)
    for basis in (po.heat_operator(grid).basis,
                  po.ks_operator(po.build_grid_1d(grid.size), 30.0).basis):
        x = rng.standard_normal((batch, 3, grid.size))
        c = basis.to_modal(x)
        assert basis.values.shape == (grid.size,)
        assert c.shape == (batch, 3, *basis.values.shape)
        for i in np.ndindex(batch, 3):
            want = basis.to_modal(x[i])
            assert np.linalg.norm(c[i] - want) <= 1e-14 * np.linalg.norm(want)
            back = basis.from_modal(c[i])
            assert np.linalg.norm(basis.from_modal(c)[i] - back) <= 1e-14 * np.linalg.norm(back)
        assert rel_err(basis.from_modal(c), x) <= 1e-13


@settings(max_examples=20, deadline=None, derandomize=True)
@given(grid=rect_grids(), batch=st.integers(1, 4), seed=SEEDS)
@example(grid=SMALL_GRID, batch=1, seed=0)
@example(grid=LARGE_GRID, batch=4, seed=2**16)
def test_modal_transforms_into_out_match_the_allocating_maps(grid, batch, seed):
    # one state and a batch; the dense V checks the values, where a swapped
    # factor or a transposed reshape in either path would show
    rng = np.random.default_rng(seed)
    for basis in (po.heat_operator(grid).basis,
                  po.ks_operator(po.build_grid_1d(grid.size), 30.0).basis):
        v = basis.matrix
        for lead in ((), (batch,)):
            x = rng.standard_normal((*lead, grid.size))
            c = np.empty((*lead, *basis.values.shape))
            assert np.shares_memory(basis.to_modal(x, out=c), c)
            assert np.array_equal(c, basis.to_modal(x))
            assert rel_err(c.reshape(x.shape), x @ v) <= 1e-13
            back = np.empty_like(x)
            assert np.shares_memory(basis.from_modal(c, out=back), back)
            assert np.array_equal(back, basis.from_modal(c))
            assert rel_err(back, c.reshape(x.shape) @ v.T) <= 1e-13


@pytest.mark.parametrize("kind", ["heat", "ks"])
def test_from_modal_overwrite_gives_the_same_rows(kind, rng):
    # out=c: the Kronecker map writes its second GEMM over c, and the
    # one-factor map its single GEMM, a block of rows at a time
    grid = po.build_grid_2d(6, 5)
    basis = po.heat_operator(grid).basis if kind == "heat" \
        else po.ks_operator(po.build_grid_1d(grid.size), 30.0).basis
    c = rng.standard_normal((4, *basis.values.shape))
    want = basis.from_modal(c)
    got = basis.from_modal(c, out=c)
    assert np.array_equal(got, want)
    assert np.shares_memory(got, c)


@pytest.mark.parametrize("kind", ["heat", "ks"])
def test_to_modal_overwrite_gives_the_same_rows(kind, rng):
    # out over x, as the linear adjoint maps its source: the Kronecker map
    # writes its second GEMM over x, the one-factor map a block of rows at a time
    grid = po.build_grid_2d(6, 5)
    basis = po.heat_operator(grid).basis if kind == "heat" \
        else po.ks_operator(po.build_grid_1d(grid.size), 30.0).basis
    x = rng.standard_normal((4, grid.size))
    want = basis.to_modal(x)
    got = basis.to_modal(x, out=x.reshape(want.shape))
    assert np.array_equal(got, want)
    assert np.shares_memory(got, x)


def _one_factor_map_over_input(direction, rng):
    # numpy copies all of an input that overlaps out; over more rows than one
    # block, a one-factor map written over its input holds a block's copy and
    # no more
    basis = po.ks_operator(po.build_grid_1d(64), 30.0).basis
    c = rng.standard_normal((301, 64))
    want = c @ (basis.matrix if direction == "to_modal" else basis.matrix.T)
    tracemalloc.start()
    try:
        got = getattr(basis, direction)(c, out=c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(got, c)
    assert rel_err(got, want) <= 1e-13
    assert peak < 0.25 * c.nbytes


def test_one_factor_from_modal_over_c_holds_no_copy_of_c(rng):
    _one_factor_map_over_input("from_modal", rng)


def test_one_factor_to_modal_over_x_holds_no_copy_of_x(rng):
    _one_factor_map_over_input("to_modal", rng)


def _forward_case(model, rng, tg, amplitude):
    design = model.actuator_family.initial_design()
    u = po.ControlSignal(tg, rng.standard_normal(tg.nt + 1))
    x0 = amplitude * rng.standard_normal(model.grid.size)
    got = po.solve_forward(model, u, design, x0, tg).states
    return got, dense_cn_ab2(model, u.values, design, x0, tg)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), nt=st.integers(2, 30), seed=SEEDS)
@example(grid=SMALL_GRID, nt=2, seed=0)
@example(grid=LARGE_GRID, nt=30, seed=2**16)
def test_solve_forward_matches_dense_cn_ab2_heat(grid, nt, seed):
    rng = np.random.default_rng(seed)
    tg = po.TimeGrid(tau=0.05, nt=nt)
    for f_scalar in (None, po.CUBIC_SINK):
        got, want = _forward_case(po.make_heat_model(grid, f_scalar), rng, tg, 1.0)
        assert rel_err(got, want) <= 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=st.integers(8, 24), nt=st.integers(2, 30), seed=SEEDS)
@example(n=8, nt=30, seed=0)
@example(n=24, nt=2, seed=2**16)
def test_solve_forward_matches_dense_cn_ab2_ks(n, nt, seed):
    # The dense LU reference itself loses about kappa(I - dt/2 A) digits on
    # the biharmonic operator, so dt*max|lambda|/2 stays below ~2e3 here,
    # 1.5e3 at the stiffest edge (n = 24, nt = 2).
    rng = np.random.default_rng(seed)
    tg = po.TimeGrid(tau=1e-3, nt=nt)
    for linear in (True, False):
        model = po.make_ks_model(po.build_grid_1d(n), 30.0, linear=linear)
        got, want = _forward_case(model, rng, tg, 0.5)
        assert rel_err(got, want) <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), seed=SEEDS)
@example(grid=SMALL_GRID, seed=0)
@example(grid=LARGE_GRID, seed=2**16)
def test_linearized_adjoint_duality_linear_heat(grid, seed):
    rng = np.random.default_rng(seed)
    model = po.make_heat_model(grid, f_scalar=None)
    tg = po.TimeGrid(tau=0.1, nt=12)
    traj = po.solve_forward(model, None, model.actuator_family.initial_design(),
                            rng.standard_normal(grid.size), tg)
    g = rng.standard_normal(traj.states.shape)
    phi = rng.standard_normal(traj.states.shape)
    h = linearized_forward(model, traj, tg, g)
    lam = adjoint_sweep(model, traj, tg, phi.copy())
    lhs = float(np.sum(h[1:] * phi[1:]))
    rhs = float(np.sum(g[:-1] * lam[1:]))
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(grid=rect_grids(), bad=bad_inputs())
@example(grid=SMALL_GRID, bad=(2, 0, np.inf))
@example(grid=LARGE_GRID, bad=(20, 19, np.nan))
def test_linear_blow_up_step_matches_dense_cn_ab2(grid, bad):
    # The linear path checks the whole trajectory once, after mapping it
    # back; it must still name the step the per-step reference fails at.
    model = po.make_heat_model(grid, f_scalar=None)
    design = model.actuator_family.initial_design()
    nt, step, value = bad
    tg = po.TimeGrid(tau=0.05, nt=nt)
    uv = np.ones(nt + 1)
    uv[step] = value
    x0 = np.ones(grid.size)
    want = dense_cn_ab2(model, uv, design, x0, tg)
    first_bad = int(np.argmax(~np.isfinite(want).all(axis=1)))
    with pytest.raises(BlowUpError) as err:
        po.solve_forward(model, po.ControlSignal(tg, uv), design, x0, tg)
    assert err.value.step == first_bad


def ks_model(n):
    return po.make_ks_model(po.build_grid_1d(n), 30.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(model=st.one_of(st.integers(8, 24).map(ks_model), rect_grids().map(po.make_heat_model)),
       bad=bad_inputs())
# the edges: KS on 8 and 24 nodes, cubic heat on both edge grids
@example(model=ks_model(8), bad=(2, 0, np.inf))
@example(model=ks_model(24), bad=(20, 19, np.nan))
@example(model=po.make_heat_model(SMALL_GRID), bad=(2, 0, np.nan))
@example(model=po.make_heat_model(LARGE_GRID), bad=(20, 19, np.inf))
def test_nonlinear_blow_up_step_matches_dense_cn_ab2(model, bad):
    # The nonlinear path also checks the whole trajectory once, at the end or
    # when the heat term refuses a non-finite state; it must name the step
    # the per-step reference fails at.  KS (n in [8, 24]) runs on tau = 1e-3,
    # cubic heat on rect_grids and tau = 0.05.
    nt, step, value = bad
    tg = po.TimeGrid(tau=1e-3 if isinstance(model.grid, po.Grid1D) else 0.05, nt=nt)
    design = model.actuator_family.initial_design()
    uv = np.ones(nt + 1)
    uv[step] = value
    x0 = 0.5 * np.ones(model.grid.size)
    want = dense_cn_ab2(model, uv, design, x0, tg)
    first_bad = int(np.argmax(~np.isfinite(want).all(axis=1)))
    with pytest.raises(BlowUpError) as err:
        po.solve_forward(model, po.ControlSignal(tg, uv), design, x0, tg)
    assert err.value.step == first_bad
