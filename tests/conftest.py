import tracemalloc

import numpy as np
import pytest

import pdeopt as po


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def grid1d_small():
    return po.build_grid_1d(32)


@pytest.fixture(scope="session")
def grid2d_small():
    return po.build_grid_2d(8, 8)


@pytest.fixture(scope="session")
def ks_model_small(grid1d_small):
    return po.make_ks_model(grid1d_small, lam=30.0)


@pytest.fixture(scope="session")
def heat_model_small(grid2d_small):
    return po.make_heat_model(grid2d_small)


@pytest.fixture(scope="session")
def heat_model_linear(grid2d_small):
    return po.make_heat_model(grid2d_small, f_scalar=None)


def l2_norm(f, grid):
    """Discrete L2 norm sqrt(sum_i w_i f_i^2)."""
    return float(np.sqrt(max(po.inner_product(f, f, grid), 0.0)))


def smooth_clamped(grid, amplitude=1.0):
    """Clamped-conforming 1-D profile (value and slope vanish at both ends)."""
    return amplitude * 0.5 * (1.0 - np.cos(2 * np.pi * grid.nodes))


def first_mode_2d(grid, amplitude=1.0):
    xx, yy = grid.meshgrid()
    return amplitude * (np.sin(np.pi * xx / grid.lx) * np.sin(np.pi * yy / grid.ly)).ravel()


def toarray(op):
    """The assembled n x n matrix of a ``LinearOperator`` (a fresh copy)."""
    if len(op.factors) == 1:
        return op.factors[0].copy()
    fy, fx = op.factors
    return np.kron(fy, np.eye(len(fx))) + np.kron(np.eye(len(fy)), fx)


def traced_peak(fn):
    """fn() and the peak bytes traced while it ran, above those live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def lq_optimum(model, design, x0, weights, tg):
    """The discrete optimum (u*, J*) of a linear model over all inputs, by
    dense normal equations: J(u) = ||A u + c||^2 + rho dt sum_k theta_k u_k^2,
    with the columns of A from nt + 1 unit-input solves (x0 = 0) and c from
    the free solve, each state weighted by sqrt(q dt theta_k w)."""
    scale = np.sqrt(weights.q_scale * tg.dt * tg.weights * model.grid.weight)[:, None]

    def response(u, x):
        traj = po.solve_forward(model, po.ControlSignal(tg, u), design, x, tg)
        return (scale * traj.states).ravel()
    c = response(np.zeros(tg.nt + 1), x0)
    a = np.column_stack([response(e, np.zeros_like(x0)) for e in np.eye(tg.nt + 1)])
    rho = weights.r_scale * tg.dt * tg.weights
    u = np.linalg.solve(a.T @ a + np.diag(rho), -(a.T @ c))
    return u, float(np.sum((a @ u + c) ** 2) + rho @ u**2)
