"""Concrete semilinear models: KS advection nonlinearity, pointwise reaction
terms for the heat model, and the two actuator families with their design
derivatives.

The Jacobian adjoints implemented here are the exact transposes of the
discrete Jacobians (discretize-then-optimize), so the weighted duality
<F'_w f, g> = <f, F'*_w g> holds to roundoff on every grid.  The continuous
formulas only serve as O(h) consistency oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConstraintViolationError, PdeoptError
from .grids import Grid1D, Grid2D, LinearOperator, heat_operator, ks_operator


def _central_diff(f: np.ndarray, h: float) -> np.ndarray:
    """Central first difference with zero values at both ghost ends."""
    out = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[0], out[-1] = f[1], -f[-2]
    out /= 2.0 * h
    return out


def ks_nonlinearity(w: np.ndarray, grid: Grid1D) -> np.ndarray:
    """F(w) = -w * w_xi, with the clamped boundary values (zero) as ghosts."""
    return -w * _central_diff(w, grid.h)


def ks_jacobian_apply(w: np.ndarray, f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Derivative of the KS nonlinearity at w applied to f: -w f_xi - w_xi f."""
    return -w * _central_diff(f, grid.h) - _central_diff(w, grid.h) * f


def ks_jacobian_adjoint_apply(w: np.ndarray, g: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Exact transpose of the discrete KS Jacobian applied to g.

    Equals D(w*g) - (Dw)*g with D the central difference, i.e. it tends to
    +w g_xi in the continuum (integration by parts of -w f_xi - w_xi f
    against g moves both terms onto f with that sign).
    """
    return _central_diff(w * g, grid.h) - _central_diff(w, grid.h) * g


@dataclass(frozen=True)
class ScalarNonlinearity:
    """Pointwise reaction term F(zeta) with its derivative.

    ``sign_condition`` declares zeta*F(zeta) <= 0 for all real zeta, the ISS
    bound's hypothesis (a model without F has it: ModelSpec.sign_condition).
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    sign_condition: bool


CUBIC_SINK = ScalarNonlinearity(
    value=lambda z: -(z * z * z),
    derivative=lambda z: -3.0 * z**2,
    sign_condition=True,
)


def heat_nonlinearity(w: np.ndarray, f_scalar: ScalarNonlinearity) -> np.ndarray:
    """Pointwise application F(w_i); a non-finite value raises PdeoptError
    (the sweep that calls it runs under np.errstate, so numpy stays quiet)."""
    out = f_scalar.value(w)
    if not np.isfinite(out).all():
        raise PdeoptError("pointwise nonlinearity overflowed to a non-finite value")
    return out


def heat_jacobian_apply(w: np.ndarray, f: np.ndarray, f_scalar: ScalarNonlinearity) -> np.ndarray:
    return f_scalar.derivative(w) * f


def heat_jacobian_adjoint_apply(w: np.ndarray, g: np.ndarray, f_scalar: ScalarNonlinearity) -> np.ndarray:
    # diagonal Jacobian, hence self-adjoint
    return f_scalar.derivative(w) * g


@dataclass(frozen=True)
class ActuatorDesign:
    """Design parameters: length-1 array (KS location) or shape coefficients."""

    params: np.ndarray

    @staticmethod
    def of(*values: float) -> "ActuatorDesign":
        return ActuatorDesign(params=np.asarray(values, dtype=float))


class ActuatorFamily:
    """Common interface of the two actuator parametrizations, whose design
    set is the box ``lower <= params <= upper``."""

    lower: np.ndarray
    upper: np.ndarray

    @property
    def design_dim(self) -> int:
        return self.lower.size

    def evaluate(self, design: ActuatorDesign, grid) -> np.ndarray:
        raise NotImplementedError

    def param_derivative(self, design: ActuatorDesign, grid) -> np.ndarray:
        """Rows m = d b / d param_m sampled on the grid, shape (design_dim, size)."""
        raise NotImplementedError

    def project(self, params: np.ndarray) -> np.ndarray:
        return np.clip(params, self.lower, self.upper)

    def check(self, design: ActuatorDesign) -> None:
        """The one design rule: the family's number of parameters, each
        within 1e-12 of the box."""
        if design.params.shape != (self.design_dim,):
            raise ConstraintViolationError(
                f"design has {design.params.shape[0]} parameters, family needs {self.design_dim}")
        if not np.all(np.abs(self.project(design.params) - design.params) <= 1e-12):
            raise ConstraintViolationError(f"design {design.params} outside the admissible set")

    def initial_design(self) -> ActuatorDesign:
        raise NotImplementedError


class KsGaussianActuator(ActuatorFamily):
    """Gaussian bump b(xi; r) = exp(-(xi-r)^2 / (2 omega^2)) with r in [a, b].

    Smooth in both xi and r, so the design derivative d b/d r is analytic:
    b * (xi - r)/omega^2.
    """

    def __init__(self, omega: float = 0.05, bounds: tuple[float, float] = (0.1, 0.9)):
        if omega <= 0:
            raise ValueError("bump width omega must be positive")
        a, b = bounds
        if not (0.0 < a < b < 1.0):
            raise ValueError(f"admissible interval must satisfy 0 < a < b < 1, got {bounds}")
        # a numpy square is inf where the Python float one raises OverflowError:
        # a bump too wide to square is the constant b = 1
        with np.errstate(over="ignore"):
            self._omega_sq = float(np.float64(omega)**2)
        self.lower, self.upper = np.array([a], dtype=float), np.array([b], dtype=float)

    def evaluate(self, design: ActuatorDesign, grid: Grid1D) -> np.ndarray:
        self.check(design)
        r = design.params[0]
        return np.exp(-((grid.nodes - r) ** 2) / (2.0 * self._omega_sq))

    def param_derivative(self, design: ActuatorDesign, grid: Grid1D) -> np.ndarray:
        b = self.evaluate(design, grid)
        return (b * (grid.nodes - design.params[0]) / self._omega_sq)[None, :]

    def initial_design(self) -> ActuatorDesign:
        return ActuatorDesign(params=0.5 * (self.lower + self.upper))


class HeatShapeActuator(ActuatorFamily):
    """Truncated cosine-basis actuator shape r(xi) = sum_m c_m phi_m(xi).

    phi_(j,k)(x, y) = cos(j pi x/lx) cos(k pi y/ly) for j, k < basis_per_axis.
    The admissible set is the coefficient box |c_m| <= 1/(M * gamma_m) with
    gamma_m = 1 + pi*|(j/lx, k/ly)|, a conservative bound that keeps
    max_xi (|r| + |grad r|) <= 1, i.e. the shape inside the C1 unit ball.
    """

    def __init__(self, basis_per_axis: int = 3, lx: float = 1.0, ly: float = 1.0):
        if basis_per_axis < 1:
            raise ValueError("need at least one basis function per axis")
        self.lx, self.ly = float(lx), float(ly)
        self.modes = [(j, k) for k in range(basis_per_axis) for j in range(basis_per_axis)]
        gammas = np.array([1.0 + np.pi * np.hypot(j / self.lx, k / self.ly)
                           for j, k in self.modes])
        self.upper = 1.0 / (len(self.modes) * gammas)
        self.lower = -self.upper
        self._sampled: tuple = (None, None)  # (grid, basis matrix on it)

    def _basis_matrix(self, grid: Grid2D) -> np.ndarray:
        """Rows phi_m sampled on the grid, kept for the last grid object seen
        (held and compared by identity, so it cannot match a stale grid)."""
        cached_grid, matrix = self._sampled
        if cached_grid is not grid:
            xx, yy = grid.meshgrid()
            rows = [np.cos(j * np.pi * xx / self.lx) * np.cos(k * np.pi * yy / self.ly)
                    for j, k in self.modes]
            matrix = np.stack([r.ravel() for r in rows])
            matrix.flags.writeable = False
            self._sampled = (grid, matrix)
        return matrix

    def evaluate(self, design: ActuatorDesign, grid: Grid2D) -> np.ndarray:
        self.check(design)
        return design.params @ self._basis_matrix(grid)

    def param_derivative(self, design: ActuatorDesign, grid: Grid2D) -> np.ndarray:
        self.check(design)
        # the family is linear in its coefficients
        return self._basis_matrix(grid)

    def initial_design(self) -> ActuatorDesign:
        c = np.zeros(self.design_dim)
        c[0] = 0.5 * self.upper[0]
        return ActuatorDesign(params=c)


def actuator_design_derivative_adjoint(family: ActuatorFamily, design: ActuatorDesign,
                                       p: np.ndarray, grid) -> np.ndarray:
    """Adjoint of the design derivative of the input map, applied to ``p``:
    component m is <d b/d param_m, p> in the discrete L2 inner product."""
    rows = family.param_derivative(design, grid)
    return grid.weight * (rows @ p)


@dataclass(frozen=True)
class ModelSpec:
    """One semilinear model: linear part, nonlinearity with Jacobian pair,
    and actuator family, all on a fixed grid.

    ``nonlinearity`` and the Jacobian callables are None for linearized
    variants, where F = 0 makes ``sign_condition`` (zeta*F(zeta) <= 0) True.
    """

    grid: object
    linear_op: LinearOperator
    nonlinearity: Callable[[np.ndarray], np.ndarray] | None
    jacobian_apply: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    jacobian_adjoint_apply: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    actuator_family: ActuatorFamily
    sign_condition: bool

    @property
    def is_linear(self) -> bool:
        return self.nonlinearity is None


def make_ks_model(grid: Grid1D, lam: float, actuator: KsGaussianActuator | None = None,
                  linear: bool = False) -> ModelSpec:
    """KS model A w = -w_4xi - lam w_2xi plus F(w) = -w w_xi (optional)."""
    fam = actuator if actuator is not None else KsGaussianActuator()
    a_op = ks_operator(grid, lam)
    if linear:
        nl = jac = jac_t = None
    else:
        nl = lambda w: ks_nonlinearity(w, grid)
        jac = lambda w, f: ks_jacobian_apply(w, f, grid)
        jac_t = lambda w, g: ks_jacobian_adjoint_apply(w, g, grid)
    return ModelSpec(grid=grid, linear_op=a_op, nonlinearity=nl, jacobian_apply=jac,
                     jacobian_adjoint_apply=jac_t, actuator_family=fam, sign_condition=linear)


def make_heat_model(grid: Grid2D, f_scalar: ScalarNonlinearity | None = CUBIC_SINK,
                    actuator: HeatShapeActuator | None = None) -> ModelSpec:
    """2-D diffusion with a pointwise reaction term (pass None for linear heat)."""
    fam = actuator if actuator is not None else HeatShapeActuator(lx=grid.lx, ly=grid.ly)
    a_op = heat_operator(grid)
    if f_scalar is None:
        nl = jac = jac_t = None
    else:
        nl = lambda w: heat_nonlinearity(w, f_scalar)
        jac = lambda w, f: heat_jacobian_apply(w, f, f_scalar)
        jac_t = lambda w, g: heat_jacobian_adjoint_apply(w, g, f_scalar)
    return ModelSpec(grid=grid, linear_op=a_op, nonlinearity=nl, jacobian_apply=jac,
                     jacobian_adjoint_apply=jac_t, actuator_family=fam,
                     sign_condition=f_scalar is None or f_scalar.sign_condition)
