"""Spatial grids, discrete differential operators, discrete inner products,
and the top eigenvector of a symmetric map by Lanczos.

Two grid families are supported:

* ``Grid1D`` - uniform vertex-centered interior nodes on (0, 1) with spacing
  h = 1/(n+1).  Used by the fourth-order Kuramoto-Sivashinsky operator with
  clamped boundary conditions (w = 0 and w_xi = 0 at both ends), imposed by
  ghost-point elimination so the matrix stays symmetric.
* ``Grid2D`` - uniform cell-centered nodes on a rectangle with each boundary
  edge labelled Dirichlet or Neumann.  The 5-point Laplacian with mirrored
  ghost cells is exactly symmetric for any edge mix, and the quadrature is a
  uniform diagonal hx*hy, which makes weighted adjoints plain transposes.

All quadrature weights are uniform per grid, so the discrete L2 adjoint of any
operator is its transpose; the rest of the package relies on that.

Every operator is held as its dense factors and keeps its orthonormal
eigenbasis (``LinearOperator.basis``).  The 2-D operators are Kronecker sums
of two 1-D factors, so theirs comes from two small eigensolves: the fast
diagonalization method of Lynch, Rice & Thomas, Numer. Math. 6 (1964).
Modal coefficients are flat (..., n) arrays like the states, so only
``SpectralBasis`` knows that Kronecker layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .exceptions import InvalidBoundaryError, InvalidGridError

SIDES = ("left", "right", "bottom", "top")


class _Grid:
    @cached_property
    def h1(self) -> "LinearOperator":
        """K = -Delta_h + I on this grid (see ``h1_operator``), built on first use."""
        return h1_operator(self)


@dataclass(frozen=True)
class Grid1D(_Grid):
    """Uniform interior-node grid on (0, 1) with trapezoid-consistent weights."""

    n: int
    h: float
    nodes: np.ndarray

    @property
    def size(self) -> int:
        return self.n

    @property
    def weight(self) -> float:
        """Uniform quadrature weight per node."""
        return self.h


@dataclass(frozen=True)
class Grid2D(_Grid):
    """Uniform cell-centered grid on [0,lx] x [0,ly] with per-edge BC labels.

    ``dirichlet`` maps each side name to True (Dirichlet, part of Gamma_0) or
    False (Neumann, part of Gamma_1).  Nodes are ordered row-major with the
    x index fastest: flat index = iy * nx + ix.
    """

    nx: int
    ny: int
    lx: float
    ly: float
    dirichlet: dict[str, bool]
    hx: float = field(init=False)
    hy: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hx", self.lx / self.nx)
        object.__setattr__(self, "hy", self.ly / self.ny)

    @property
    def size(self) -> int:
        return self.nx * self.ny

    @property
    def weight(self) -> float:
        """Uniform quadrature weight per node (cell area)."""
        return self.hx * self.hy

    @property
    def xs(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.hx

    @property
    def ys(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.hy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays of shape (ny, nx) matching the flat ordering."""
        return np.meshgrid(self.xs, self.ys)


# rows per GEMM when a one-factor map writes over its input
_INPLACE_ROWS = 64


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal eigenbasis V of a symmetric operator, A = V diag(values) V^T.

    ``vectors`` is (V,), or (Vy, Vx) for a Kronecker sum Fy (x) I + I (x) Fx
    on a grid with the x index fastest: then V = Vy (x) Vx, ``values`` is
    the flattened outer sum of the factors' eigenvalues, and a row x maps
    through X = x.reshape(ny, nx) to Vy^T X Vx and back by Vy C Vx^T, so V
    is never formed (only ``matrix`` forms it).

    ``to_modal`` (V^T on each row) and ``from_modal`` (V) take states or
    coefficients of shape (..., n) to that shape, a whole trajectory in one
    call.  ``out``, C-contiguous, receives the result and may be the input
    or its transpose: for a symmetric M, p = from_modal(M) and then
    from_modal(p.T, out=p) give V M V^T.
    """

    vectors: tuple
    values: np.ndarray
    _to: tuple = field(init=False, repr=False, compare=False)
    _back: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # x V and c V^T, or Vy^T X Vx and Vy C Vx^T: the Kronecker transposes
        # are copied once, faster than views, while a copy of V^T ran no
        # faster and would keep a second n x n matrix
        if len(self.vectors) == 1:
            to, back = self.vectors, (self.vectors[0].T,)
        else:
            vy, vx = self.vectors
            to, back = (np.ascontiguousarray(vy.T), vx), (vy, np.ascontiguousarray(vx.T))
        object.__setattr__(self, "_to", to)
        object.__setattr__(self, "_back", back)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n V = Vy (x) Vx, whose columns follow ``values``."""
        return reduce(np.kron, self.vectors)

    def to_modal(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return _row_map(x, self._to, out)

    def from_modal(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return _row_map(c, self._back, out)


def _row_map(x: np.ndarray, mats: tuple, out: np.ndarray | None) -> np.ndarray:
    """x times the basis matrix row by row: x @ M for mats = (M,), or L X R
    with X each row as (len(L), len(R)) for a Kronecker pair (L, R).  One
    state takes np.dot, cheaper than np.matmul.  A batch's first product
    reads all of x, so ``out`` may overlap it.  For one matrix numpy copies
    an x that overlaps ``out``; where x is out's own rows, a block of rows at
    a time (one state skips the overlap test, which costs more than a copy).
    """
    if len(mats) == 2:
        left, right = mats
        if x.ndim == 1:
            if out is None:
                return np.dot(left, np.dot(x.reshape(len(left), -1), right)).ravel()
            np.dot(left, np.dot(x.reshape(len(left), -1), right), out=out.reshape(len(left), -1))
            return out
        shape = x.shape[:-1] + (len(left), len(right))
        y = np.matmul(left, np.matmul(x.reshape(shape), right),
                      out=None if out is None else out.reshape(shape))
        return y.reshape(x.shape)
    mat = mats[0]
    if x.ndim == 1:
        return np.dot(x, mat, out=out)
    if out is None or not (x.flags.c_contiguous and np.may_share_memory(x, out)):
        return np.matmul(x, mat, out=out)
    src, dst = x.reshape(-1, len(mat)), out.reshape(-1, len(mat))
    for i in range(0, len(dst), _INPLACE_ROWS):
        np.matmul(src[i:i + _INPLACE_ROWS], mat, out=dst[i:i + _INPLACE_ROWS])
    return out


def top_eigenvector(apply, start: np.ndarray, tol: float,
                    max_products: int | None = None) -> tuple[np.ndarray, int, bool]:
    """A unit eigenvector of the largest eigenvalue of the symmetric map
    ``apply``, by Lanczos with full reorthogonalization from ``start``
    (Golub & Van Loan, Matrix Computations, 4th ed., sec. 10.1).

    Step j keeps the unit rows q_0..q_j, orthogonalized twice against the new
    product, and the tridiagonal T_j of their Rayleigh quotients.  Its top
    Ritz pair (theta, Q^T s) has the residual norm beta_j |s_j|, so the
    iteration stops once that is at most ``tol`` |theta|, where the Krylov
    space is invariant (beta_j = 0), or when it spans everything.  Returns
    the top Ritz vector, the number of products, and whether one of those
    tests ended the iteration rather than the cap of ``max_products``
    products (none when None; at a cap of 0, the unit start).
    """
    n = start.size
    rows = np.empty((min(n, 32), n))  # doubles when full, up to n rows
    alpha, beta = np.zeros(n), np.zeros(n)
    rows[0] = start / np.linalg.norm(start)
    if max_products == 0:
        return rows[0], 0, False
    for j in range(n):
        q = rows[:j + 1]
        w = apply(q[j])
        c = q @ w
        w -= c @ q
        w -= (q @ w) @ q
        alpha[j], b = c[j], float(np.linalg.norm(w))
        tri = np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        theta, s = np.linalg.eigh(tri)
        done = b * abs(s[-1, -1]) <= tol * abs(theta[-1]) or j == n - 1
        if done or j + 1 == max_products:
            return s[:, -1] @ q, j + 1, done
        if j + 1 == len(rows):
            rows = np.concatenate((rows, np.empty((min(j + 1, n - j - 1), n))))
        beta[j] = b
        np.divide(w, b, out=rows[j + 1])


@dataclass(frozen=True)
class LinearOperator:
    """Real symmetric matrix acting on interior-node state vectors.

    ``factors`` is (F,) for the matrix F itself, or (Fy, Fx) for the
    Kronecker sum Fy (x) I + I (x) Fx on a grid with the x index fastest.
    """

    factors: tuple

    @cached_property
    def basis(self) -> SpectralBasis:
        """Orthonormal eigenbasis, computed on first use and kept on the operator."""
        pairs = [np.linalg.eigh(f) for f in self.factors]
        return SpectralBasis(vectors=tuple(v for _, v in pairs),
                             values=reduce(np.add.outer, [w for w, _ in pairs]).ravel())

    def apply(self, v: np.ndarray) -> np.ndarray:
        if len(self.factors) == 1:
            return self.factors[0] @ v
        fy, fx = self.factors
        x = v.reshape(len(fy), len(fx))
        return (fy @ x + x @ fx.T).ravel()

    def __neg__(self) -> "LinearOperator":
        neg = LinearOperator(factors=tuple(-f for f in self.factors))
        if "basis" in self.__dict__:  # -A shares the eigenvectors of A
            neg.__dict__["basis"] = SpectralBasis(self.basis.vectors, -self.basis.values)
        return neg


def build_grid_1d(n: int) -> Grid1D:
    """Uniform grid with n interior nodes on (0,1).

    Interior trapezoid weights are h each (boundary values are zero for every
    field this grid carries), so the weights sum to 1 - h.
    """
    if n < 4:
        raise InvalidGridError(f"need at least 4 interior nodes for the stencils, got n={n}")
    h = 1.0 / (n + 1)
    return Grid1D(n=n, h=h, nodes=h * np.arange(1, n + 1))


def build_grid_2d(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
                  dirichlet_sides=("left", "right", "bottom", "top")) -> Grid2D:
    """Cell-centered rectangle grid; sides not listed as Dirichlet are Neumann."""
    if nx < 4 or ny < 4:
        raise InvalidGridError(f"need at least 4 cells per axis, got nx={nx}, ny={ny}")
    if lx <= 0 or ly <= 0:
        raise InvalidGridError("rectangle extents must be positive")
    bad = [s for s in dirichlet_sides if s not in SIDES]
    if bad:
        raise InvalidBoundaryError(f"unknown side labels {bad}; expected subset of {SIDES}")
    dirichlet = {s: s in dirichlet_sides for s in SIDES}
    if not any(dirichlet.values()):
        raise InvalidBoundaryError("Gamma_0 is empty: at least one side must be Dirichlet")
    return Grid2D(nx=nx, ny=ny, lx=lx, ly=ly, dirichlet=dirichlet)


def _second_difference_1d(n: int, h: float) -> np.ndarray:
    """Dirichlet second-difference matrix on interior vertex nodes (zero ghosts)."""
    return (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / h**2


def _fourth_difference_clamped(n: int, h: float) -> np.ndarray:
    """Fourth-difference matrix with clamped ends via ghost elimination.

    w_0 = 0 and w_xi(0) = 0 give the ghost value w_{-1} = w_1, which folds a
    +1 into the first diagonal entry (likewise at the right end), preserving
    symmetry.
    """
    m = 6.0 * np.eye(n) - 4.0 * (np.eye(n, k=-1) + np.eye(n, k=1)) \
        + np.eye(n, k=-2) + np.eye(n, k=2)
    m[0, 0] += 1.0
    m[n - 1, n - 1] += 1.0
    return m / h**4


def ks_operator(grid: Grid1D, lam: float) -> LinearOperator:
    """Discrete A w = -w_xixixixi - lam * w_xixi with clamped BCs.

    Second-order central differences; symmetric by construction.
    """
    d4 = _fourth_difference_clamped(grid.n, grid.h)
    d2 = _second_difference_1d(grid.n, grid.h)
    return LinearOperator(factors=(-d4 - lam * d2,))


def _laplacian_1d_cells(n: int, h: float, dir_lo: bool, dir_hi: bool) -> np.ndarray:
    """Cell-centered 1-D Laplacian factor with ghost elimination.

    Dirichlet face: ghost = -first cell (zero value at the face midpoint);
    Neumann face: ghost = first cell (mirror).  Both keep the matrix symmetric.
    """
    m = np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)
    m[0, 0] += -1.0 if dir_lo else 1.0
    m[n - 1, n - 1] += -1.0 if dir_hi else 1.0
    return m / h**2


def heat_operator(grid: Grid2D) -> LinearOperator:
    """5-point Laplacian with w=0 on Gamma_0 and dw/dnu=0 on Gamma_1.

    Symmetric negative semidefinite; negative definite whenever Gamma_0 is
    nonempty.
    """
    if not any(grid.dirichlet.values()):
        raise InvalidBoundaryError("Gamma_0 is empty: Laplacian would be singular")
    lx_op = _laplacian_1d_cells(grid.nx, grid.hx, grid.dirichlet["left"], grid.dirichlet["right"])
    ly_op = _laplacian_1d_cells(grid.ny, grid.hy, grid.dirichlet["bottom"], grid.dirichlet["top"])
    return LinearOperator(factors=(ly_op, lx_op))


def inner_product(f: np.ndarray, g: np.ndarray, grid) -> float:
    """Discrete L2 inner product sum_i w_i f_i g_i."""
    if f.shape != g.shape or f.shape[0] != grid.size:
        raise ValueError(f"dimension mismatch: {f.shape} vs {g.shape} on grid of size {grid.size}")
    return grid.weight * float(np.dot(f, g))


def h1_operator(grid) -> LinearOperator:
    """K = -Delta_h + I with the grid's Dirichlet structure.

    The discrete H1 inner product is <f, g>_V := <f, K g>_L2; K is symmetric
    positive definite, so this is a genuine inner product and the Riesz map
    below is its inverse.
    """
    if isinstance(grid, Grid1D):
        return LinearOperator(factors=(-_second_difference_1d(grid.n, grid.h) + np.eye(grid.n),))
    fy, fx = heat_operator(grid).factors
    return LinearOperator(factors=(-fy, np.eye(grid.nx) - fx))


def h1_inner(f: np.ndarray, g: np.ndarray, grid) -> float:
    """Discrete H1 inner product <f, g> + <grad f, grad g>."""
    return inner_product(f, grid.h1.apply(g), grid)


def h1_norm(f: np.ndarray, grid) -> float:
    return float(np.sqrt(max(h1_inner(f, f, grid), 0.0)))


def h1_riesz_map(v: np.ndarray, grid) -> np.ndarray:
    """Map the L2 representer of a functional to its H1 representer.

    Solves (-Delta_h + I) g = v as a diagonal scaling in the eigenbasis of the
    grid's K, which is built once per grid; the scaling cannot be singular
    because K is positive definite.
    """
    if v.shape[0] != grid.size:
        raise ValueError(f"vector of size {v.shape[0]} does not match grid of size {grid.size}")
    basis = grid.h1.basis
    return basis.from_modal(basis.to_modal(v) / basis.values)


def smallest_eigenvalue(op: LinearOperator) -> float:
    """Smallest eigenvalue of a symmetric operator, read off its eigenbasis.

    For -A this is the discrete Poincare constant c_Omega (heat) or
    sigma(lam) (KS); -A reuses the basis of A when A has already built it.
    """
    return float(np.min(op.basis.values))
