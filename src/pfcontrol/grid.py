"""Uniform cell-centered grids and homogeneous-Neumann calculus.

The spatial operators live here: the divergence-form Laplacian with mirror
ghost cells (zero boundary flux), assembled from its stencil, means and
integrals, the inverse Neumann operator on zero-mean data, the H / V / dual
norms built on it, and the smoothing step: one Helmholtz solve of a field or
of a stack of fields. The orthonormal DCT-II of each axis diagonalizes the
Laplacian, so the Helmholtz and inverse Neumann solves divide by its
eigenvalues in the DCT basis (`dct`, `eigenvalues`).

Fields are cell values flattened in C order. All cells have the same measure,
so the measure-weighted mean is the plain arithmetic average. Means,
integrals, the H and V norms and the squared gradient norm take one field
(ncells,), giving a NumPy float64 scalar, or a stack of fields (m, ncells),
such as the levels of a trajectory, giving one value per row, each bit for
bit the value of that row alone. The inner product, the inverse Neumann
operator and the dual norm take one field.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sps

from .errors import LinearSolveDivergence, NonZeroMean, ShapeMismatch

__all__ = ["Grid", "TimeGrid"]

#: Relative tolerance on |mean(f)| for the inverse Neumann operator.
MEAN_RTOL = 1.0e-12

#: Componentwise backward error above which a direct solve is declared broken.
LINEAR_RTOL = 1.0e-10


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of an axis of n cells: row k is the cosine
    mode k, which the axis Laplacian scales by -(4/h^2) sin^2(pi k / 2n).
    Read-only and built once per n, as every command builds its grids anew."""
    c = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n)
    c[0] /= np.sqrt(2.0)
    c.flags.writeable = False
    return c


class Grid:
    """Uniform tensor-product grid over a 1D interval or 2D box.

    Args:
        cells: cells per axis, an int (1D) or a pair (2D); at least 2 per axis.
        lengths: axis lengths, each finite and positive; defaults to the unit
            interval/square. The cell spacings h must keep h**2 and the
            Laplacian's largest eigenvalue, the sum of 4 / h**2 over the axes,
            finite: in 1D, h between about 1.5e-154 and 1.3e154.
    """

    def __init__(self, cells: int | Sequence[int], lengths: float | Sequence[float] | None = None):
        if isinstance(cells, (int, np.integer)):
            cells = (int(cells),)
        self.cells: tuple[int, ...] = tuple(int(c) for c in cells)
        self.dim = len(self.cells)
        if self.dim not in (1, 2):
            raise ValueError(f"grid must be 1D or 2D, got {self.dim} axes")
        if any(c < 2 for c in self.cells):
            raise ValueError(f"need at least 2 cells per axis, got {self.cells}")
        if lengths is None:
            lengths = (1.0,) * self.dim
        elif isinstance(lengths, (int, float, np.floating)):
            lengths = (float(lengths),) * self.dim
        self.lengths: tuple[float, ...] = tuple(float(L) for L in lengths)
        if len(self.lengths) != self.dim:
            raise ValueError("lengths must match the number of axes")
        if not all(0.0 < L < np.inf for L in self.lengths):
            raise ValueError(f"axis lengths must be finite and positive, got {self.lengths}")
        self.spacing: tuple[float, ...] = tuple(L / n for L, n in zip(self.lengths, self.cells))
        sq = [h * h for h in self.spacing]  # the Laplacian's largest eigenvalue is sum(4 / h**2)
        if not 0.0 < min(sq) <= max(sq) < np.inf or sum(4.0 / s for s in sq) == np.inf:
            raise ValueError(
                f"cell spacing {self.spacing}: h**2 and sum(4 / h**2) must be finite and positive"
            )
        self.cell_measure: float = float(np.prod(self.spacing))
        self.ncells: int = int(np.prod(self.cells))

    def __repr__(self) -> str:
        return f"Grid(cells={self.cells}, lengths={self.lengths})"

    # -- geometry -----------------------------------------------------------

    def coords(self) -> np.ndarray:
        """Cell-center coordinates, shape (ncells, dim), C-order flattening."""
        axes = [(np.arange(n) + 0.5) * h for n, h in zip(self.cells, self.spacing)]
        return np.column_stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")])

    # -- operators ----------------------------------------------------------

    @cached_property
    def laplacian(self) -> sps.csr_matrix:
        """Divergence-form Neumann Laplacian on flattened cell values, from its
        3-point (1D) or 5-point (2D) stencil: 1/h^2 to each neighbour across an
        interior face of axis h, minus their sum on the diagonal (zero flux
        through the boundary faces)."""
        inv = [1.0 / h**2 for h in self.spacing]
        axes = [-c * np.r_[1.0, np.full(n - 2, 2.0), 1.0] for n, c in zip(self.cells, inv)]
        ny = self.cells[-1]
        # Neighbours along the last axis, zero where a row wraps (dia -> csr
        # drops them), and along the first, ny apart (none in 1D: ny = ncells).
        side = np.where(np.arange(1, self.ncells) % ny, inv[-1], 0.0)
        far = np.full(self.ncells - ny, inv[0])
        main = sum(np.meshgrid(*axes, indexing="ij")).ravel()
        return sps.diags([far, side, main, side, far], [-ny, -1, 0, 1, ny], format="csr")

    @cached_property
    def _abs_laplacian(self) -> sps.csr_matrix:
        """|L| entrywise, for the backward-error scales of the solve guards."""
        return abs(self.laplacian)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalue of each DCT mode, flattened like a field; mode
        0, the mean, is the only zero."""
        axes = [
            -(4.0 / h**2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
            for n, h in zip(self.cells, self.spacing)
        ]
        return sum(np.meshgrid(*axes, indexing="ij")).ravel()

    def dct(self, values: np.ndarray, inverse: bool = False) -> np.ndarray:
        """The DCT-II coefficients of fields on the last axis of values, or with
        inverse=True the fields of coefficients: the Laplacian is diag(eigenvalues)
        between them."""
        mats = [_dct_matrix(n).T if inverse else _dct_matrix(n) for n in self.cells]
        v = values.reshape(values.shape[:-1] + self.cells)
        if self.dim == 2:
            v = mats[0] @ v
        return (v @ mats[-1].T).reshape(values.shape)

    @cached_property
    def step_operators(self) -> dict:
        """Step operators built on this grid, keyed by (dt, physics) and filled
        by dynamics.step_operator: they live exactly as long as the grid."""
        return {}

    def _check(self, values: np.ndarray, stack: bool = True) -> np.ndarray:
        """values as floats, if they are one field (ncells,) or, unless stack
        is False, a stack of fields (m, ncells)."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (self.ncells,) or values.ndim > (2 if stack else 1):
            also = f" or (m, {self.ncells})" if stack else ""
            raise ShapeMismatch(f"shape {values.shape}, not ({self.ncells},){also}")
        return values

    def mean(self, values: np.ndarray) -> np.ndarray:
        """Measure-weighted mean; uniform cells make it the arithmetic average."""
        return self._check(values).sum(axis=-1) / self.ncells

    def integrate(self, values: np.ndarray) -> np.ndarray:
        return self._check(values).sum(axis=-1) * self.cell_measure

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Discrete L2(Omega) inner product."""
        return float(np.dot(self._check(u, False), self._check(v, False)) * self.cell_measure)

    def helmholtz_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - 4 h^2 Laplacian) w = rhs, h the coarsest spacing, for one
        field (ncells,) or every row of a stack (m, ncells) in one DCT solve:
        damps grid-frequency noise. A 1D stack goes as (m, 1, n): one
        matrix-vector product per row, as a lone field."""
        rhs = self._check(rhs)
        levels = np.atleast_2d(rhs)
        coef, lap = 4.0 * max(self.spacing) ** 2, self.laplacian
        stack = levels[:, None] if self.dim == 1 else levels
        w = self.dct(self.dct(stack) / (1.0 - coef * self.eigenvalues), True).reshape(levels.shape)
        scale = np.abs(w) + coef * (self._abs_laplacian @ np.abs(w).T).T + np.abs(levels)
        self._residual_guard(levels - (w - coef * (lap @ w.T).T), scale, "helmholtz solve")
        return w.reshape(rhs.shape)

    def _residual_guard(self, residual: np.ndarray, scale: np.ndarray, what: str) -> None:
        """Raise unless max_i |residual_i| / scale_i, with scale = |A||x| + |b| the
        componentwise backward error (Oettli-Prager), is at most LINEAR_RTOL;
        a scale that underflows below 2**-970 (tiny / eps) counts as that floor."""
        err = float(np.max(np.abs(residual) / np.maximum(scale, 2.0**-970)))
        if not err <= LINEAR_RTOL:
            raise LinearSolveDivergence(
                f"{what}: componentwise backward error {err:.3e} exceeds {LINEAR_RTOL:.1e}"
            )

    def inverse_neumann(self, values: np.ndarray) -> np.ndarray:
        """Solve -Laplacian g = f with zero-flux boundary and mean(g) = 0.

        The data must have (numerically) zero mean: |mean(f)| is allowed up to
        MEAN_RTOL * ||f||_inf. The solution mean is removed by post-projection.
        """
        f = self._check(values, False)
        scale = float(np.max(np.abs(f))) if f.size else 0.0
        m = self.mean(f)
        if abs(m) > MEAN_RTOL * scale:
            raise NonZeroMean(
                f"inverse Neumann needs zero-mean data: |mean| = {abs(m):.3e} "
                f"> {MEAN_RTOL:.1e} * ||f||_inf = {MEAN_RTOL * scale:.3e}"
            )
        if scale == 0.0:
            return np.zeros_like(f)
        modes = self.dct(f - m)
        modes[0] = 0.0
        modes[1:] /= -self.eigenvalues[1:]
        g, lap = self.dct(modes, True), self.laplacian
        scale = self._abs_laplacian @ np.abs(g) + np.abs(f - m)
        self._residual_guard((f - m) + lap @ g, scale, "inverse Neumann solve")
        return g - np.sum(g) / self.ncells

    # -- norms ----------------------------------------------------------------

    def h_norm(self, values: np.ndarray) -> np.ndarray:
        v = self._check(values)
        return np.sqrt((v * v).sum(axis=-1) * self.cell_measure)

    def grad_sq(self, values: np.ndarray) -> np.ndarray:
        """Squared discrete Dirichlet energy, sum over interior faces."""
        v = self._check(values)
        rows = v.shape[:-1]
        total = 0.0
        for axis, h in enumerate(self.spacing):
            d = np.diff(v.reshape(rows + self.cells), axis=axis - self.dim)
            total += (d * d).reshape(rows + (-1,)).sum(axis=-1) * self.cell_measure / h**2
        return total

    def v_norm(self, values: np.ndarray) -> np.ndarray:
        # float_power squares with libm's pow, as a float's ** does; on an
        # array, ** 2 multiplies, which rounds some squares differently.
        return np.sqrt(np.float_power(self.h_norm(values), 2) + self.grad_sq(values))

    def dual_norm(self, values: np.ndarray) -> float:
        """Norm induced by the inverse Neumann operator on zero-mean data."""
        f = self._check(values, False)
        g = self.inverse_neumann(f)
        return float(np.sqrt(max(self.inner(f, g), 0.0)))


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of (0, horizon] into steps backward-Euler intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("time horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one time step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """All Nt+1 level times; endpoint exactly the horizon."""
        return np.linspace(0.0, self.horizon, self.steps + 1)
