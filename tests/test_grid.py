"""Spatial operators: stencils, conservation, inverse Neumann, norms."""

import re

import numpy as np
import pytest
import scipy.sparse as sps
from conftest import assert_same_csr
from hypothesis import given, settings
from hypothesis import strategies as st

import pfcontrol as pfc
from pfcontrol.errors import LinearSolveDivergence, NonZeroMean, ShapeMismatch


def test_interior_stencil_unit_spacing():
    grid = pfc.Grid(3, 3.0)
    assert grid.spacing == (1.0,)
    out = grid.laplacian @ np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(out, [1.0, -2.0, 1.0])


def test_boundary_stencil_is_zero_flux():
    grid = pfc.Grid(3, 3.0)
    out = grid.laplacian @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [-1.0, 1.0, 0.0])


def test_mean_is_arithmetic_average():
    grid = pfc.Grid(2)
    assert grid.mean(np.array([1.0, 3.0])) == 2.0


def test_laplacian_annihilates_constants_to_rounding():
    for grid in (pfc.Grid(17, 0.7), pfc.Grid((12, 9), (1.3, 0.4))):
        out = grid.laplacian @ np.ones(grid.ncells)
        bound = 8 * np.finfo(float).eps / min(grid.spacing) ** 2
        assert np.max(np.abs(out)) <= bound


def test_laplacian_row_and_column_sums_vanish():
    grid = pfc.Grid((8, 5))
    lap = grid.laplacian
    bound = 8 * np.finfo(float).eps / min(grid.spacing) ** 2
    assert np.max(np.abs(lap @ np.ones(grid.ncells))) <= bound
    assert np.max(np.abs(lap.T @ np.ones(grid.ncells))) <= bound


def test_laplacian_second_order_on_cosine():
    errors = []
    for n in (32, 64):
        grid = pfc.Grid(n)
        x = grid.coords()[:, 0]
        f = np.cos(np.pi * x)
        exact = -np.pi**2 * f
        errors.append(np.max(np.abs(grid.laplacian @ f - exact)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.6


def test_inverse_neumann_round_trip_and_mean():
    grid = pfc.Grid(64)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.ncells)
    f -= f.mean()
    g = grid.inverse_neumann(f)
    assert abs(grid.mean(g)) <= 1e-13 * np.max(np.abs(g))
    back = -(grid.laplacian @ g)
    assert np.linalg.norm(back - f) <= 1e-10 * np.linalg.norm(f)


def test_inverse_neumann_symmetric():
    grid = pfc.Grid((16, 16))
    rng = np.random.default_rng(2)
    f = rng.standard_normal(grid.ncells)
    g = rng.standard_normal(grid.ncells)
    f -= f.mean()
    g -= g.mean()
    lhs = grid.inner(f, grid.inverse_neumann(g))
    rhs = grid.inner(grid.inverse_neumann(f), g)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_inverse_neumann_rejects_nonzero_mean():
    grid = pfc.Grid(8)
    with pytest.raises(NonZeroMean):
        grid.inverse_neumann(np.ones(8))


def test_dual_norm_against_analytic_cosine():
    # -Lap g = cos(pi x) has g = cos(pi x)/pi^2, so the dual norm is
    # sqrt(1/2)/pi up to the O(h^2) consistency error.
    grid = pfc.Grid(128)
    x = grid.coords()[:, 0]
    value = grid.dual_norm(np.cos(np.pi * x))
    assert value == pytest.approx(np.sqrt(0.5) / np.pi, rel=2e-3)


def test_v_norm_and_grad_sq():
    grid = pfc.Grid(10, 1.0)
    const = np.full(grid.ncells, 2.0)
    assert grid.grad_sq(const) == 0.0
    assert grid.v_norm(const) == pytest.approx(2.0, rel=1e-12)
    x = grid.coords()[:, 0]
    # Piecewise-linear field: every interior face difference is h.
    n, h = grid.cells[0], grid.spacing[0]
    assert grid.grad_sq(x) == pytest.approx((n - 1) * h, rel=1e-12)


def test_h_norm_of_cosine():
    grid = pfc.Grid(256)
    x = grid.coords()[:, 0]
    assert grid.h_norm(np.cos(np.pi * x)) == pytest.approx(np.sqrt(0.5), rel=1e-4)


def test_norms_reflection_invariant_1d():
    grid = pfc.Grid(32)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(32)
    f -= f.mean()
    r = f[::-1].copy()
    assert grid.h_norm(r) == pytest.approx(grid.h_norm(f), rel=1e-13)
    assert grid.v_norm(r) == pytest.approx(grid.v_norm(f), rel=1e-13)
    assert grid.dual_norm(r) == pytest.approx(grid.dual_norm(f), rel=1e-11)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_dual_norm_homogeneous(c):
    grid = pfc.Grid(16)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(16)
    f -= f.mean()
    assert grid.dual_norm(c * f) == pytest.approx(
        abs(c) * grid.dual_norm(f), rel=1e-9, abs=1e-12
    )


def test_helmholtz_solve_consistency():
    # The one smoothing coefficient is 4 h^2, h the coarsest spacing.
    grid = pfc.Grid(24)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(24)
    w = grid.helmholtz_solve(f)
    coef = 4.0 * (1.0 / 24) ** 2
    np.testing.assert_allclose(w - coef * (grid.laplacian @ w), f, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(), (9,), (3, 9), (2, 3, 8)])
def test_helmholtz_solve_rejects_other_shapes(shape):
    grid = pfc.Grid(8)
    message = rf"^shape {re.escape(str(shape))}, not \(8,\) or \(m, 8\)$"
    with pytest.raises(ShapeMismatch, match=message):
        grid.helmholtz_solve(np.ones(shape))


@pytest.mark.parametrize("cells", [32, 64, (48, 48), (12, 12), (16, 4)])
def test_smoothing_all_levels_at_once_is_the_per_level_loop_to_the_bit(cells):
    # Reference: one Helmholtz solve per level, each a lone field's DCTs.
    grid = pfc.Grid(cells)
    coef = 4.0 * max(grid.spacing) ** 2
    levels = np.random.default_rng(4).standard_normal((16, grid.ncells))
    want = [grid.dct(grid.dct(f) / (1.0 - coef * grid.eigenvalues), True) for f in levels]
    got = grid.helmholtz_solve(levels)
    assert got.tobytes() == np.stack(want).tobytes()
    assert grid.helmholtz_solve(levels[3]).tobytes() == want[3].tobytes()


def test_anisotropic_helmholtz_solve_passes_its_guard():
    # The normwise relative residual here is 1.5e-8, above LINEAR_RTOL, but
    # the componentwise backward error is about 1e-16.
    grid = pfc.Grid((8, 2), (0.002, 5.0))
    f = np.random.default_rng(0).standard_normal(grid.ncells)
    w = grid.helmholtz_solve(f)
    coef = 4.0 * 2.5**2
    scale = np.abs(w) + coef * (abs(grid.laplacian) @ np.abs(w)) + np.abs(f)
    assert np.max(np.abs(f - (w - coef * (grid.laplacian @ w))) / scale) <= 1.0e-15


@pytest.mark.parametrize("cells", [24, (8, 2)])
def test_corrupted_solves_raise(cells):
    # Eigenvalues off by a relative 1e-6 leave a backward error of about 1e-6.
    grid = pfc.Grid(cells)
    grid.eigenvalues = (1.0 + 1.0e-6) * grid.eigenvalues
    f = np.cos(np.arange(grid.ncells))
    with pytest.raises(LinearSolveDivergence, match="^helmholtz solve: componentwise"):
        grid.helmholtz_solve(f)
    with pytest.raises(LinearSolveDivergence, match="^inverse Neumann solve: componentwise"):
        grid.inverse_neumann(f - f.mean())


@pytest.mark.parametrize(
    "grid",
    [pfc.Grid(24), pfc.Grid((16, 4), (1.0, 0.3)), pfc.Grid((48, 48))],
    ids=["24", "16x4-anisotropic", "48x48"],
)
def test_dct_diagonalizes_the_laplacian(grid):
    # C^T diag(eigenvalues) C, applied to the unit fields in chunks of rows;
    # the Laplacian is symmetric, so row j of the product is its row j.
    lap = grid.laplacian
    for rows in np.array_split(np.arange(grid.ncells), max(1, grid.ncells // 256)):
        unit = np.zeros((len(rows), grid.ncells))
        unit[np.arange(len(rows)), rows] = 1.0
        got = grid.dct(grid.eigenvalues * grid.dct(unit), inverse=True)
        want = lap[rows].toarray()
        assert np.max(np.abs(got - want)) <= 1.0e-13 * np.max(np.abs(lap.data))


def _kron_laplacian(grid):
    """The Laplacian as a Kronecker sum of the axis Laplacians: the reference
    that the stencil assembly must match array for array."""
    axes = []
    for n, h in zip(grid.cells, grid.spacing):
        main = np.full(n, -2.0)
        main[0] = main[-1] = -1.0
        off = np.ones(n - 1)
        axes.append(sps.diags([off, main, off], [-1, 0, 1], format="csr") / h**2)
    if grid.dim == 1:
        return axes[0]
    ix, iy = (sps.identity(n, format="csr") for n in grid.cells)
    return (sps.kron(axes[0], iy) + sps.kron(ix, axes[1])).tocsr()


# Not a second axis of 2 cells: there sps.kron stores the zeros of its dense
# 2x2 identity blocks, which the stencil assembly leaves out.
@pytest.mark.parametrize(
    "cells,lengths",
    [(2, None), (5, 3.0), (64, None), ((3, 4), None), ((7, 5), (0.7, 2.5)), ((48, 48), None)],
)
def test_laplacian_is_the_kronecker_sum(cells, lengths):
    grid = pfc.Grid(cells, lengths)
    assert_same_csr(grid.laplacian, _kron_laplacian(grid))


def test_2d_laplacian_consistent_with_1d():
    grid2 = pfc.Grid((16, 4), (1.0, 1.0))
    grid1 = pfc.Grid(16)
    x = grid1.coords()[:, 0]
    f1 = np.cos(np.pi * x)
    f2 = np.repeat(f1, 4)
    out2 = (grid2.laplacian @ f2).reshape(16, 4)
    out1 = grid1.laplacian @ f1
    np.testing.assert_allclose(out2, np.tile(out1[:, None], (1, 4)), atol=1e-9)


def test_shape_guard():
    grid = pfc.Grid(8)
    with pytest.raises(ShapeMismatch):
        grid.mean(np.ones(7))


_STACK_GRIDS = [pfc.Grid(32), pfc.Grid((48, 48)), pfc.Grid((16, 4), (1.0, 0.3))]
_STACK_IDS = ["32", "48x48", "16x4-anisotropic"]


@pytest.mark.parametrize("grid", _STACK_GRIDS, ids=_STACK_IDS)
@pytest.mark.parametrize("name", ["mean", "integrate", "h_norm", "grad_sq", "v_norm"])
def test_stack_functionals_are_their_rows_to_the_bit(grid, name):
    stack = np.random.default_rng(6).standard_normal((17, grid.ncells))
    stack[3] *= 1.0e-9
    stack[5] = 0.0
    fn = getattr(grid, name)
    rows = [fn(row) for row in stack]
    assert all(type(value) is np.float64 for value in rows)
    got = fn(stack)
    assert got.shape == (17,)
    assert got.tobytes() == np.array(rows).tobytes()
    assert fn(stack[:1]).tobytes() == rows[0].tobytes()


def test_v_norm_squares_the_h_norm_as_a_float_does():
    # Python's float ** is libm's pow, which can round a square away from
    # x * x; the V norm of a stack keeps the values of the per-level loop.
    # Smooth rows, whose gradient term does not swamp the last bit of h^2.
    grid = pfc.Grid(8)
    rng = np.random.default_rng(2)
    x = grid.coords()[:, 0]
    stack = rng.standard_normal((40000, 1)) * (1.0 + 0.05 * np.cos(np.pi * x))
    h_sq = [h**2 for h in grid.h_norm(stack).tolist()]
    want = np.sqrt(np.array(h_sq) + grid.grad_sq(stack))
    assert grid.v_norm(stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", _STACK_GRIDS, ids=_STACK_IDS)
@pytest.mark.parametrize("name", ["inner", "inverse_neumann", "dual_norm"])
def test_field_only_operators_reject_a_stack(grid, name):
    n = grid.ncells
    stack = np.zeros((3, n))
    args = (stack, stack) if name == "inner" else (stack,)
    with pytest.raises(ShapeMismatch, match=rf"^shape \(3, {n}\), not \({n},\)$"):
        getattr(grid, name)(*args)


@pytest.mark.parametrize("shape", [(), (7,), (3, 7), (2, 3, 8)])
@pytest.mark.parametrize("name", ["mean", "integrate", "h_norm", "grad_sq", "v_norm"])
def test_stack_functionals_reject_other_shapes(name, shape):
    message = rf"^shape {re.escape(str(shape))}, not \(8,\) or \(m, 8\)$"
    with pytest.raises(ShapeMismatch, match=message):
        getattr(pfc.Grid(8), name)(np.ones(shape))


def test_grid_construction_errors():
    with pytest.raises(ValueError):
        pfc.Grid(1)
    with pytest.raises(ValueError):
        pfc.Grid((4, 4, 4))
    with pytest.raises(ValueError):
        pfc.Grid(8, -1.0)


def test_grid_lengths_must_match_the_axes():
    with pytest.raises(ValueError, match="^lengths must match the number of axes$"):
        pfc.Grid(8, (1.0, 2.0))


@pytest.mark.parametrize(
    "length",
    [np.inf, np.nan, 1e-200, 1e-160, 5e-154, 1e200],
    ids=["inf", "nan", "square-underflow", "inverse-square-overflow", "eigenvalue-overflow",
         "square-overflow"],
)
def test_grid_rejects_non_finite_lengths(length):
    with pytest.raises(ValueError, match="finite and positive"):
        pfc.Grid(8, length)
    with pytest.raises(ValueError, match="finite and positive"):
        pfc.Grid((4, 4), (1.0, length))


@pytest.mark.parametrize("h", [1.5e-154, 1.3e154], ids=["small", "large"])
def test_grid_takes_every_spacing_whose_operators_are_finite(h):
    # 4 / h**2 is the largest Laplacian eigenvalue of one axis; a RuntimeWarning fails here.
    grid = pfc.Grid(8, 8 * h)
    assert np.isfinite(grid.laplacian.data).all() and np.isfinite(grid.eigenvalues).all()
    assert grid.laplacian.diagonal()[1] == pytest.approx(-2.0 / h**2)


def test_inverse_neumann_undoes_laplacian():
    grid = pfc.Grid(32)
    x = grid.coords()[:, 0]
    f = np.cos(np.pi * x)
    assert grid.mean(f) == pytest.approx(0.0, abs=1e-14)
    back = grid.inverse_neumann(grid.laplacian @ f)
    np.testing.assert_allclose(-back, f - grid.mean(f), atol=1e-8)
    assert grid.dual_norm(f) > 0


def test_time_grid():
    tg = pfc.TimeGrid(2.0, 8)
    assert tg.dt == 0.25
    times = tg.times()
    assert times[0] == 0.0 and times[-1] == 2.0 and len(times) == 9
    with pytest.raises(ValueError):
        pfc.TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        pfc.TimeGrid(1.0, 0)
