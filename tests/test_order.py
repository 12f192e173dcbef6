"""Observed order of the discretization: self-convergence ladders of the
zero control's cost, final state and reduced gradient under refinement in
space (second order), in time (first order) and in both jointly (first
order, the adjoint-consistency check).

Fields on finer grids are restricted to a coarse grid by block means, which
is repeated averaging of neighbouring pairs of cells (and of time levels)."""

import functools

import numpy as np
import pytest
from conftest import desk_spec, zero_control

import pfcontrol as pfc

CELLS = (8, 16, 32, 64, 128)
STEPS = 64
# The time ladder runs from STEPS up on a fixed grid of TIME_CELLS cells.
TIME_STEPS = (64, 128, 256, 512)
TIME_CELLS = 16
# The gradient ladder refines cells and steps together, N = Nt.
JOINT = (8, 16, 32, 64, 128)
COARSE = 8


def _ratios(values) -> list[float]:
    """Ratios of successive differences along a ladder: signed for a scalar
    ladder, so a difference that changes sign fails the band, and of their
    L2 norms for a field ladder."""
    diffs = []
    for a, b in zip(values, values[1:]):
        d = np.subtract(b, a)
        diffs.append(d if np.ndim(d) == 0 else np.linalg.norm(d))
    return [d1 / d2 for d1, d2 in zip(diffs, diffs[1:])]


def _restrict(field: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Block means of a field onto a coarser array of the given shape."""
    blocks = [dim for coarse, fine in zip(shape, field.shape) for dim in (coarse, fine // coarse)]
    return field.reshape(blocks).mean(axis=tuple(range(1, len(blocks), 2)))


@functools.cache
def _space_ladder(regime: str) -> tuple[list[float], list[np.ndarray]]:
    """Cost and final state (theta, phi restricted to COARSE cells) per grid."""
    costs, finals = [], []
    for cells in CELLS:
        spec = desk_spec(regime, cells=cells, steps=STEPS)
        state = pfc.solve_state(zero_control(spec), spec)
        costs.append(pfc.cost_value(state, spec.cost))
        finals.append(np.stack([_restrict(f[-1], (COARSE,)) for f in (state.theta, state.phi)]))
    return costs, finals


@pytest.mark.parametrize("regime", ["regular", "log"])
def test_cost_converges_at_second_order_in_space(regime):
    # Cell-centered differences are second order in h, so halving h cuts the
    # difference between successive costs by 4.
    ratios = _ratios(_space_ladder(regime)[0])
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


@pytest.mark.parametrize("regime", ["regular", "log"])
@pytest.mark.parametrize("component", [0, 1], ids=["theta", "phi"])
def test_final_state_converges_at_second_order_in_space(regime, component):
    # Measured 4.21/4.05/4.01 (theta) and 4.25/4.06/4.02 (phi) on the
    # quartic well, 4.15/4.04/4.01 and 4.18/4.04/4.01 on the exact log well.
    ratios = _ratios([final[component] for final in _space_ladder(regime)[1]])
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


@pytest.mark.parametrize("regime", ["regular", "log"])
def test_unforced_solution_converges_at_first_order_in_time(regime):
    # Backward Euler is first order in dt: halving dt halves the differences.
    # Measured J 1.71/1.79 and final states 2.16 to 2.34 (quartic), J
    # 1.79/1.89 and final states 2.08 to 2.24 (exact log).
    costs, thetas, phis = [], [], []
    for steps in TIME_STEPS:
        spec = desk_spec(regime, cells=TIME_CELLS, steps=steps)
        state = pfc.solve_state(zero_control(spec), spec)
        costs.append(pfc.cost_value(state, spec.cost))
        thetas.append(state.theta[-1])
        phis.append(state.phi[-1])
    for ladder in (costs, thetas, phis):
        ratios = _ratios(ladder)
        assert all(1.6 <= r <= 2.4 for r in ratios), ratios


@pytest.mark.parametrize("regime", ["regular", "log"])
def test_reduced_gradient_converges_at_first_order_under_joint_refinement(regime):
    # The adjoint q of the discrete problem tends to the continuous gradient:
    # restricted to the coarse space-time grid, its differences fall from
    # 3.1e-3 to 3.9e-4 (L2(Q)), with ratios 1.997 to 1.999 in both regimes.
    grads = []
    for n in JOINT:
        spec = desk_spec(regime, cells=n, steps=n)
        q = pfc.solve_adjoint(pfc.solve_state(zero_control(spec), spec), spec)
        grads.append(_restrict(q, (COARSE, COARSE)))
    ratios = _ratios(grads)
    assert all(1.8 <= r <= 2.2 for r in ratios), ratios
