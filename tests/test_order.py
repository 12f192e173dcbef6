"""Observed order of the discretization in space: self-convergence of the
cost under grid refinement at a fixed time grid."""

import pytest
from conftest import desk_spec, zero_control

import pfcontrol as pfc

CELLS = (8, 16, 32, 64, 128)
STEPS = 64


@pytest.mark.parametrize("regime", ["regular", "log"])
def test_cost_converges_at_second_order_in_space(regime):
    # Cell-centered differences are second order in h, so halving h cuts the
    # difference between successive costs by 4.
    costs = []
    for cells in CELLS:
        spec = desk_spec(regime, cells=cells, steps=STEPS)
        costs.append(pfc.cost_value(pfc.solve_state(zero_control(spec), spec), spec.cost))
    diffs = [b - a for a, b in zip(costs, costs[1:])]
    ratios = [d1 / d2 for d1, d2 in zip(diffs, diffs[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios
