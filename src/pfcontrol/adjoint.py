"""The tracking cost, its state gradient, and the reduced gradient by the
adjoint sweep.

The adjoint sweep is dynamics.linear_sweep with trans "T": the exact
transpose of the tangent recursion, run backward and forced at level k by
d_k, the Euclidean gradient of the discrete cost with respect to (theta, phi)
at that level. By construction the duality identity

    sum_k dt * (q_k, h_k)_Omega = d/d(delta) J(S(u + delta h)) |_0

holds to linear-solver precision, and the multiplier block attached to the
balance equation, divided by the cell measure, is the reduced gradient q,
which solve_adjoint returns on levels 1..Nt.
"""

from __future__ import annotations

import numpy as np

from .dynamics import TangentSolution, Trajectory, linear_sweep
from .problem import CostSpec, ProblemSpec

__all__ = [
    "solve_adjoint",
    "cost_value",
    "dj_along_tangent",
]


def cost_value(state: Trajectory, cost: CostSpec) -> float:
    """Discrete tracking cost: right-endpoint rectangle rule in time."""
    state.check()
    grid, tgrid = state.grid, state.tgrid
    theta_q, phi_q = cost.running_targets(grid, tgrid)
    theta_om, phi_om = cost.final_targets(grid)
    dt, m = tgrid.dt, grid.cell_measure
    running = 0.0
    if cost.w_theta:
        diff = state.theta[1:] - theta_q
        running += 0.5 * cost.w_theta * float((diff * diff).sum())
    if cost.w_phi:
        diff = state.phi[1:] - phi_q
        running += 0.5 * cost.w_phi * float((diff * diff).sum())
    total = running * dt * m
    if cost.w_theta_final:
        diff = state.theta[-1] - theta_om
        total += 0.5 * cost.w_theta_final * float((diff * diff).sum()) * m
    if cost.w_phi_final:
        diff = state.phi[-1] - phi_om
        total += 0.5 * cost.w_phi_final * float((diff * diff).sum()) * m
    return total


def cost_state_gradient(state: Trajectory, cost: CostSpec) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of the cost w.r.t. theta / phi at levels 1..Nt.

    Includes the quadrature weights (dt * cell measure) and, at the final
    level, the terminal terms.
    """
    state.check()
    grid, tgrid = state.grid, state.tgrid
    theta_q, phi_q = cost.running_targets(grid, tgrid)
    theta_om, phi_om = cost.final_targets(grid)
    dt, m = tgrid.dt, grid.cell_measure
    d_theta = cost.w_theta * (state.theta[1:] - theta_q) * dt * m
    d_phi = cost.w_phi * (state.phi[1:] - phi_q) * dt * m
    d_theta[-1] += cost.w_theta_final * (state.theta[-1] - theta_om) * m
    d_phi[-1] += cost.w_phi_final * (state.phi[-1] - phi_om) * m
    return d_theta, d_phi


def dj_along_tangent(tangent: TangentSolution, state: Trajectory, cost: CostSpec) -> float:
    """Chain-rule derivative of the cost along a tangent solution."""
    d_theta, d_phi = cost_state_gradient(state, cost)
    return float(np.sum(d_theta * tangent.dtheta[1:]) + np.sum(d_phi * tangent.dphi[1:]))


def solve_adjoint(state: Trajectory, spec: ProblemSpec) -> np.ndarray:
    """Backward sweep with the exact transposes of the tangent step operators;
    returns the reduced gradient q of spec.cost, shaped (steps, ncells) like a
    control."""
    state.check(spec)
    forcing = np.hstack(cost_state_gradient(state, spec.cost))
    rows = linear_sweep(state, spec, forcing, "T")
    return rows[:, : state.grid.ncells] / state.grid.cell_measure
