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


def _misfits(state: Trajectory, cost: CostSpec) -> tuple[np.ndarray, ...]:
    """State minus target: theta and phi on levels 1..Nt against the running
    targets, then theta and phi at the final level against the final targets."""
    state.check()
    theta_q, phi_q = cost.running_targets(state.grid, state.tgrid)
    theta_om, phi_om = cost.final_targets(state.grid)
    theta, phi = state.theta, state.phi
    return theta[1:] - theta_q, phi[1:] - phi_q, theta[-1] - theta_om, phi[-1] - phi_om


def cost_value(state: Trajectory, cost: CostSpec) -> float:
    """Discrete tracking cost: right-endpoint rectangle rule in time. Each
    term is half its weight times its squared misfit, skipped at weight 0;
    the two running terms take dt * cell measure, the final ones the measure."""
    weights = (cost.w_theta, cost.w_phi, cost.w_theta_final, cost.w_phi_final)
    misfits = _misfits(state, cost)
    terms = [0.5 * w * float((r * r).sum()) if w else 0.0 for w, r in zip(weights, misfits)]
    dt, m = state.tgrid.dt, state.grid.cell_measure
    return (terms[0] + terms[1]) * dt * m + terms[2] * m + terms[3] * m


def cost_state_gradient(state: Trajectory, cost: CostSpec) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of the cost w.r.t. theta / phi at levels 1..Nt.

    Includes the quadrature weights (dt * cell measure) and, at the final
    level, the terminal terms.
    """
    theta, phi, theta_final, phi_final = _misfits(state, cost)
    dt, m = state.tgrid.dt, state.grid.cell_measure
    d_theta = cost.w_theta * theta * dt * m
    d_phi = cost.w_phi * phi * dt * m
    d_theta[-1] += cost.w_theta_final * theta_final * m
    d_phi[-1] += cost.w_phi_final * phi_final * m
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
