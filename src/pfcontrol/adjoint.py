"""Adjoint of the discrete tangent system and the tracking-cost machinery.

The tangent recursion is, per step k -> k+1,

    A_k X_{k+1} = M_k X_k + dt * (h_{k+1}, 0, 0)

with A_k the step operator linearized at the stored solution and M_k
collecting the old-level terms. The adjoint sweep solves the exact
transposes backward,

    A_{Nt-1}^T y_Nt = d_Nt,
    A_{k-1}^T y_k = d_k + M_k^T y_{k+1}    (k = Nt-1 .. 1),

where d_k is the Euclidean gradient of the discrete cost with respect to the
stacked state at level k. By construction the duality identity

    sum_k dt * (q_k, h_k)_Omega = d/d(delta) J(S(u + delta h)) |_0

holds to linear-solver precision, and the multiplier block attached to the
balance equation, divided by the cell measure, is the reduced gradient q,
which solve_adjoint returns on levels 1..Nt.

The sweep uses the problem's one StepOperator, as the forward and tangent
sweeps do. Each level is refined to a relative residual of 1e-12 against
the transpose of the sweep's one LU (first factorized at level Nt), which
is replaced at the level's slope when it stalls. The right-hand side
d_k + M_k^T y_{k+1} comes from StepOperator.old_level, the map the tangent
sweep applies, so the adjoint is the transpose of the tangent by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import LinearSolveDivergence, ShapeMismatch
from .dynamics import TangentSolution, Trajectory, StepLU, step_operator
from .grid import Grid, TimeGrid
from .problem import CostSpec, ProblemSpec

__all__ = [
    "solve_adjoint",
    "cost_value",
    "dj_along_tangent",
]


def _check_state(state: Trajectory, grid: Grid, tgrid: TimeGrid) -> None:
    want = (tgrid.steps + 1, grid.ncells)
    if state.theta.shape != want or state.phi.shape != want:
        raise ShapeMismatch(
            f"trajectory shape {state.theta.shape} does not match {want}"
        )


def cost_value(state: Trajectory, cost: CostSpec) -> float:
    """Discrete tracking cost: right-endpoint rectangle rule in time."""
    grid, tgrid = state.grid, state.tgrid
    _check_state(state, grid, tgrid)
    theta_q, phi_q = cost.running_targets(grid, tgrid)
    theta_om, phi_om = cost.final_targets(grid)
    dt, m = tgrid.dt, grid.cell_measure
    running = 0.0
    if cost.w_theta:
        diff = state.theta[1:] - theta_q
        running += 0.5 * cost.w_theta * float(np.sum(diff * diff))
    if cost.w_phi:
        diff = state.phi[1:] - phi_q
        running += 0.5 * cost.w_phi * float(np.sum(diff * diff))
    total = running * dt * m
    if cost.w_theta_final:
        diff = state.theta[-1] - theta_om
        total += 0.5 * cost.w_theta_final * float(np.sum(diff * diff)) * m
    if cost.w_phi_final:
        diff = state.phi[-1] - phi_om
        total += 0.5 * cost.w_phi_final * float(np.sum(diff * diff)) * m
    return total


def cost_state_gradient(state: Trajectory, cost: CostSpec) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of the cost w.r.t. theta / phi at levels 1..Nt.

    Includes the quadrature weights (dt * cell measure) and, at the final
    level, the terminal terms.
    """
    grid, tgrid = state.grid, state.tgrid
    _check_state(state, grid, tgrid)
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
    control.

    The factorized matrix is the (theta, phi) Schur complement, whose (phi,
    phi) block I + dt L (L - diag(visc/dt + slope)) is fourth order.
    """
    grid, tgrid = state.grid, state.tgrid
    if grid is not spec.grid and grid.cells != spec.grid.cells:
        raise ShapeMismatch("state grid does not match the problem spec")
    _check_state(state, grid, tgrid)
    n, nt, dt = grid.ncells, tgrid.steps, tgrid.dt
    physics, pot = spec.physics, spec.potential
    m = grid.cell_measure

    d_theta, d_phi = cost_state_gradient(state, spec.cost)
    q = np.empty((nt, n))
    y = np.zeros(3 * n)
    held = StepLU(step_operator(grid, dt, physics))
    for level in range(nt, 0, -1):
        # d_k + M_k^T y_{k+1} for the step leaving this level (y_{Nt+1} = 0).
        rhs = held.stepop.old_level(y, pot.d2w_rest(state.phi[level]), trans="T")
        rhs[:n] += d_theta[level - 1]
        rhs[n : 2 * n] += d_phi[level - 1]
        y = held.solve_at(rhs, pot.d2w_convex_eff(state.phi[level]), trans="T")
        if not np.all(np.isfinite(y)):
            raise LinearSolveDivergence(f"adjoint sweep broke down at level {level}")
        q[level - 1] = y[:n] / m
    return q
