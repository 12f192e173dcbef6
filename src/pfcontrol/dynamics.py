"""Backward-Euler time stepping for the coupled conserved phase-field system.

Per step (dt = T / Nt, level n -> n+1, all equations scaled by dt):

    theta' - theta + latent * (phi' - phi) - dt * Lap theta' = dt * v'
    phi' - phi - dt * Lap mu' = 0
    mu' = visc * (phi' - phi) / dt - Lap phi' + B(phi') + R(phi) - coupling * theta'

where primes mark the new level, B is the derivative of the convex potential
part (implicit; Yosida-regularized when eps > 0) and R the derivative of the
smooth remainder (explicit, old level). The implicit/explicit split gives
unconditional energy stability in the decoupled limit, and the conserved-form
phase update keeps mean(phi) constant.

Index conventions: trajectories hold theta, phi at levels 0..Nt; chemical
potential and sources at levels 1..Nt (array index k maps to level k+1).

The tangent solver differentiates each discrete step exactly: the implicit
convex term contributes its derivative at the new level, the explicit
remainder its derivative at the old level, with zero initial conditions.

Forward Newton, tangent and adjoint sweeps all solve with the same block step
operator. Only its (mu, phi) diagonal depends on the linearization point and
its sparsity pattern never changes, so each (grid, dt, physics) has one
StepOperator (step_operator), assembled once, stored with its fill-reducing
column ordering already applied, and kept on the grid for as long as the grid
lives. Every factorization writes the diagonal in place and factorizes the
pre-ordered matrix; no LU outlives the solve it serves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import (
    ConfigError,
    DomainEscape,
    LinearSolveDivergence,
    NewtonDivergence,
    ShapeMismatch,
)
from .grid import Grid, TimeGrid
from .potential import Potential
from .problem import PhysicsParams, ProblemSpec, SolverOptions

__all__ = [
    "Trajectory",
    "TangentSolution",
    "solve_state",
    "solve_tangent",
    "mixture_energy",
    "step_matrix",
    "StepOperator",
    "step_operator",
]

#: Relative distance to the domain boundary preserved by the Newton safeguard.
_BOUNDARY_FRACTION = 0.99
_MIN_STEP_FRACTION = 1.0e-10


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Discrete trajectory, level-indexed as described in the module docstring."""

    grid: Grid
    tgrid: TimeGrid
    theta: np.ndarray
    phi: np.ndarray
    mu: np.ndarray
    source: np.ndarray

    def phase_mean_history(self) -> np.ndarray:
        return self.phi.sum(axis=1) / self.grid.ncells


@dataclasses.dataclass(frozen=True)
class TangentSolution:
    """Directional state derivative along a control direction."""

    grid: Grid
    tgrid: TimeGrid
    dtheta: np.ndarray
    dphi: np.ndarray
    dmu: np.ndarray


def step_matrix(
    grid: Grid, dt: float, physics: PhysicsParams, dconvex: np.ndarray
) -> sps.csc_matrix:
    """Implicit block operator of one step, linearized at the given convex slope.

    Blocks act on the stacked new-level unknowns (theta, phi, mu). The same
    matrix is the per-step tangent operator, and its transpose drives the
    adjoint sweep.
    """
    n = grid.ncells
    lap = grid.laplacian
    eye = sps.identity(n, format="csr")
    a11 = eye - dt * lap
    a12 = physics.latent * eye
    a23 = -dt * lap
    a31 = physics.coupling * eye
    a32 = lap - sps.diags(physics.visc / dt + np.asarray(dconvex, dtype=float))
    return sps.bmat([[a11, a12, None], [None, eye, a23], [a31, a32, eye]], format="csc")


class _OrderedLU:
    """SuperLU factors of B = A[:, order], solving in the unknowns of A.

    A x = b is B y = b with x[order] = y, and A^T x = b is B^T x = b[order].
    """

    __slots__ = ("_lu", "_order")

    def __init__(self, lu, order: np.ndarray):
        self._lu = lu
        self._order = order

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        if trans == "N":
            x = np.empty(len(self._order))
            x[self._order] = self._lu.solve(rhs)
            return x
        return self._lu.solve(rhs[self._order], trans=trans)


def _factorize(matrix: sps.csc_matrix, **options):
    try:
        return splu(matrix, **options)
    except RuntimeError as exc:
        raise LinearSolveDivergence(f"step operator could not be factorized: {exc}") from exc


class StepOperator:
    """The step operator of one (grid, dt, physics), stored in column-ordered form.

    The sparsity pattern never changes; only the diagonal of the a32 block,
    lap_ii - (visc/dt + dconvex_i), depends on the linearization point. The
    operator is assembled once and its fill-reducing column ordering (COLAMD,
    from one default splu of the assembled template) is applied to the stored
    matrix, so `matrix` is step_matrix(...)[:, order]. `factor` overwrites the
    a32 diagonal entries with the expression step_matrix evaluates and
    factorizes with the natural ordering; its solves equal those of
    splu(step_matrix(grid, dt, physics, dconvex)) bit for bit.

    Raises LinearSolveDivergence when the template is exactly singular.
    """

    def __init__(self, grid: Grid, dt: float, physics: PhysicsParams):
        n = grid.ncells
        template = step_matrix(grid, dt, physics, np.zeros(n))
        perm_c = _factorize(template).perm_c
        self.order = np.empty_like(perm_c)
        self.order[perm_c] = np.arange(3 * n)
        self.matrix = template[:, self.order]
        self._shift = physics.visc / dt
        self._lap_diag = grid.laplacian.diagonal()
        # Template entries at (row 2n + i, column n + i), in order of i. Every
        # one is present: lap_ii < 0 <= visc/dt keeps it from cancelling.
        rows = template.indices
        cols = np.repeat(np.arange(3 * n), np.diff(template.indptr))
        slots = np.flatnonzero((cols >= n) & (cols < 2 * n) & (rows == cols + n))
        # Reordering moves whole columns: column c starts at indptr[perm_c[c]].
        cols = cols[slots]
        self._a32_diag = self.matrix.indptr[perm_c[cols]] + slots - template.indptr[cols]

    def factor(self, dconvex: np.ndarray) -> _OrderedLU:
        """LU factors of the operator linearized at the convex slope dconvex.

        Raises LinearSolveDivergence when the operator is exactly singular.
        """
        slope = self._shift + np.asarray(dconvex, dtype=float)
        self.matrix.data[self._a32_diag] = self._lap_diag - slope
        return _OrderedLU(_factorize(self.matrix, permc_spec="NATURAL"), self.order)


def step_operator(grid: Grid, dt: float, physics: PhysicsParams) -> StepOperator:
    """The StepOperator of (grid, dt, physics), assembled and ordered on first
    use and kept on the grid, so that it lives exactly as long as the grid."""
    key = (float(dt), physics)
    stepop = grid.step_operators.get(key)
    if stepop is None:
        stepop = grid.step_operators[key] = StepOperator(grid, dt, physics)
    return stepop


def _domain_guard(potential: Potential) -> Callable[[np.ndarray, np.ndarray], float]:
    lo, hi = potential.lo, potential.hi

    def guard(phi: np.ndarray, dphi: np.ndarray) -> float:
        alpha = 1.0
        if np.isfinite(lo):
            falling = dphi < 0
            if np.any(falling):
                room = phi[falling] - lo
                alpha = min(alpha, float(np.min(_BOUNDARY_FRACTION * room / -dphi[falling])))
        if np.isfinite(hi):
            rising = dphi > 0
            if np.any(rising):
                room = hi - phi[rising]
                alpha = min(alpha, float(np.min(_BOUNDARY_FRACTION * room / dphi[rising])))
        return alpha

    return guard


def _advance_step(
    grid: Grid,
    dt: float,
    physics: PhysicsParams,
    stepop: StepOperator,
    convex: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    explicit: np.ndarray,
    theta_n: np.ndarray,
    phi_n: np.ndarray,
    mu_guess: np.ndarray,
    source_level: np.ndarray,
    opts: SolverOptions,
    guard: Optional[Callable[[np.ndarray, np.ndarray], float]],
    noise_floor: float,
    where: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One damped-Newton solve of the coupled step equations at step `where`.

    The tolerance scales with the size of the old level and of the source
    increment dt * source_level. noise_floor lifts it to the evaluation noise
    of the nonlinear terms (the Yosida values carry the resolvent root error
    amplified by 1/eps), below which the residual cannot be driven reliably.

    convex(phi) returns the implicit convex term and its slope together (one
    resolvent solve in the Yosida mode). The residual of each iterate keeps
    that slope, and the next Newton step factorizes the operator linearized
    with it, so the phase field of an iterate is never solved for twice.
    """
    n = grid.ncells
    lap = grid.laplacian
    latent, coupling, visc = physics.latent, physics.coupling, physics.visc

    def residual(th, ph, m):
        b, slope = convex(ph)
        r1 = th - theta_n + latent * (ph - phi_n) - dt * (lap @ th) - dt * source_level
        r2 = ph - phi_n - dt * (lap @ m)
        r3 = (
            m
            - visc * (ph - phi_n) / dt
            + lap @ ph
            - b
            - explicit
            + coupling * th
        )
        return np.concatenate([r1, r2, r3]), slope

    theta, phi, mu = theta_n.copy(), phi_n.copy(), mu_guess.copy()
    scale = 1.0 + max(
        float(np.max(np.abs(theta_n))),
        float(np.max(np.abs(phi_n))),
        dt * float(np.max(np.abs(source_level))),
    )
    tol = max(opts.newton_tol, noise_floor) * scale
    res, slope = residual(theta, phi, mu)
    res_norm = float(np.max(np.abs(res)))
    for it in range(1, opts.newton_max_iter + 1):
        if res_norm <= tol:
            return theta, phi, mu
        delta = stepop.factor(slope).solve(-res)
        if not np.all(np.isfinite(delta)):
            raise NewtonDivergence(f"{where}, Newton iteration {it}: non-finite step")
        d_theta, d_phi, d_mu = delta[:n], delta[n : 2 * n], delta[2 * n :]
        alpha = 1.0
        if guard is not None:
            alpha = min(1.0, guard(phi, d_phi))
            if alpha < _MIN_STEP_FRACTION:
                raise DomainEscape(
                    f"{where}, Newton iteration {it}: iterate pinned to the domain boundary"
                )
        accepted = False
        for _ in range(opts.newton_max_backtracks):
            trial = (theta + alpha * d_theta, phi + alpha * d_phi, mu + alpha * d_mu)
            trial_res, trial_slope = residual(*trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if np.isfinite(trial_norm) and (trial_norm < res_norm or trial_norm <= tol):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise NewtonDivergence(
                f"{where}, Newton iteration {it}: damping stalled at residual "
                f"{res_norm:.3e} (tol {tol:.1e})"
            )
        theta, phi, mu = trial
        res, res_norm, slope = trial_res, trial_norm, trial_slope
    if res_norm <= tol:
        return theta, phi, mu
    raise NewtonDivergence(
        f"{where}: no convergence after Newton iteration {opts.newton_max_iter} "
        f"(residual {res_norm:.3e}, tol {tol:.1e})"
    )


def solve_state(u: np.ndarray, spec: ProblemSpec) -> Trajectory:
    """March the state system with source u over the whole horizon.

    Raises ConfigError for inadmissible setups, NewtonDivergence /
    DomainEscape (naming time step and Newton iteration) when a step fails.
    """
    grid, tgrid, opts = spec.grid, spec.tgrid, spec.options
    pot, physics = spec.potential, spec.physics
    exact_singular = pot.is_singular and pot.yosida_eps == 0
    if exact_singular and physics.visc == 0:
        raise ConfigError(
            "singular potential in exact mode requires positive viscosity"
        )
    bad = spec.init.validate(grid, pot)
    if bad:
        raise ConfigError("; ".join(bad))
    n, nt, dt = grid.ncells, tgrid.steps, tgrid.dt
    source = np.asarray(u, dtype=float)
    if source.shape != (nt, n):
        raise ShapeMismatch(f"source: shape {source.shape} != {(nt, n)}")

    guard = _domain_guard(pot) if exact_singular else None
    noise_floor = 0.0
    if pot.yosida_eps > 0:
        noise_floor = 16.0 * np.finfo(float).eps / pot.yosida_eps

    theta = np.empty((nt + 1, n))
    phi = np.empty((nt + 1, n))
    mu = np.empty((nt, n))
    theta[0] = spec.init.theta0
    phi[0] = spec.init.phi0
    phase_mean = float(np.sum(phi[0])) / n

    mu_guess = (
        -(grid.laplacian @ phi[0])
        + pot.dw_convex_eff(phi[0])
        + pot.dw_rest(phi[0])
        - physics.coupling * theta[0]
    )
    stepop = step_operator(grid, dt, physics)
    for k in range(nt):
        theta[k + 1], phi[k + 1], mu[k] = _advance_step(
            grid,
            dt,
            physics,
            stepop,
            pot.dw_and_d2w_convex_eff,
            pot.dw_rest(phi[k]),
            theta[k],
            phi[k],
            mu_guess,
            source[k],
            opts,
            guard,
            noise_floor,
            f"time step {k + 1} of {nt}",
        )
        # Re-anchor the conserved mean; the shift is below Newton tolerance.
        phi[k + 1] += phase_mean - float(np.sum(phi[k + 1])) / n
        mu_guess = mu[k]
    return Trajectory(grid=grid, tgrid=tgrid, theta=theta, phi=phi, mu=mu, source=source)


def solve_tangent(h: np.ndarray, base: Trajectory, spec: ProblemSpec) -> TangentSolution:
    """Exact derivative of the discrete state map along direction h.

    Solves, per step, the state Newton operator (linearized at the stored
    new-level phase) against the old-level terms differentiated where they
    were evaluated. Initial conditions are zero and mean(dphi) stays zero.
    """
    grid, tgrid = base.grid, base.tgrid
    n, nt, dt = grid.ncells, tgrid.steps, tgrid.dt
    h = np.asarray(h, dtype=float)
    if h.shape != (nt, n):
        raise ShapeMismatch(f"direction: shape {h.shape} != {(nt, n)}")
    if base.theta.shape != (nt + 1, n):
        raise ShapeMismatch("trajectory does not match the grid/time grid")
    pot, physics = spec.potential, spec.physics
    visc_dt = physics.visc / dt

    dtheta = np.zeros((nt + 1, n))
    dphi = np.zeros((nt + 1, n))
    dmu = np.empty((nt, n))
    stepop = step_operator(grid, dt, physics)
    for k in range(nt):
        rest_slope = pot.d2w_rest(base.phi[k])
        rhs = np.concatenate(
            [
                dtheta[k] + physics.latent * dphi[k] + dt * h[k],
                dphi[k],
                (rest_slope - visc_dt) * dphi[k],
            ]
        )
        sol = stepop.factor(pot.d2w_convex_eff(base.phi[k + 1])).solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise LinearSolveDivergence(f"tangent sweep broke down at step {k}")
        dtheta[k + 1] = sol[:n]
        dphi[k + 1] = sol[n : 2 * n]
        dmu[k] = sol[2 * n :]
    return TangentSolution(grid=grid, tgrid=tgrid, dtheta=dtheta, dphi=dphi, dmu=dmu)


def mixture_energy(grid: Grid, potential: Potential, phi: np.ndarray) -> float:
    """Free energy driving the decoupled flow: gradient term plus both
    potential parts, with the convex part evaluated in the mode that actually
    drives the dynamics (Moreau envelope when regularized)."""
    bulk = potential.w_convex_eff(phi) + potential.w_rest(phi)
    return 0.5 * grid.grad_sq(phi) + grid.integrate(bulk)
