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

Index conventions: trajectories hold theta, phi at levels 0..Nt and the
chemical potential at levels 1..Nt, where sources live too (array index k
maps to level k+1).

The tangent solver differentiates each discrete step exactly: the implicit
convex term contributes its derivative at the new level, the explicit
remainder its derivative at the old level, with zero initial conditions.

Forward Newton, tangent and adjoint sweeps all solve with the same block step
operator. Only its (mu, phi) diagonal depends on the linearization point and
its sparsity pattern never changes, so each (grid, dt, physics) has one
StepOperator (step_operator), built once and kept on the grid for as long as
the grid lives. mu is eliminated: every factorization writes the slope into
the (theta, phi) Schur complement, stored in its symmetric fill-reducing
order, and factorizes that; solves recover mu by back-substitution. Each sweep
holds one LU (StepLU), dropped before its replacement is factorized; forward
Newton keeps it across iterations where a factorization costs many solves (2D).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

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
from .problem import PhysicsParams, ProblemSpec

__all__ = [
    "Trajectory",
    "TangentSolution",
    "solve_state",
    "solve_tangent",
    "mixture_energy",
    "step_matrix",
]

#: Relative distance to the domain boundary preserved by the Newton safeguard.
_BOUNDARY_FRACTION = 0.99
_MIN_STEP_FRACTION = 1.0e-10
#: Per-step Newton solve: residual tolerance (scaled by the data, see
#: _advance_step), iteration budget and halvings of a damped step.
_NEWTON_TOL = 1.0e-12
_NEWTON_MAX_ITER = 50
_NEWTON_MAX_BACKTRACKS = 40
#: Relative residual 2-norm at which refined solves stop.
_REFINE_TOL = 1.0e-12
#: LU entries per unknown from which Newton reuses a held LU (1D grids 8 to 11, 2D 28 to 105).
_CHORD_MIN_FILL = 32


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Discrete trajectory, level-indexed as described in the module docstring."""

    grid: Grid
    tgrid: TimeGrid
    theta: np.ndarray
    phi: np.ndarray
    mu: np.ndarray

    def phase_mean_history(self) -> np.ndarray:
        return self.phi.sum(axis=1) / self.grid.ncells


@dataclasses.dataclass(frozen=True)
class TangentSolution:
    """Directional state derivative along a control direction, level-indexed
    0..Nt like the trajectory's theta and phi."""

    dtheta: np.ndarray
    dphi: np.ndarray


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


#: Pivot threshold of every step-operator factorization. SuperLU keeps a
#: diagonal pivot while it is at least this fraction of the largest entry of
#: its column, so the symmetric fill-reducing order survives pivoting. With
#: partial pivoting, the same order at latent 0.7 and coupling 1.3 gave 3x
#: the fill on 16x16 cells and 15x on 48x48.
DIAG_PIVOT_THRESH = 0.1


def _factorize(matrix: sps.csc_matrix, **options):
    try:
        return splu(matrix, diag_pivot_thresh=DIAG_PIVOT_THRESH, **options)
    except RuntimeError as exc:
        raise LinearSolveDivergence(f"step operator could not be factorized: {exc}") from exc


def _both(matrix: sps.spmatrix) -> dict[str, sps.spmatrix]:
    """A matrix in CSR form and its transpose as a view of the same arrays,
    keyed by the SuperLU `trans` flag."""
    csr = matrix.tocsr()
    return {"N": csr, "T": csr.T}


def _act(matrices: dict, slope, x: np.ndarray, trans: str) -> np.ndarray:
    """(M + D) x, or its transpose, for M in _both form, where D holds
    diag(slope) in the (mu, phi) block of a stacked (theta, phi, mu) operator."""
    n = len(x) // 3
    out = matrices[trans] @ x
    if trans == "N":
        out[2 * n :] += slope * x[n : 2 * n]
    else:
        out[n : 2 * n] += slope * x[2 * n :]
    return out


class StepOperator:
    """The step operator of one (grid, dt, physics), factorized with mu eliminated.

    A = step_matrix(grid, dt, physics, slope) = [[K, G], [H, I]] in the
    unknowns ((theta, phi), mu), where only H = H0 - (0, diag(slope)) depends
    on the linearization point. A x = b is S z = b_top - G b_mu with the Schur
    complement S = K - G H = [[I - dt L, latent I], [dt coupling L,
    I + dt L a32]], a32 = L - diag(visc/dt + slope), and mu = b_mu - H z;
    A^T y = d is S^T z = d_top - H^T d_mu with y_mu = d_mu - G^T z. The slope
    enters S only as G[:, j] * slope_j in the phi columns, on the pattern of L.

    The stored `matrix` is S[order][:, order], symmetrically permuted by a
    minimum-degree ordering of S + S^T taken once at construction; a StepLU
    writes the slope into its slots in place and factorizes it with the
    natural ordering. `template` holds step_matrix at slope 0 and its
    transpose (a view), keyed by the SuperLU trans flag "N" or "T"; the
    Newton residual and the refinement steps act through it. `old_level`
    applies the old-level blocks from latent and visc/dt alone.

    Raises LinearSolveDivergence when the template is exactly singular.
    """

    def __init__(self, grid: Grid, dt: float, physics: PhysicsParams):
        n = grid.ncells
        template = step_matrix(grid, dt, physics, np.zeros(n))
        g, h = template[: 2 * n, 2 * n :].tocoo(), template[2 * n :, : 2 * n]
        schur = (template[: 2 * n, : 2 * n] - g @ h).tocoo()
        # The slots of the slope stay stored (value 0 added) even where the
        # slope-0 entries cancel: sums of sparse matrices drop exact zeros.
        rows = np.concatenate([schur.row, g.row])
        cols = np.concatenate([schur.col, g.col + n])
        data = np.concatenate([schur.data, np.zeros(g.nnz)])
        shape = (2 * n, 2 * n)
        perm_c = _factorize(
            sps.csc_matrix((data, (rows, cols)), shape=shape), permc_spec="MMD_AT_PLUS_A"
        ).perm_c
        # Entry (r, c) of S sits at (perm_c[r], perm_c[c]) of the stored matrix.
        self.matrix = sps.csc_matrix((data, (perm_c[rows], perm_c[cols])), shape=shape)
        self.order = np.argsort(perm_c)
        ptr = self.matrix.indptr
        keys = self.matrix.indices + 2 * n * np.repeat(np.arange(2 * n), np.diff(ptr))
        self._slots = np.searchsorted(keys, perm_c[g.row] + 2 * n * perm_c[g.col + n])
        self._slot_base = self.matrix.data[self._slots]
        self._slot_gain = g.data
        self._slot_slope = g.col
        self.template, self._g, self._h = _both(template), _both(g), _both(h)
        self._latent, self._damping = physics.latent, -(physics.visc / dt)

    def old_level(self, x: np.ndarray, rest_slope, trans: str = "N") -> np.ndarray:
        """M_k x, or M_k^T x: the derivative of the step's old-level terms
        c(x_n) = (theta_n + latent phi_n, phi_n, R(phi_n) - visc/dt phi_n)
        (source left out) with respect to x_n, where rest_slope = R'(phi_n).
        M_k = [[I, latent I, 0], [0, I, 0], [0, diag(rest_slope) - visc/dt I, 0]];
        each entry sums its terms onto 0.0 in the order a CSR product with
        M_k, or M_k^T, sums them, so it matches that product to the bit."""
        n, latent, damping = len(x) // 3, self._latent, self._damping
        theta, phi, mu = x[:n], x[n : 2 * n], x[2 * n :]
        out = np.zeros(3 * n)
        if trans == "N":
            out[:n] += theta + latent * phi
            out[n : 2 * n] += phi
            out[2 * n :] += damping * phi + rest_slope * phi
        else:
            out[:n] += theta
            out[n : 2 * n] += latent * theta + phi + damping * mu + rest_slope * mu
        return out


class StepLU:
    """The one LU of a StepOperator that a sweep holds: forward Newton carries
    it from step to step, and the tangent and adjoint sweeps refine each level
    against it until it stalls. Solves act on stacked (theta, phi, mu)
    vectors; trans="T" solves with the transpose."""

    def __init__(self, stepop: StepOperator):
        self.stepop, self.lu, self.slope = stepop, None, None

    def refactor(self, dconvex: np.ndarray) -> "StepLU":
        """Drop the held LU, then factorize at the convex slope dconvex
        (LinearSolveDivergence when the operator is exactly singular)."""
        self.lu, self.slope, op = None, np.asarray(dconvex, dtype=float), self.stepop
        op.matrix.data[op._slots] = op._slot_base + op._slot_gain * self.slope[op._slot_slope]
        self.lu = _factorize(op.matrix, permc_spec="NATURAL")
        return self

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """The mu-eliminated solve with the operator at the LU's own slope."""
        lu, slope, op, n = self.lu, self.slope, self.stepop, len(self.slope)
        b_top, b_mu, order, g, h = rhs[: 2 * n], rhs[2 * n :], op.order, op._g, op._h
        x = np.empty(3 * n)
        if trans == "N":
            x[order] = lu.solve((b_top - g["N"] @ b_mu)[order])
            x[2 * n :] = b_mu - h["N"] @ x[: 2 * n] + slope * x[n : 2 * n]
        else:
            top = b_top - h["T"] @ b_mu
            top[n:] += slope * b_mu
            x[order] = lu.solve(top[order], trans="T")
            x[2 * n :] = b_mu - g["T"] @ x[: 2 * n]
        return x

    def refined(self, rhs: np.ndarray, slope: np.ndarray, trans: str = "N"):
        """(x, converged) with the operator at `slope`: refined against the
        assembled operator to a residual 2-norm of _REFINE_TOL times that of rhs,
        else the iterate before the first correction that fails to halve it."""
        template, bound = self.stepop.template, _REFINE_TOL * np.linalg.norm(rhs)
        x = self.solve(rhs, trans)
        res = rhs - _act(template, -slope, x, trans)
        res_norm = np.linalg.norm(res)
        while not res_norm <= bound:
            trial = x + self.solve(res, trans)
            res = rhs - _act(template, -slope, trial, trans)
            last, res_norm = res_norm, np.linalg.norm(res)
            if not res_norm <= 0.5 * last:
                return x, False
            x = trial
        return x, True

    def solve_at(self, rhs: np.ndarray, slope: np.ndarray, trans: str = "N") -> np.ndarray:
        """Refine with the held LU; once that stalls, refactorize at `slope`.
        A fresh LU that stalls gives its last iterate; sweeps check finiteness."""
        if self.lu is not None:
            x, converged = self.refined(rhs, slope, trans)
            if converged:
                return x
        return self.refactor(slope).refined(rhs, slope, trans)[0]


def step_operator(grid: Grid, dt: float, physics: PhysicsParams) -> StepOperator:
    """The StepOperator of (grid, dt, physics), built and ordered on first use
    and kept on the grid, so that it lives exactly as long as the grid."""
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
        # Rounding can still put the step on an endpoint: halve it until not.
        while not np.all(potential.contains(phi + alpha * dphi)):
            alpha *= 0.5
        return alpha

    return guard


def _advance_step(
    held: StepLU,
    convex: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    explicit: np.ndarray,
    x_n: np.ndarray,
    source_step: np.ndarray,
    guard: Callable[[np.ndarray, np.ndarray], float],
    noise_floor: float,
    where: str,
) -> np.ndarray:
    """One damped-Newton solve of the coupled step equations at step `where`.

    x_n stacks the old level (theta_n, phi_n) and the starting guess for mu;
    source_step is dt times the source at the new level. The residual is
    template @ x - c(x_n) - (0, 0, B(phi)), with the old-level terms c(x_n)
    formed once.

    The tolerance scales with the size of the old level and of the source
    increment. noise_floor lifts it to the evaluation noise of the nonlinear
    terms (the Yosida values carry the resolvent root error amplified by
    1/eps), below which the residual cannot be driven reliably.

    convex(phi) returns the implicit convex term and its slope together (one
    resolvent solve in the Yosida mode). The residual of each iterate keeps
    that slope, and a Newton step factorizes the operator linearized with it,
    so the phase field of an iterate is never solved for twice. Iteration 1,
    and on LUs of _CHORD_MIN_FILL entries per unknown every iteration after a
    10x cut of the residual, first tries the chord step of the LU in `held`,
    kept if it cuts the residual 10x.
    """
    n = len(explicit)
    old = held.stepop.old_level(x_n, 0.0)
    old[:n] += source_step
    old[2 * n :] += explicit

    def residual(x):
        b, slope = convex(x[n : 2 * n])
        res = held.stepop.template["N"] @ x - old
        res[2 * n :] -= b
        return res, float(np.max(np.abs(res))), slope

    x = x_n.copy()
    scale = 1.0 + max(float(np.max(np.abs(x_n[: 2 * n]))), float(np.max(np.abs(source_step))))
    tol = max(_NEWTON_TOL, noise_floor) * scale
    res, res_norm, slope = residual(x)
    contracted = True
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if res_norm <= tol:
            return x
        lu = held.lu
        if lu is not None and (it == 1 or contracted and lu.nnz >= _CHORD_MIN_FILL * lu.shape[0]):
            delta = held.solve(-res)
            if np.all(np.isfinite(delta)):
                trial = x + guard(x[n : 2 * n], delta[n : 2 * n]) * delta
                trial_res, trial_norm, trial_slope = residual(trial)
                if trial_norm <= max(0.1 * res_norm, tol):
                    x, res, res_norm, slope = trial, trial_res, trial_norm, trial_slope
                    continue
        delta = held.refactor(slope).solve(-res)
        if not np.all(np.isfinite(delta)):
            raise NewtonDivergence(f"{where}, Newton iteration {it}: non-finite step")
        alpha = guard(x[n : 2 * n], delta[n : 2 * n])
        if alpha < _MIN_STEP_FRACTION:
            raise DomainEscape(
                f"{where}, Newton iteration {it}: iterate pinned to the domain boundary"
            )
        for _ in range(_NEWTON_MAX_BACKTRACKS):
            trial = x + alpha * delta
            trial_res, trial_norm, trial_slope = residual(trial)
            if np.isfinite(trial_norm) and (trial_norm < res_norm or trial_norm <= tol):
                break
            alpha *= 0.5
        else:
            raise NewtonDivergence(
                f"{where}, Newton iteration {it}: damping stalled at residual "
                f"{res_norm:.3e} (tol {tol:.1e})"
            )
        contracted = trial_norm <= 0.1 * res_norm
        x = trial
        res, res_norm, slope = trial_res, trial_norm, trial_slope
    if res_norm <= tol:
        return x
    raise NewtonDivergence(
        f"{where}: no convergence after Newton iteration {_NEWTON_MAX_ITER} "
        f"(residual {res_norm:.3e}, tol {tol:.1e})"
    )


def solve_state(u: np.ndarray, spec: ProblemSpec) -> Trajectory:
    """March the state system with source u over the whole horizon.

    spec is valid by construction; only the source is checked here. Raises
    ShapeMismatch / ConfigError for a wrongly shaped or non-finite source,
    NewtonDivergence / DomainEscape (naming time step and Newton iteration)
    when a step fails.
    """
    grid, tgrid = spec.grid, spec.tgrid
    pot, physics = spec.potential, spec.physics
    exact_singular = pot.is_singular and pot.yosida_eps == 0
    n, nt, dt = grid.ncells, tgrid.steps, tgrid.dt
    source = np.asarray(u, dtype=float)
    if source.shape != (nt, n):
        raise ShapeMismatch(f"source: shape {source.shape} != {(nt, n)}")
    if not np.all(np.isfinite(source)):
        raise ConfigError("source: non-finite entries")

    guard = _domain_guard(pot) if exact_singular else lambda phi, dphi: 1.0
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
    held = StepLU(step_operator(grid, dt, physics))
    x = np.concatenate([theta[0], phi[0], mu_guess])
    for k in range(nt):
        x = _advance_step(
            held,
            pot.dw_and_d2w_convex_eff,
            pot.dw_rest(phi[k]),
            x,
            dt * source[k],
            guard,
            noise_floor,
            f"time step {k + 1} of {nt}",
        )
        # Re-anchor the conserved mean; the shift is below Newton tolerance.
        x[n : 2 * n] += phase_mean - float(np.sum(x[n : 2 * n])) / n
        theta[k + 1], phi[k + 1], mu[k] = x[:n], x[n : 2 * n], x[2 * n :]
    return Trajectory(grid=grid, tgrid=tgrid, theta=theta, phi=phi, mu=mu)


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

    dtheta = np.zeros((nt + 1, n))
    dphi = np.zeros((nt + 1, n))
    held = StepLU(step_operator(grid, dt, physics))
    x = np.zeros(3 * n)
    for k in range(nt):
        rhs = held.stepop.old_level(x, pot.d2w_rest(base.phi[k]))
        rhs[:n] += dt * h[k]
        x = held.solve_at(rhs, pot.d2w_convex_eff(base.phi[k + 1]))
        if not np.all(np.isfinite(x)):
            raise LinearSolveDivergence(f"tangent sweep broke down at step {k}")
        dtheta[k + 1], dphi[k + 1] = x[:n], x[n : 2 * n]
    return TangentSolution(dtheta=dtheta, dphi=dphi)


def mixture_energy(grid: Grid, potential: Potential, phi: np.ndarray) -> float:
    """Free energy driving the decoupled flow: gradient term plus both
    potential parts, with the convex part evaluated in the mode that actually
    drives the dynamics (Moreau envelope when regularized)."""
    bulk = potential.w_convex_eff(phi) + potential.w_rest(phi)
    return 0.5 * grid.grad_sq(phi) + grid.integrate(bulk)
