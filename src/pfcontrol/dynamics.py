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

The tangent differentiates each discrete step exactly: the implicit convex
term contributes its derivative at the new level, the explicit remainder its
derivative at the old level. One loop, linear_sweep, runs it and its transpose.

Forward Newton, tangent and adjoint sweeps all solve with the same block step
operator. Only its (mu, phi) diagonal depends on the linearization point, so
each (grid, dt, physics) has one StepOperator (step_operator), built once and
kept on the grid for as long as the grid lives. In 1D its factor is a LAPACK
band LU of the whole operator in interleaved (theta_i, phi_i, mu_i) order,
normwise backward stable. In 2D the grid's DCT diagonalizes the Laplacian, so
at the mean slope the operator is one 3x3 block per mode, which a solve
eliminates in closed form; solves refine against the operator at the true
slope, Newton's to a residual of _FORCING times its right-hand side (inexact
Newton), the linearized sweeps' to _REFINE_TOL. Only where that refinement
stalls, on slopes far from their mean, is the operator at the true slope
factorized, once, by splu. Each sweep holds one factor (StepLU); forward
Newton first tries the chord step of the one carried from the previous step.
It also starts from the residual and slope of the previous step's last
iterate, so only step 1 evaluates its old level.
In 1D a fresh band LU needs no refinement: a linearized sweep solves every
level with its band LU alone, checks the residuals of all levels in one
template product, and refines level by level only from the first level that
misses the bound.

solve_states marches several controls of one spec together. Each control's
march is one coroutine over its steps' Newton solves: it yields every iterate
and is sent back its residual. In 1D all pending iterates share one round:
one convex evaluation and one template product for all of them, while every
Newton decision stays with its own control, so each trajectory is bit for
bit the control's solo march. solve_state is the batch of one, the one the
optimizer calls. The FD oracle and the probes march their controls in
batches. In 2D the marches run one after another. The linearized sweeps
evaluate the slopes of all their levels in one call each.

Per Newton iterate and sweep level, reductions call ndarray methods (r.max(),
not np.max(r)): the same bits without the wrapper's dispatch, which on a 1D
grid costs more than the arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sps
from scipy.linalg.lapack import dgbtrf, dgbtrs
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
    "solve_states",
    "solve_tangent",
    "mixture_energy",
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
#: Forcing term of inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
#: Anal. 1982): the residual cut of a 2D Newton solve and of a chord step.
_FORCING = 0.1


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

    def check(self, spec: ProblemSpec | None = None) -> None:
        """Raise ShapeMismatch unless theta and phi fit the trajectory's own
        grids and, given spec, those grids have spec's cells, lengths and
        time grid."""
        grid, tgrid = self.grid, self.tgrid
        mine = (grid.cells, grid.lengths, tgrid)
        if spec is not None and mine != (spec.grid.cells, spec.grid.lengths, spec.tgrid):
            raise ShapeMismatch(f"state on {grid}, {tgrid}; spec on {spec.grid}, {spec.tgrid}")
        want = (tgrid.steps + 1, grid.ncells)
        if self.theta.shape != want or self.phi.shape != want:
            raise ShapeMismatch(f"trajectory shape {self.theta.shape} does not match {want}")


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


def _both(matrix: sps.spmatrix) -> dict[str, sps.spmatrix]:
    """A matrix in CSR form and its transpose as a view of the same arrays,
    keyed by the `trans` flag."""
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


def _mode_pivots(b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """den = 1 + b g per DCT mode (StepOperator); a zero makes its block singular."""
    den = 1.0 + b * g
    if not (den != 0.0).all():
        raise LinearSolveDivergence("step operator is exactly singular (a DCT mode block)")
    return den


class StepOperator:
    """The step operator of one (grid, dt, physics), stored for its LUs.

    `template` holds step_matrix at slope 0 and its transpose (a view), keyed
    by the trans flag "N" or "T"; the Newton residual and the refinement steps
    act through it. `old_level` applies the old-level blocks from latent and
    visc/dt alone. In 1D, `band` holds the template in interleaved (theta_i,
    phi_i, mu_i) order, stacked unknown order[j] at j and i at at[i], in LAPACK
    band storage with kl and ku read off that pattern; a StepLU writes the
    slope into the (mu_i, phi_i) slots of a copy and factorizes it.

    In 2D the orthonormal DCT-II of the grid (Grid.dct) diagonalizes the
    Laplacian, so at a constant slope s the operator is one 3x3 block per
    mode with Laplacian eigenvalue lam, [[a, latent, 0], [0, 1, b], [coupling,
    lam - visc/dt - s, 1]] with a = 1 - dt lam >= 1 and b = -dt lam. Without
    theta it is a 2x2 block of determinant den = 1 + b g, g = coupling latent
    / a - (lam - visc/dt) + s, which StepLU solves by Cramer's rule (phi =
    r2 - b mu would cancel where b is large). `a`, `b`, `latent_a`,
    `coupling_a` (latent, coupling over a) and `g0` (g at s = 0) hold them.
    """

    def __init__(self, grid: Grid, dt: float, physics: PhysicsParams):
        n = grid.ncells
        template = step_matrix(grid, dt, physics, np.zeros(n))
        self.template, self.band = _both(template), None
        # Weak: the grid keeps its operators, and a cycle would wait for the gc.
        self.grid, self.dt, self.physics = weakref.proxy(grid), dt, physics
        self._latent, self._damping = physics.latent, -(physics.visc / dt)
        if grid.dim == 1:
            # Stacked unknown c * n + i (c = theta, phi, mu) sits at 3 * i + c.
            self.order = np.arange(3 * n).reshape(3, n).T.ravel()
            self.at, coo = np.argsort(self.order), template.tocoo()
            rows, cols = self.at[coo.row], self.at[coo.col]
            self.kl, self.ku = int(np.max(rows - cols)), int(np.max(cols - rows))
            self.band = np.zeros((2 * self.kl + self.ku + 1, 3 * n), order="F")
            self.band[self.kl + self.ku + rows - cols, cols] = coo.data
            return
        lam = grid.eigenvalues
        self.a, self.b = 1.0 - dt * lam, -dt * lam
        self.latent_a, self.coupling_a = physics.latent / self.a, physics.coupling / self.a
        self.g0 = physics.latent * self.coupling_a - (lam + self._damping)

    def old_level(self, x: np.ndarray, rest_slope, trans: str = "N") -> np.ndarray:
        """M_k x, or M_k^T x: the derivative of the step's old-level terms
        c(x_n) = (theta_n + latent phi_n, phi_n, R(phi_n) - visc/dt phi_n)
        (source left out) with respect to x_n, where rest_slope = R'(phi_n).
        M_k = [[I, latent I, 0], [0, I, 0], [0, diag(rest_slope) - visc/dt I, 0]];
        each entry adds the sum of its terms to 0.0, as a CSR product with
        M_k, or M_k^T, sums them, so it matches that product to the bit."""
        n, latent, damping = len(x) // 3, self._latent, self._damping
        theta, phi, mu = x[:n], x[n : 2 * n], x[2 * n :]
        if trans == "N":
            out = np.concatenate((theta + latent * phi, phi, damping * phi + rest_slope * phi))
        else:
            out = np.zeros(3 * n)
            out[:n] = theta
            out[n : 2 * n] = latent * theta + phi + damping * mu + rest_slope * mu
        out += 0.0
        return out


class StepLU:
    """The one factor of a StepOperator that a sweep holds, linearized at the
    convex slope `slope`: forward Newton carries it from step to step, and
    the sweeps refactor it at each level. Solves act on stacked (theta, phi,
    mu) vectors; trans="T" solves with the transpose.

    In 1D it is the band LU of the whole operator. In 2D it is (g, den) of
    every DCT mode block at the mean of the slope, solved in closed form, and
    solves refine against the operator at the true slope; where that
    refinement stalls, the operator at that slope is factorized once with
    splu and the refinement goes on with that LU."""

    def __init__(self, stepop: StepOperator):
        self.stepop, self.lu, self.slope = stepop, None, None

    def refactor(self, dconvex: np.ndarray) -> "StepLU":
        """Drop the held factor, then factorize at the convex slope dconvex, in
        2D by the mode pivots at its mean (LinearSolveDivergence when the
        operator is exactly singular)."""
        self.lu, self.slope, op = None, np.asarray(dconvex, dtype=float), self.stepop
        if op.band is not None:
            band = op.band.copy(order="F")
            band[op.kl + op.ku + 1, 1::3] -= self.slope  # (mu_i, phi_i) at (3i + 2, 3i + 1)
            lu, piv, info = dgbtrf(band, op.kl, op.ku, overwrite_ab=1)
            assert info >= 0, f"dgbtrf argument {-info} is invalid"
            if info > 0:
                raise LinearSolveDivergence(f"step operator is exactly singular (pivot {info})")
            self.lu = lu, piv
            return self
        g = op.g0 + self.slope.mean()
        self.lu = np.array([g, _mode_pivots(op.b, g)])
        return self

    def _apply(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        """The solve with the held factor alone: the band LU, the DCT mode
        blocks at the mean slope (StepOperator), or a stalled refinement's splu."""
        lu, op = self.lu, self.stepop
        if op.band is not None:
            return dgbtrs(lu[0], op.kl, op.ku, rhs[op.order], lu[1], int(trans == "T"))[0][op.at]
        if not isinstance(lu, np.ndarray):
            return lu.solve(rhs, trans=trans)
        (g, den), (r1, r2, r3) = lu, op.grid.dct(rhs.reshape(3, -1))
        if trans == "N":
            t = r3 - op.coupling_a * r1
            phi = (r2 - op.b * t) / den
            x = ((r1 - op.physics.latent * phi) / op.a, phi, (t + g * r2) / den)
        else:
            t = r2 - op.latent_a * r1
            mu = (r3 - op.b * t) / den
            x = ((r1 - op.physics.coupling * mu) / op.a, (t + g * r3) / den, mu)
        return op.grid.dct(np.array(x), True).ravel()

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """A Newton step's solve with the operator at the factor's own slope:
        the band LU's in 1D, refined to a residual of _FORCING times rhs in 2D."""
        if self.stepop.band is not None:
            return self._apply(rhs, trans)
        return self.refined(rhs, self.slope, trans, _FORCING)[0]

    def refined(
        self, rhs: np.ndarray, slope: np.ndarray, trans: str = "N", rtol: float = _REFINE_TOL
    ):
        """(x, converged) with the operator at `slope`: refined against the
        assembled operator to a residual 2-norm of rtol times that of rhs,
        else the iterate before the first correction that fails to halve it.
        The refinement aims at half that bound, so that the rounding of another
        evaluation of the residual cannot carry a converged x past it; it stops
        at the bound itself only where the next correction fails to halve.
        Where that stalls with the DCT modes, the held factor becomes the splu
        LU of step_matrix at `slope`, and the refinement starts again with it."""
        template, bound = self.stepop.template, rtol * np.linalg.norm(rhs)
        x = self._apply(rhs, trans)
        res = rhs - _act(template, -slope, x, trans)
        res_norm = np.linalg.norm(res)
        while not res_norm <= 0.5 * bound:
            trial = x + self._apply(res, trans)
            res = rhs - _act(template, -slope, trial, trans)
            last, res_norm = res_norm, np.linalg.norm(res)
            if not res_norm <= 0.5 * last:
                if last <= bound:
                    return x, True
                if not isinstance(self.lu, np.ndarray):
                    return x, False
                op = self.stepop
                try:
                    self.lu = splu(step_matrix(op.grid, op.dt, op.physics, slope))
                except RuntimeError as exc:
                    raise LinearSolveDivergence(f"fallback LU of the step operator: {exc}") from exc
                return self.refined(rhs, slope, trans, rtol)
            x = trial
        return x, True


def step_operator(grid: Grid, dt: float, physics: PhysicsParams) -> StepOperator:
    """The StepOperator of (grid, dt, physics), built on first use and kept
    on the grid, so that it lives exactly as long as the grid."""
    key = (float(dt), physics)
    stepop = grid.step_operators.get(key)
    if stepop is None:
        stepop = grid.step_operators[key] = StepOperator(grid, dt, physics)
    return stepop


def _domain_guard(potential: Potential) -> Callable[[np.ndarray, np.ndarray], float]:
    lo, hi = potential.lo, potential.hi

    def guard(phi: np.ndarray, dphi: np.ndarray) -> float:
        room = np.where(dphi < 0, phi - lo, hi - phi)  # a zero move has ratio inf
        with np.errstate(divide="ignore"):
            alpha = min(1.0, float((_BOUNDARY_FRACTION * room / np.abs(dphi)).min()))
        # Rounding can still put the step on an endpoint: halve it until not.
        while not potential.contains(phi + alpha * dphi).all():
            alpha *= 0.5
        return alpha

    return guard


def _advance_step(
    held: StepLU,
    explicit: np.ndarray,
    x_n: np.ndarray,
    source_step: np.ndarray,
    guard: Callable[[np.ndarray, np.ndarray], float] | None,
    noise_floor: float,
    carry: tuple[np.ndarray, np.ndarray] | None,
    where: str,
):
    """One damped-Newton solve of the coupled step equations at step `where`,
    as a coroutine that returns the new level and its carry.

    x_n stacks the old level (theta_n, phi_n) and the starting guess for mu;
    source_step is dt times the source at the new level. The residual is
    template @ x - old - (0, 0, B(phi)), with the old-level terms old = c(x_n)
    formed once. The coroutine yields each iterate x with `old` and is sent
    back (res, res_norm, slope): the residual, its max norm and the convex
    slope at phi. solve_states forms them, for many controls at once.

    carry = (acted, slope) is the previous step's last evaluation, acted =
    template @ x_n - (0, 0, B(phi_n)) and the convex slope at phi_n, both
    owned arrays; the step takes it over, so Newton starts from res = acted -
    old without evaluating x_n again. It was evaluated before _march shifted
    phi_n to re-anchor the phase mean, a shift below the Newton tolerance.
    With carry None (step 1) the step yields x_n first. The step returns
    (x, carry) for the next one.

    guard(phi, dphi) caps the step length on a singular domain, None takes
    full steps. The tolerance scales with the size of the old level and of
    the source increment. noise_floor lifts it to the evaluation noise of the
    nonlinear terms (the Yosida values carry the resolvent root error
    amplified by 1/eps), below which the residual cannot be driven reliably.

    The residual of each iterate keeps its slope, and a Newton step
    factorizes the operator linearized with it, so the phase field of an
    iterate is never evaluated twice. Iteration 1 first tries the chord step
    of the factor in `held`, carried from the previous step, kept if it cuts
    the residual by _FORCING, as much as a 2D Newton step's solve must.
    """
    n = len(explicit)
    old = held.stepop.old_level(x_n, 0.0)
    old[:n] += source_step
    old[2 * n :] += explicit
    x = x_n.copy()
    scale = 1.0 + max(float(np.abs(x_n[: 2 * n]).max()), float(np.abs(source_step).max()))
    tol = max(_NEWTON_TOL, noise_floor) * scale
    if carry is None:
        res, res_norm, slope = yield x, old
    else:
        res, slope = carry
        res -= old
        res_norm = float(np.abs(res).max())
    del carry
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if res_norm <= tol:
            break
        if it == 1 and held.lu is not None:
            delta = held.solve(-res)
            if np.isfinite(delta).all():
                step = delta if guard is None else guard(x[n : 2 * n], delta[n : 2 * n]) * delta
                trial = x + step
                trial_res, trial_norm, trial_slope = yield trial, old
                if trial_norm <= max(_FORCING * res_norm, tol):
                    x, res, res_norm, slope = trial, trial_res, trial_norm, trial_slope
                    continue
        delta = held.refactor(slope).solve(-res)
        if not np.isfinite(delta).all():
            raise NewtonDivergence(f"{where}, Newton iteration {it}: non-finite step")
        alpha = 1.0 if guard is None else guard(x[n : 2 * n], delta[n : 2 * n])
        if alpha < _MIN_STEP_FRACTION:
            raise DomainEscape(
                f"{where}, Newton iteration {it}: iterate pinned to the domain boundary"
            )
        for _ in range(_NEWTON_MAX_BACKTRACKS):
            trial = x + alpha * delta
            trial_res, trial_norm, trial_slope = yield trial, old
            if math.isfinite(trial_norm) and (trial_norm < res_norm or trial_norm <= tol):
                break
            alpha *= 0.5
        else:
            raise NewtonDivergence(
                f"{where}, Newton iteration {it}: damping stalled at residual "
                f"{res_norm:.3e} (tol {tol:.1e})"
            )
        x = trial
        res, res_norm, slope = trial_res, trial_norm, trial_slope
    if not res_norm <= tol:
        raise NewtonDivergence(
            f"{where}: no convergence after Newton iteration {_NEWTON_MAX_ITER} "
            f"(residual {res_norm:.3e}, tol {tol:.1e})"
        )
    # Owned copies: in lockstep res and slope are rows of the round's stacks.
    return x, (res + old, slope.copy())


def _march(source: np.ndarray, spec: ProblemSpec, x0: np.ndarray):
    """The march of one control over the whole horizon, as a coroutine that
    passes on the iterates of every _advance_step and returns the Trajectory.
    x0 stacks theta0, phi0 and the starting guess for mu. Each step hands its
    last evaluation to the next (the carry of _advance_step), so only step 1
    evaluates its old level x0."""
    grid, tgrid, pot = spec.grid, spec.tgrid, spec.potential
    n, nt, dt = grid.ncells, tgrid.steps, tgrid.dt
    guard = _domain_guard(pot) if pot.is_singular and pot.yosida_eps == 0 else None
    noise_floor = 16.0 * np.finfo(float).eps / pot.yosida_eps if pot.yosida_eps > 0 else 0.0
    theta, phi, mu = np.empty((nt + 1, n)), np.empty((nt + 1, n)), np.empty((nt, n))
    theta[0], phi[0] = x0[:n], x0[n : 2 * n]
    phase_mean = float(phi[0].sum()) / n
    held = StepLU(step_operator(grid, dt, spec.physics))
    x, carry = x0, None
    for k in range(nt):
        step = _advance_step(
            held,
            pot.dw_rest(phi[k]),
            x,
            dt * source[k],
            guard,
            noise_floor,
            carry,
            f"time step {k + 1} of {nt}",
        )
        carry = None  # the step owns it now and reuses its array
        x, carry = yield from step
        # Re-anchor the conserved mean; the shift is below Newton tolerance.
        x[n : 2 * n] += phase_mean - float(x[n : 2 * n].sum()) / n
        theta[k + 1], phi[k + 1], mu[k] = x[:n], x[n : 2 * n], x[2 * n :]
    return Trajectory(grid=grid, tgrid=tgrid, theta=theta, phi=phi, mu=mu)


def solve_states(controls: Sequence[np.ndarray], spec: ProblemSpec) -> list[Trajectory]:
    """March the state system under each source of `controls` over the whole
    horizon; trajectory i is bit for bit solve_state(controls[i], spec).

    spec is valid by construction; only the sources are checked here, all of
    them before any march; an empty batch returns [] before anything is
    built or evaluated. Raises ShapeMismatch / ConfigError for a wrongly
    shaped or non-finite source, NewtonDivergence / DomainEscape (naming
    time step and Newton iteration) when a step fails, as the failing
    control's own march would; of several, the first to fail (in 1D after the
    fewest Newton rounds, lowest index first; in 2D first in order).

    In 1D the marches go in lockstep: each round forms the residuals of all
    pending iterates at once, with one convex evaluation and one template
    product, while every Newton decision stays with its own control. Each
    Yosida row starts its resolvent from that control's previous evaluation
    (from the shared one at phi0 at first), so the state map stays a pure
    function of (u, spec). In 2D the marches run one after another.
    """
    grid, tgrid, pot = spec.grid, spec.tgrid, spec.potential
    n, nt = grid.ncells, tgrid.steps
    sources = []
    for u in controls:
        source = np.asarray(u, dtype=float)
        if source.shape != (nt, n):
            raise ShapeMismatch(f"source: shape {source.shape} != {(nt, n)}")
        if not np.all(np.isfinite(source)):
            raise ConfigError("source: non-finite entries")
        sources.append(source)
    if not sources:
        return []
    theta0, phi0 = spec.init.theta0, spec.init.phi0
    value, slope = pot.dw_and_d2w_convex_eff(phi0)
    mu_guess = (
        -(grid.laplacian @ phi0) + value + pot.dw_rest(phi0) - spec.physics.coupling * theta0
    )
    x0 = np.concatenate([theta0, phi0, mu_guess])
    marches = [_march(source, spec, x0) for source in sources]
    template = step_operator(grid, tgrid.dt, spec.physics).template["N"]
    first = (phi0, value, slope) if pot.yosida_eps > 0 else None
    if grid.dim == 1:
        return _lockstep(marches, template, pot, first)
    return [_lockstep([march], template, pot, first)[0] for march in marches]


def _lockstep(marches: list, template: sps.csr_matrix, pot: Potential, first) -> list:
    """Drive _march coroutines to their trajectories, one residual round at a
    time. first = (phi, value, slope) is the evaluation every Yosida row
    starts from, None in the exact mode, which carries nothing."""
    m, n = len(marches), template.shape[0] // 3
    carried = None if first is None else [np.tile(a, (m, 1)) for a in first]
    done = [None] * m
    pending = {i: march.send(None) for i, march in enumerate(marches)}
    while len(pending) > 1:
        rows = list(pending)
        xs = np.array([x for x, _ in pending.values()])
        # A C-contiguous stack: NumPy may take another ufunc loop on strided rows.
        phi = xs[:, n : 2 * n].copy()
        value, slope = pot.dw_and_d2w_convex_eff(
            phi, None if carried is None else [a[rows] for a in carried]
        )
        if carried is not None:
            for a, new in zip(carried, (phi, value, slope)):
                a[rows] = new
        res = (template @ xs.T).T - np.array([old for _, old in pending.values()])
        res[:, 2 * n :] -= value
        norms = np.abs(res).max(axis=1).tolist()
        for i, row, norm, row_slope in zip(rows, res, norms, slope):
            try:
                pending[i] = marches[i].send((row, norm, row_slope))
            except StopIteration as stop:
                done[i] = stop.value
                del pending[i]
    # The last march, or a batch of one, runs on alone with nothing to stack:
    # stacking and indexing the rows of a round of one only add to each
    # Newton round, and every state solve of the optimizer is a batch of one.
    for i, (x, old) in pending.items():
        previous = None if carried is None else [a[i] for a in carried]
        try:
            while True:
                phi = x[n : 2 * n]
                value, slope = pot.dw_and_d2w_convex_eff(phi, previous)
                if previous is not None:
                    previous = phi.copy(), value, slope  # _march shifts x in place
                res = template @ x - old
                res[2 * n :] -= value
                x, old = marches[i].send((res, float(np.abs(res).max()), slope))
        except StopIteration as stop:
            done[i] = stop.value
    return done


def solve_state(u: np.ndarray, spec: ProblemSpec) -> Trajectory:
    """March the state system with source u over the whole horizon: the
    batch of one of solve_states, whose errors it raises."""
    return solve_states([u], spec)[0]


def linear_sweep(
    state: Trajectory, spec: ProblemSpec, forcing: np.ndarray, trans: str
) -> np.ndarray:
    """The linearized step recursion along `state`, forward (trans "N", the
    tangent) or as its exact transpose backward (trans "T", the adjoint).

    With A_k the step operator linearized at the convex slope of level k+1
    and M_k the old-level map at the remainder slope of level k
    (StepOperator.old_level), step k (level k -> k+1, k = 0..Nt-1) solves

        A_k X_{k+1} = M_k X_k + f_k                        (X_0 = 0), or
        A_k^T Y_{k+1} = M_{k+1}^T Y_{k+2} + f_k            (Y_{Nt+1} = 0),

    where f_k is forcing[k] in the (theta, phi) rows and zero in the mu rows.
    Each level refactors the sweep's one StepLU at its slope and refines
    against the operator there (StepLU.refined), which must converge.

    In 1D a fresh band LU meets the refinement bound with no correction, so
    every level is first solved with its band LU alone, and the residuals of
    all levels are formed in one template product and checked against the
    bound StepLU.refined aims at. From the first level, in sweep order, that
    misses it or is not finite, the sweep goes on level by level as in 2D, so
    its results and errors are those of the level-by-level sweep.
    Returns forcing with row k overwritten by the (theta, phi) rows of X_{k+1}
    or Y_{k+1}: in place, as a second (steps, 2n) array raised the 2D peak
    memory. LinearSolveDivergence when a level's refinement stalls above its
    bound, as a non-finite level does.
    """
    nt, n, pot = state.tgrid.steps, state.grid.ncells, spec.potential
    tangent = trans == "N"
    held = StepLU(step_operator(state.grid, state.tgrid.dt, spec.physics))
    # The slopes of all levels, each from one call: entries are independent.
    convex, rest = pot.d2w_convex_eff(state.phi[1:]), pot.d2w_rest(state.phi)
    levels = range(nt) if tangent else range(nt - 1, -1, -1)
    x = np.zeros(3 * n)
    if held.stepop.band is not None:
        rhs, xs = np.empty((nt, 3 * n)), np.empty((nt, 3 * n))
        for k in levels:
            rhs[k] = held.stepop.old_level(x, rest[k if tangent else k + 1], trans)
            rhs[k, : 2 * n] += forcing[k]
            xs[k] = x = held.refactor(convex[k])._apply(rhs[k], trans)
        bound = 0.5 * _REFINE_TOL * np.linalg.norm(rhs, axis=1)
        # The residuals rhs_k - A_k x_k of all levels, in place.
        rhs -= (held.stepop.template[trans] @ xs.T).T
        if tangent:
            rhs[:, 2 * n :] += convex * xs[:, n : 2 * n]
        else:
            rhs[:, n : 2 * n] += convex * xs[:, 2 * n :]
        passed = np.linalg.norm(rhs, axis=1) <= bound
        checked = next((j for j, k in enumerate(levels) if not passed[k]), nt)
        for k in levels[:checked]:
            forcing[k] = xs[k, : 2 * n]
        x = xs[levels[checked - 1]] if checked else np.zeros(3 * n)
        levels = levels[checked:]
    for k in levels:
        rhs = held.stepop.old_level(x, rest[k if tangent else k + 1], trans)
        rhs[: 2 * n] += forcing[k]
        x, converged = held.refactor(convex[k]).refined(rhs, convex[k], trans)
        if not converged:
            sweep = "tangent" if tangent else "adjoint"
            raise LinearSolveDivergence(f"{sweep} sweep broke down at time step {k + 1} of {nt}")
        forcing[k] = x[: 2 * n]
    return forcing


def solve_tangent(h: np.ndarray, base: Trajectory, spec: ProblemSpec) -> TangentSolution:
    """Exact derivative of the discrete state map along direction h: the
    forward linear_sweep forced by dt * h. Initial conditions are zero and
    mean(dphi) stays zero."""
    n, nt = base.grid.ncells, base.tgrid.steps
    h = np.asarray(h, dtype=float)
    base.check(spec)
    if h.shape != (nt, n):
        raise ShapeMismatch(f"direction: shape {h.shape} != {(nt, n)}")
    forcing = np.zeros((nt, 2 * n))
    forcing[:, :n] = base.tgrid.dt * h
    rows = linear_sweep(base, spec, forcing, "N")
    dtheta, dphi = np.zeros((2, nt + 1, n))
    dtheta[1:], dphi[1:] = rows[:, :n], rows[:, n:]
    return TangentSolution(dtheta=dtheta, dphi=dphi)


def mixture_energy(grid: Grid, potential: Potential, phi: np.ndarray) -> float:
    """Free energy driving the decoupled flow: gradient term plus both
    potential parts, with the convex part evaluated in the mode that actually
    drives the dynamics (Moreau envelope when regularized)."""
    bulk = potential.w_convex_eff(phi) + potential.w_rest(phi)
    return 0.5 * grid.grad_sq(phi) + grid.integrate(bulk)
