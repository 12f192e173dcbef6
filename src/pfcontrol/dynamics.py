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
kept on the grid for as long as the grid lives. Each sweep holds one factor
(StepLU), and each kind of factor has one job:

- Direct factors refine. In 1D the factor is a LAPACK band LU of the whole
  operator in interleaved (theta_i, phi_i, mu_i) order, normwise backward
  stable; a 2D miss (below) is a SuperLU factor by splu. One step of
  refinement against the assembled operator makes an LU solve componentwise
  backward stable (Skeel, Math. Comp. 1980), and on fine 1D grids sweeps do
  accept such corrections.
- The 2D mode blocks iterate and check once. The grid's DCT diagonalizes
  the Laplacian, so at the mean slope the operator is one 3x3 block per
  mode, which a solve eliminates in closed form. The operator at the true
  slope differs from it in one diagonal block, so a 2D solve iterates on
  DCT coefficients with that factor, each step judged by its
  exact-arithmetic residual in that block (StepLU._split, a
  constant-coefficient preconditioning after Concus & Golub, SIAM J. Numer.
  Anal. 1973). Newton's solves stop there at _FORCING times their
  right-hand side (inexact Newton); the linearized sweeps' aim at
  _REFINE_TOL and check that bound once against the assembled operator.
  Only where the iterate misses its bound, on slopes far from their mean,
  is the operator at the true slope factorized, once, by splu, which goes
  on as a direct factor.

A Newton step of _march first tries the chord step of the factor carried
from the previous step, and starts from the residual and slope of that
step's last iterate, so only step 1 evaluates its old level. A direct
factor's Newton solve is its solve alone: Newton judges the step by its
nonlinear residual. In 1D a fresh band LU needs no refinement: a linearized
sweep solves every level with its band LU alone, checks the residuals of
all levels in one template product, and refines level by level only from
the first level that misses the bound.

solve_states marches several controls of one spec together. Each control's
march (_march) is one coroutine over its steps' Newton solves: it yields
every iterate and is sent back its residual. In 1D all pending iterates
share one round: one convex evaluation and one template product for all of
them, while every Newton decision stays with its own control, so each
trajectory is bit for bit the control's solo march. solve_state is the batch of one, the one the
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
#: _march), iteration budget and halvings of a damped step.
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
        return self.grid.mean(self.phi)

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
            raise ShapeMismatch(f"trajectory shapes {self.theta.shape}, {self.phi.shape} != {want}")


@dataclasses.dataclass(frozen=True)
class TangentSolution:
    """Directional state derivative along a control direction, level-indexed
    0..Nt like the trajectory's theta and phi."""

    dtheta: np.ndarray
    dphi: np.ndarray


def step_matrix(
    grid: Grid, dt: float, physics: PhysicsParams, dconvex: np.ndarray
) -> sps.csr_matrix:
    """Implicit block operator of one step, linearized at the given convex
    slope, as a CSR matrix.

    Blocks act on the stacked new-level unknowns (theta, phi, mu). The same
    matrix is the per-step tangent operator, and its transpose drives the
    adjoint sweep.
    """
    n, lap = grid.ncells, grid.laplacian
    eye, zero = sps.identity(n, format="csr"), sps.csr_matrix((n, n))
    a32 = lap - sps.diags(physics.visc / dt + np.asarray(dconvex, dtype=float))
    rows = [
        [eye - dt * lap, physics.latent * eye, zero],
        [zero, eye, -dt * lap],
        [physics.coupling * eye, a32, eye],
    ]
    return sps.vstack([sps.hstack(row, format="csr") for row in rows], format="csr")


def _act(matrices: dict, slope, x: np.ndarray, trans: str) -> np.ndarray:
    """(M + D) x, or its transpose, for M a StepOperator template (keyed by
    trans), where D holds diag(slope) in the (mu, phi) block of a stacked
    (theta, phi, mu) operator. x is one stacked vector, or a stack of them
    as rows with one row of slope each."""
    n = x.shape[-1] // 3
    out = (matrices[trans] @ x.T).T
    if trans == "N":
        out[..., 2 * n :] += slope * x[..., n : 2 * n]
    else:
        out[..., n : 2 * n] += slope * x[..., 2 * n :]
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
    band storage with kl and ku read off that pattern.

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
        self.template, self.band = {"N": template, "T": template.T}, None
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
    convex slope `slope`. Solves act on stacked (theta, phi, mu) vectors;
    trans="T" solves with the transpose. lu holds a direct factor, the 1D
    band LU (lu, piv) or the splu of a 2D miss, or in 2D the mode blocks
    as an array: g and the pivot den of each DCT mode at the mean slope
    (StepOperator).
    """

    def __init__(self, stepop: StepOperator):
        self.stepop, self.lu, self.slope = stepop, None, None

    def refactor(self, dconvex: np.ndarray) -> "StepLU":
        """Drop the held factor, then factorize at the convex slope dconvex
        (LinearSolveDivergence when the operator is exactly singular)."""
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

    def _modes(self, coef: np.ndarray, trans: str) -> np.ndarray:
        """The mode blocks' solve on the DCT coefficients (3, n) of a stacked
        right-hand side, by the elimination of StepOperator."""
        (g, den), op, (r1, r2, r3) = self.lu, self.stepop, coef
        if trans == "N":
            t = r3 - op.coupling_a * r1
            phi = (r2 - op.b * t) / den
            return np.array(((r1 - op.physics.latent * phi) / op.a, phi, (t + g * r2) / den))
        t = r2 - op.latent_a * r1
        mu = (r3 - op.b * t) / den
        return np.array(((r1 - op.physics.coupling * mu) / op.a, (t + g * r3) / den, mu))

    def _apply(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        """The solve with the held direct factor alone: the 1D band LU, or the
        splu of a 2D miss (refined)."""
        lu, op = self.lu, self.stepop
        if op.band is not None:
            return dgbtrs(lu[0], op.kl, op.ku, rhs[op.order], lu[1], int(trans == "T"))[0][op.at]
        return lu.solve(rhs, trans=trans)

    def _split(self, rhs: np.ndarray, trans: str, bound: float):
        """(x, r): the splitting iteration A_mean x' = rhs + shift f of the
        mode blocks from x = 0, on DCT coefficients, with f the phase (trans
        "N") or chemical potential ("T") of x and shift = slope - its mean.
        The operator at the true slope is A_mean - diag(shift) in that one
        block, so r = ||shift (f' - f)|| is the residual of x' with it in
        exact arithmetic. It stops once r <= bound / 2, or on a step that
        fails to halve r, returning the iterate before it."""
        grid, shift = self.stepop.grid, self.slope - self.slope.mean()
        row, col = (2, 1) if trans == "N" else (1, 2)
        coef = grid.dct(rhs.reshape(3, -1))
        x = grid.dct(self._modes(coef, trans), True)
        lifted = shift * x[col]
        res_norm = np.linalg.norm(lifted)
        while not res_norm <= 0.5 * bound:
            step = coef.copy()
            step[row] += grid.dct(lifted)
            trial = grid.dct(self._modes(step, trans), True)
            trial_lifted = shift * trial[col]
            last, res_norm = res_norm, np.linalg.norm(trial_lifted - lifted)
            if not res_norm <= 0.5 * last:
                return x.ravel(), last
            x, lifted = trial, trial_lifted
        return x.ravel(), res_norm

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """The solve with the operator at the factor's own slope: a direct
        factor's alone (Newton judges the step by its nonlinear residual); with
        the 2D mode blocks (a Newton step's solve), _split to _FORCING times the
        2-norm of rhs, judged by its own residual, and where it stalls above
        that, refined to _FORCING from its last iterate."""
        if not isinstance(self.lu, np.ndarray):
            return self._apply(rhs, trans)
        bound = _FORCING * np.linalg.norm(rhs)
        x, res_norm = self._split(rhs, trans, bound)
        if res_norm <= bound:
            return x
        return self.refined(rhs, trans, _FORCING, x)[0]

    def refined(self, rhs: np.ndarray, trans: str = "N", rtol: float = _REFINE_TOL, x0=None):
        """(x, converged) with the operator at the factor's own slope, its
        residual 2-norm against the assembled operator at most rtol times
        that of rhs. The 2D mode blocks check x0, else the x of _split, once
        against that bound; a miss factorizes the operator at the true slope
        by splu, which then goes on as the held direct factor. A direct
        factor solves rhs and refines: corrections through the assembled
        residual aim at half the bound, so that the rounding of another
        evaluation of the residual cannot carry a converged x past it; they
        stop at the bound itself only where the next correction fails to
        halve, and return the iterate before it."""
        template, slope, bound = self.stepop.template, self.slope, rtol * np.linalg.norm(rhs)
        if isinstance(self.lu, np.ndarray):
            x = self._split(rhs, trans, bound)[0] if x0 is None else x0
            if np.linalg.norm(rhs - _act(template, -slope, x, trans)) <= bound:
                return x, True
            op = self.stepop
            try:
                self.lu = splu(step_matrix(op.grid, op.dt, op.physics, slope).tocsc())
            except RuntimeError as exc:
                raise LinearSolveDivergence(f"fallback LU of the step operator: {exc}") from exc
        x = self._apply(rhs, trans)
        res = rhs - _act(template, -slope, x, trans)
        res_norm = np.linalg.norm(res)
        while not res_norm <= 0.5 * bound:
            trial = x + self._apply(res, trans)
            res = rhs - _act(template, -slope, trial, trans)
            last, res_norm = res_norm, np.linalg.norm(res)
            if not res_norm <= 0.5 * last:
                return x, last <= bound
            x = trial
        return x, True


def step_operator(grid: Grid, dt: float, physics: PhysicsParams) -> StepOperator:
    """The StepOperator of (grid, dt, physics), built on first use."""
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
        # Rounding can still put the step on an endpoint: halve it until not,
        # unless phi itself is not strictly inside, where no step is.
        while not potential.contains(phi + alpha * dphi).all():
            if not potential.contains(phi).all():
                return 0.0
            alpha *= 0.5
        return alpha

    return guard


def _march(source: np.ndarray, spec: ProblemSpec, x0: np.ndarray):
    """The march of one control over the whole horizon, one damped-Newton
    solve of the coupled step equations per step, as a coroutine that returns
    the Trajectory. x0 stacks theta0, phi0 and the starting guess for mu.

    Step k starts from x_n, the old level (theta_n, phi_n) with the last mu
    as the guess. Its residual is template @ x - old - (0, 0, B(phi)), with
    the old-level terms old = c(x_n) plus the source and remainder terms
    formed once. The coroutine yields each iterate x with `old` and is sent back
    (res, res_norm, slope): the residual, its max norm and the convex slope at
    phi. Step 1 yields x0 first; every later step starts from acted - old,
    with acted = template @ x_n - (0, 0, B(phi_n)) and the slope kept from the
    previous step's last iterate, evaluated before the phase mean was
    re-anchored, a shift below the Newton tolerance.

    The tolerance scales with the size of the old level and of the source
    increment. The potential's noise_floor lifts it to the evaluation noise of
    the nonlinear terms (the Yosida values carry the resolvent root error
    amplified by 1/eps), below which the residual cannot be driven reliably.
    guard(phi, dphi) caps the step length on a singular domain, None takes
    full steps.

    A Newton step factorizes the operator linearized with the slope of its
    iterate's residual, so the phase field of an iterate is never evaluated
    twice. Iteration 1 first tries the chord step of the factor in `held`,
    carried from the previous step, kept if it cuts the residual by _FORCING,
    as much as a 2D Newton step's solve must.
    """
    grid, tgrid, pot = spec.grid, spec.tgrid, spec.potential
    n, nt, dt = grid.ncells, tgrid.steps, tgrid.dt
    guard = _domain_guard(pot) if pot.is_singular and pot.yosida_eps == 0 else None
    theta, phi, mu = np.empty((nt + 1, n)), np.empty((nt + 1, n)), np.empty((nt, n))
    theta[0], phi[0] = x0[:n], x0[n : 2 * n]
    phase_mean = float(phi[0].sum()) / n
    held = StepLU(step_operator(grid, dt, spec.physics))
    x = x0.copy()
    for k in range(nt):
        where, source_step = f"time step {k + 1} of {nt}", dt * source[k]
        old = held.stepop.old_level(x, 0.0)
        old[:n] += source_step
        old[2 * n :] += pot.dw_rest(phi[k])
        scale = 1.0 + max(float(np.abs(x[: 2 * n]).max()), float(np.abs(source_step).max()))
        tol = max(_NEWTON_TOL, pot.noise_floor) * scale
        if k == 0:
            res, res_norm, slope = yield x, old
        else:
            res = acted - old
            res_norm = float(np.abs(res).max())
        for it in range(1, _NEWTON_MAX_ITER + 1):
            if res_norm <= tol:
                break
            if it == 1 and held.lu is not None:
                delta = held.solve(-res)
                if np.isfinite(delta).all():
                    alpha = 1.0 if guard is None else guard(x[n : 2 * n], delta[n : 2 * n])
                    # A chord step the guard pins is skipped: the refactor path names it.
                    if alpha >= _MIN_STEP_FRACTION:
                        trial = x + (delta if guard is None else alpha * delta)
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
        acted, slope = res + old, slope.copy()
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
    Each level refactors the sweep's one StepLU at its slope and solves to
    _REFINE_TOL against the operator there (StepLU.refined), which must
    converge.

    The 1D check of all levels at once (module docstring) holds each level to
    the bound StepLU.refined aims at. From the first level, in sweep order,
    that misses it or is not finite, the sweep goes on level by level, so its
    results and errors are those of the level-by-level sweep.
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
            xs[k] = x = held.refactor(convex[k]).solve(rhs[k], trans)
        bound = 0.5 * _REFINE_TOL * np.linalg.norm(rhs, axis=1)
        rhs -= _act(held.stepop.template, -convex, xs, trans)
        passed = np.linalg.norm(rhs, axis=1) <= bound
        checked = next((j for j, k in enumerate(levels) if not passed[k]), nt)
        for k in levels[:checked]:
            forcing[k] = xs[k, : 2 * n]
        x = xs[levels[checked - 1]] if checked else np.zeros(3 * n)
        levels = levels[checked:]
    for k in levels:
        rhs = held.stepop.old_level(x, rest[k if tangent else k + 1], trans)
        rhs[: 2 * n] += forcing[k]
        x, converged = held.refactor(convex[k]).refined(rhs, trans)
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


def mixture_energy(grid: Grid, potential: Potential, phi: np.ndarray) -> np.ndarray:
    """Free energy driving the decoupled flow: gradient term plus both
    potential parts, with the convex part evaluated in the mode that actually
    drives the dynamics (Moreau envelope when regularized). Of one field, or
    of every row of a stack (m, ncells), such as a trajectory's levels, with
    one resolvent solve for the whole stack when regularized."""
    bulk = potential.w_convex_eff(phi) + potential.w_rest(phi)
    return 0.5 * grid.grad_sq(phi) + grid.integrate(bulk)
