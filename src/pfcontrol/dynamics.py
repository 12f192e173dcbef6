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
operator. Only its (mu, phi) diagonal depends on the linearization point and
its sparsity pattern never changes, so each (grid, dt, physics) has one
StepOperator (step_operator), built once and kept on the grid for as long as
the grid lives. In 1D its LU is a LAPACK band LU of the whole operator in
interleaved (theta_i, phi_i, mu_i) order, normwise backward stable. In 2D mu
is eliminated: every factorization writes the slope into the (theta, phi)
Schur complement, stored in its symmetric fill-reducing order, and factorizes
that; solves recover mu by back-substitution. Each sweep holds one LU (StepLU),
dropped before its replacement is factorized; where a factorization costs many
solves (2D), Newton keeps it across iterations and the sweeps refine against it.

solve_states marches several controls of one spec together. Each control's
march is one coroutine over its steps' Newton solves: it yields every iterate
and is sent back its residual. In 1D all pending iterates share one round:
one convex evaluation and one template product for all of them, while every
Newton decision stays with its own control, so each trajectory is bit for
bit the control's solo march. solve_state is the batch of one. The FD
oracle, the probes and the optimizer's starts (control.optimize, one state
solve of each of two marching starts per batch) all march this way. In 2D the
marches run one after another, so only one Schur LU is alive at a time. The
linearized sweeps evaluate the slopes of all their levels in one call each.
"""

from __future__ import annotations

import dataclasses
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
#: LU entries per unknown (StepLU.fill) from which sweeps refine against, and
#: Newton reuses, a held LU: 1D band LUs hold at most 13, 2D Schur LUs 28 to 105.
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


#: Pivot threshold of every 2D step-operator factorization. SuperLU keeps a
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
    """The step operator of one (grid, dt, physics), stored for its LUs.

    `template` holds step_matrix at slope 0 and its transpose (a view), keyed
    by the trans flag "N" or "T"; the Newton residual and the refinement steps
    act through it. `old_level` applies the old-level blocks from latent and
    visc/dt alone. In 1D, `band` holds the template in interleaved (theta_i,
    phi_i, mu_i) order, where stacked unknown order[j] sits at j, in LAPACK
    band storage with kl and ku read off that pattern; a StepLU writes the
    slope into the (mu_i, phi_i) slots of a copy and factorizes it.

    In 2D mu is eliminated. A = step_matrix(grid, dt, physics, slope) =
    [[K, G], [H, I]] in the unknowns ((theta, phi), mu), where only H = H0 -
    (0, diag(slope)) depends on the linearization point. A x = b is S z =
    b_top - G b_mu with the Schur complement S = K - G H = [[I - dt L, latent
    I], [dt coupling L, I + dt L a32]], a32 = L - diag(visc/dt + slope), and
    mu = b_mu - H z; A^T y = d is S^T z = d_top - H^T d_mu with y_mu = d_mu -
    G^T z. The slope enters S only as G[:, j] * slope_j in the phi columns, on
    the pattern of L. The stored `matrix` is S[order][:, order], permuted by a
    minimum-degree ordering of S + S^T taken once here (LinearSolveDivergence
    when exactly singular); a StepLU writes the slope into its slots in place
    and factorizes it with the natural ordering.
    """

    def __init__(self, grid: Grid, dt: float, physics: PhysicsParams):
        n = grid.ncells
        template = step_matrix(grid, dt, physics, np.zeros(n))
        self.template, self.band = _both(template), None
        self._latent, self._damping = physics.latent, -(physics.visc / dt)
        if grid.dim == 1:
            # Stacked unknown c * n + i (c = theta, phi, mu) sits at 3 * i + c.
            self.order = np.arange(3 * n).reshape(3, n).T.ravel()
            at, coo = np.argsort(self.order), template.tocoo()
            rows, cols = at[coo.row], at[coo.col]
            self.kl, self.ku = int(np.max(rows - cols)), int(np.max(cols - rows))
            self.band = np.zeros((2 * self.kl + self.ku + 1, 3 * n), order="F")
            self.band[self.kl + self.ku + rows - cols, cols] = coo.data
            return
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
        self._g, self._h = _both(g), _both(h)

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
    """The one LU of a StepOperator that a sweep holds, with `fill` stored
    entries per unknown: forward Newton carries it from step to step, and the
    sweeps solve each level with it (solve_at). Solves act on stacked
    (theta, phi, mu) vectors; trans="T" solves with the transpose."""

    def __init__(self, stepop: StepOperator):
        self.stepop, self.lu, self.slope = stepop, None, None

    def refactor(self, dconvex: np.ndarray) -> "StepLU":
        """Drop the held LU, then factorize at the convex slope dconvex
        (LinearSolveDivergence when the operator is exactly singular)."""
        self.lu, self.slope, op = None, np.asarray(dconvex, dtype=float), self.stepop
        if op.band is not None:
            band = op.band.copy(order="F")
            band[op.kl + op.ku + 1, 1::3] -= self.slope  # (mu_i, phi_i) at (3i + 2, 3i + 1)
            lu, piv, info = dgbtrf(band, op.kl, op.ku, overwrite_ab=1)
            assert info >= 0, f"dgbtrf argument {-info} is invalid"
            if info > 0:
                raise LinearSolveDivergence(f"step operator is exactly singular (pivot {info})")
            self.lu, self.fill = (lu, piv), len(band)
            return self
        op.matrix.data[op._slots] = op._slot_base + op._slot_gain * self.slope[op._slot_slope]
        self.lu = _factorize(op.matrix, permc_spec="NATURAL")
        self.fill = self.lu.nnz / self.lu.shape[0]
        return self

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """The solve with the operator at the LU's own slope: the banded one
        in 1D, the mu-eliminated one in 2D."""
        lu, slope, op, n = self.lu, self.slope, self.stepop, len(self.slope)
        x = np.empty(3 * n)
        if op.band is not None:
            x[op.order] = dgbtrs(lu[0], op.kl, op.ku, rhs[op.order], lu[1], int(trans == "T"))[0]
            return x
        b_top, b_mu, order, g, h = rhs[: 2 * n], rhs[2 * n :], op.order, op._g, op._h
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
        """Refine with a held LU of _CHORD_MIN_FILL entries per unknown or more
        (2D) until it stalls; then, or at once for a sparser LU (1D), refine a
        fresh LU at `slope`, whose last iterate sweeps check for finiteness."""
        if self.lu is not None and self.fill >= _CHORD_MIN_FILL:
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
        room = np.where(dphi < 0, phi - lo, hi - phi)  # a zero move has ratio inf
        with np.errstate(divide="ignore"):
            alpha = min(1.0, float(np.min(_BOUNDARY_FRACTION * room / np.abs(dphi))))
        # Rounding can still put the step on an endpoint: halve it until not.
        while not np.all(potential.contains(phi + alpha * dphi)):
            alpha *= 0.5
        return alpha

    return guard


def _unguarded(phi: np.ndarray, dphi: np.ndarray) -> float:
    return 1.0


def _advance_step(
    held: StepLU,
    explicit: np.ndarray,
    x_n: np.ndarray,
    source_step: np.ndarray,
    guard: Callable[[np.ndarray, np.ndarray], float],
    noise_floor: float,
    where: str,
):
    """One damped-Newton solve of the coupled step equations at step `where`,
    as a coroutine that returns the new level.

    x_n stacks the old level (theta_n, phi_n) and the starting guess for mu;
    source_step is dt times the source at the new level. The residual is
    template @ x - old - (0, 0, B(phi)), with the old-level terms old = c(x_n)
    formed once. The coroutine yields each iterate x with `old` and is sent
    back (res, res_norm, slope): the residual, its max norm and the convex
    slope at phi. solve_states forms them, for many controls at once.

    The tolerance scales with the size of the old level and of the source
    increment. noise_floor lifts it to the evaluation noise of the nonlinear
    terms (the Yosida values carry the resolvent root error amplified by
    1/eps), below which the residual cannot be driven reliably.

    The residual of each iterate keeps its slope, and a Newton step
    factorizes the operator linearized with it, so the phase field of an
    iterate is never evaluated twice. Iteration 1, and on LUs of
    _CHORD_MIN_FILL entries per unknown every iteration after a 10x cut of
    the residual, first tries the chord step of the LU in `held`, kept if it
    cuts the residual 10x.
    """
    n = len(explicit)
    old = held.stepop.old_level(x_n, 0.0)
    old[:n] += source_step
    old[2 * n :] += explicit
    x = x_n.copy()
    scale = 1.0 + max(float(np.max(np.abs(x_n[: 2 * n]))), float(np.max(np.abs(source_step))))
    tol = max(_NEWTON_TOL, noise_floor) * scale
    res, res_norm, slope = yield x, old
    contracted = True
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if res_norm <= tol:
            return x
        if held.lu is not None and (it == 1 or contracted and held.fill >= _CHORD_MIN_FILL):
            delta = held.solve(-res)
            if np.all(np.isfinite(delta)):
                trial = x + guard(x[n : 2 * n], delta[n : 2 * n]) * delta
                trial_res, trial_norm, trial_slope = yield trial, old
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
            trial_res, trial_norm, trial_slope = yield trial, old
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


def _march(source: np.ndarray, spec: ProblemSpec, x0: np.ndarray):
    """The march of one control over the whole horizon, as a coroutine that
    passes on the iterates of every _advance_step and returns the Trajectory.
    x0 stacks theta0, phi0 and the starting guess for mu."""
    grid, tgrid, pot = spec.grid, spec.tgrid, spec.potential
    n, nt, dt = grid.ncells, tgrid.steps, tgrid.dt
    guard = _domain_guard(pot) if pot.is_singular and pot.yosida_eps == 0 else _unguarded
    noise_floor = 16.0 * np.finfo(float).eps / pot.yosida_eps if pot.yosida_eps > 0 else 0.0
    theta, phi, mu = np.empty((nt + 1, n)), np.empty((nt + 1, n)), np.empty((nt, n))
    theta[0], phi[0] = x0[:n], x0[n : 2 * n]
    phase_mean = float(np.sum(phi[0])) / n
    held = StepLU(step_operator(grid, dt, spec.physics))
    x = x0
    for k in range(nt):
        x = yield from _advance_step(
            held,
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
    function of (u, spec). In 2D, where a step LU holds megabytes, the
    marches run one after another, so only one LU is ever alive.
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
        xs = np.array([pending[i][0] for i in rows])
        # A C-contiguous stack: NumPy may take another ufunc loop on strided rows.
        phi = xs[:, n : 2 * n].copy()
        value, slope = pot.dw_and_d2w_convex_eff(
            phi, None if carried is None else [a[rows] for a in carried]
        )
        if carried is not None:
            for a, new in zip(carried, (phi, value, slope)):
                a[rows] = new
        res = (template @ xs.T).T - np.array([pending[i][1] for i in rows])
        res[:, 2 * n :] -= value
        norms = np.max(np.abs(res), axis=1)
        for j, i in enumerate(rows):
            try:
                pending[i] = marches[i].send((res[j], float(norms[j]), slope[j]))
            except StopIteration as stop:
                done[i] = stop.value
                del pending[i]
    # The last march, or a batch of one, runs on alone with nothing to stack:
    # the stacked round costs a solo march about 4 us more per Newton round
    # (2.10 -> 2.28 ms per quartic 1D desk solve), and an optimizer round is
    # a batch of one once a single run is left.
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
                x, old = marches[i].send((res, float(np.max(np.abs(res))), slope))
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
    Each level is solved with the sweep's one StepLU (StepLU.solve_at).
    Returns forcing with row k overwritten by the (theta, phi) rows of X_{k+1}
    or Y_{k+1}: in place, as a second (steps, 2n) array raised the 2D peak
    memory. LinearSolveDivergence when a level is not finite.
    """
    nt, n, pot = state.tgrid.steps, state.grid.ncells, spec.potential
    tangent = trans == "N"
    held = StepLU(step_operator(state.grid, state.tgrid.dt, spec.physics))
    # The slopes of all levels, each from one call: entries are independent.
    convex, rest = pot.d2w_convex_eff(state.phi[1:]), pot.d2w_rest(state.phi)
    x = np.zeros(3 * n)
    for k in range(nt) if tangent else range(nt - 1, -1, -1):
        rhs = held.stepop.old_level(x, rest[k if tangent else k + 1], trans)
        rhs[: 2 * n] += forcing[k]
        x = held.solve_at(rhs, convex[k], trans)
        if not np.all(np.isfinite(x)):
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
