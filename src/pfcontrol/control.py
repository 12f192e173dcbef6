"""Reduced-gradient machinery and the projected L-BFGS optimizer.

Controls are time-indexed fields of shape (steps, ncells) paired in the
discrete L2 norm over the space-time cylinder (dt * cell-measure weights).
The reduced gradient is the adjoint multiplier of the balance equation at the
running levels, so the first-order optimality condition is the usual
variational inequality over the admissible box, and at a converged optimum
the control is bang-bang wherever the gradient has a definite sign.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional, Sequence

import numpy as np

from .adjoint import cost_value, solve_adjoint
from .dynamics import Trajectory, solve_state, solve_states
from .errors import ShapeMismatch, ValidationError
from .problem import ControlBox, ProblemSpec

__all__ = [
    "OptimizeOptions",
    "OptimizeReport",
    "BangBangReport",
    "reduced_gradient",
    "project_box",
    "stationarity_residual",
    "optimize",
    "bang_bang_classify",
    "random_admissible_control",
    "lq_inner",
    "lq_norm",
]


def lq_inner(a: np.ndarray, b: np.ndarray, spec: ProblemSpec) -> float:
    """Discrete L2(Q) inner product of two time-indexed fields."""
    return float(np.sum(a * b)) * spec.tgrid.dt * spec.grid.cell_measure


def lq_norm(a: np.ndarray, spec: ProblemSpec) -> float:
    return float(np.sqrt(max(lq_inner(a, a, spec), 0.0)))


def project_box(u: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Nodewise clamp onto spec.box, which the spec checked when it was built."""
    return np.clip(np.asarray(u, dtype=float), spec.box.lower, spec.box.upper)


def reduced_gradient(u: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Gradient of the reduced cost in the L2(Q) pairing (adjoint q at the
    running levels)."""
    return solve_adjoint(solve_state(u, spec), spec)


def stationarity_residual(u: np.ndarray, grad: np.ndarray, spec: ProblemSpec) -> float:
    """||u - P(u - grad)|| in the discrete L2(Q) norm over spec.box; zero iff
    u is stationary."""
    u = np.asarray(u, dtype=float)
    return lq_norm(u - project_box(u - grad, spec), spec)


@dataclasses.dataclass(frozen=True)
class BangBangReport:
    """Sign partition of the gradient and face agreement of the control."""

    tol: float
    frac_lower_consistent: float
    frac_upper_consistent: float
    frac_at_lower: float
    frac_at_upper: float
    frac_interior: float
    n_positive: int
    n_negative: int
    n_neutral: int


def bang_bang_classify(
    u: np.ndarray, q: np.ndarray, box: ControlBox, tol: float | None = None
) -> BangBangReport:
    """Partition nodes by the sign of q (against tol) and report the fraction
    of decisively-signed nodes where u sits on the matching box face.

    Default tol is 1e-8 * ||q||_inf. Both fractions are 1.0 at a converged
    optimum when tol dominates the pointwise stationarity residual.
    """
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    if u.shape != q.shape:
        raise ShapeMismatch(f"control {u.shape} and gradient {q.shape} differ")
    if tol is None:
        tol = 1.0e-8 * float(np.max(np.abs(q))) if q.size else 0.0
    lo, hi = box.bounds(u.shape)
    positive = q > tol
    negative = q < -tol
    at_lower = np.abs(u - lo) <= tol
    at_upper = np.abs(u - hi) <= tol
    n_pos = int(np.count_nonzero(positive))
    n_neg = int(np.count_nonzero(negative))
    frac_lower = float(np.mean(at_lower[positive])) if n_pos else 1.0
    frac_upper = float(np.mean(at_upper[negative])) if n_neg else 1.0
    return BangBangReport(
        tol=float(tol),
        frac_lower_consistent=frac_lower,
        frac_upper_consistent=frac_upper,
        frac_at_lower=float(np.mean(at_lower)),
        frac_at_upper=float(np.mean(at_upper)),
        frac_interior=float(np.mean(~(at_lower | at_upper))),
        n_positive=n_pos,
        n_negative=n_neg,
        n_neutral=int(u.size - n_pos - n_neg),
    )


def random_admissible_control(spec: ProblemSpec, seed: int | np.random.Generator) -> np.ndarray:
    """Seeded random control: nodewise uniform in the box, then one implicit
    smoothing step per level to suppress grid-frequency noise, then clamped."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo, hi = spec.box.bounds((spec.tgrid.steps, spec.grid.ncells))
    return np.clip(spec.grid.smooth_levels(rng.uniform(lo, hi)), lo, hi)


@dataclasses.dataclass(frozen=True)
class OptimizeOptions:
    """Optimizer settings.

    stat_tol: stop once the L2(Q) stationarity residual is at most this.
    max_iter: iteration cap; reaching it terminates with "max_iterations".
    starts: seeds of extra random admissible starting controls; the run with
    the lowest final cost is reported. The runs march two at a time (see
    optimize).
    """

    stat_tol: float = 1.0e-6
    max_iter: int = 500
    starts: Sequence[int] = ()


@dataclasses.dataclass(frozen=True)
class OptimizeReport:
    """j_history and residual_history hold one entry per iterate, the start
    included; evaluations_history[k] is the number of state solves (line-search
    trials) that accepting iterate k + 1 cost. The trials of a line search
    that ends in "line_search_stalled" are in none of them."""

    u_opt: np.ndarray
    j_history: list[float]
    residual_history: list[float]
    evaluations_history: list[int]
    iterations: int
    termination: str
    bang_bang: BangBangReport
    start_seed: Optional[int] = None

    @property
    def j_final(self) -> float:
        return self.j_history[-1]

    @property
    def residual_final(self) -> float:
        return self.residual_history[-1]


#: L-BFGS memory, Armijo constant, halvings per line search, active-margin cap,
#: and the least relative curvature s.y / y.y of a pair the recursion uses.
_MEMORY, _SIGMA, _MAX_BACKTRACKS, _EPS_MAX = 10, 1.0e-4, 60, 1.0e-3
_CURVATURE = np.finfo(float).eps
#: Runs of optimize that march together. Each keeps its _MEMORY L-BFGS pairs
#: alive: on the 1D benchmark problem (32 cells, 16 steps, four starts) all
#: four together cut 62 batches to 17 but raised the peak RSS by about 0.2 MB;
#: two cut them to 33 within 0.1 MB.
_MARCHING_RUNS = 2


def _lbfgs_direction(
    grad: np.ndarray, pairs: list, free: np.ndarray, spec: ProblemSpec
) -> np.ndarray:
    """-H grad on the free nodes, zero elsewhere, by the two-loop recursion: H
    is the L-BFGS inverse-Hessian estimate, in the L2(Q) inner product, of the
    stored (s, y) pairs restricted to the free nodes. Pairs without positive
    curvature there are skipped."""
    pairs = [(s * free, y * free) for s, y in pairs]
    pairs = [(s, y) for s, y in pairs if lq_inner(s, y, spec) > _CURVATURE * lq_inner(y, y, spec)]
    q, alphas = grad * free, []
    for s, y in reversed(pairs):
        alphas.append(lq_inner(s, q, spec) / lq_inner(s, y, spec))
        q -= alphas[-1] * y
    if pairs:
        q *= lq_inner(*pairs[-1], spec) / lq_inner(pairs[-1][1], pairs[-1][1], spec)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - lq_inner(y, q, spec) / lq_inner(s, y, spec)) * s
    return -q


def _optimize_single(
    spec: ProblemSpec, u0: np.ndarray, opts: OptimizeOptions, start_seed: Optional[int]
) -> Generator[np.ndarray, Trajectory, OptimizeReport]:
    """Two-metric projected L-BFGS (Bertsekas, SIAM J. Control Optim. 1982), in
    NumPy because importing scipy.optimize costs start-up time and memory. Nodes
    within eps = min(_EPS_MAX, res / sqrt(dt * h)) of a box face that the
    gradient pushes against take a steepest-descent step, the others an L-BFGS
    step; the Armijo search halves the step from 1 along the projection arc.

    A coroutine: it yields each control whose state it needs (the start, then
    each line-search trial), is sent back that control's Trajectory, and
    returns its OptimizeReport. _march_runs solves the states. While it waits
    for one it holds no trajectory and no array its next step does not read."""
    u = project_box(u0, spec)
    lo, hi = np.asarray(spec.box.lower), np.asarray(spec.box.upper)
    state = yield u
    j, grad = cost_value(state, spec.cost), solve_adjoint(state, spec)
    del state
    j_hist, res_hist, evals, pairs = [j], [], [], []
    termination = "max_iterations"
    for it in range(opts.max_iter + 1):
        res = stationarity_residual(u, grad, spec)
        res_hist.append(res)
        if res <= opts.stat_tol:
            termination = "stationary"
            break
        if it == opts.max_iter:
            break
        eps = min(_EPS_MAX, res / np.sqrt(spec.tgrid.dt * spec.grid.cell_measure))
        active = ((u <= lo + eps) & (grad > 0)) | ((u >= hi - eps) & (grad < 0))
        d_free = _lbfgs_direction(grad, pairs, ~active, spec)
        if lq_inner(grad, d_free, spec) >= 0.0:
            pairs.clear()
            d_free = -grad * ~active
        slope_free = lq_inner(grad, d_free, spec)
        d = np.where(active, -grad, d_free)
        del d_free
        for trials in range(1, _MAX_BACKTRACKS + 1):
            alpha = 0.5 ** (trials - 1)
            trial = project_box(u + alpha * d, spec)
            predicted = alpha * slope_free + lq_inner(grad * active, trial - u, spec)
            trial_state = yield trial
            trial_j = cost_value(trial_state, spec.cost)
            if trial_j <= j + _SIGMA * predicted:
                break
            del trial_state
        else:
            termination = "line_search_stalled"
            break
        new_grad = solve_adjoint(trial_state, spec)
        del trial_state
        pairs = pairs[1 - _MEMORY :] + [(trial - u, new_grad - grad)]
        u, j, grad = trial, trial_j, new_grad
        j_hist.append(j)
        evals.append(trials)
    return OptimizeReport(
        u_opt=u,
        j_history=j_hist,
        residual_history=res_hist,
        evaluations_history=evals,
        iterations=it,
        termination=termination,
        bang_bang=bang_bang_classify(u, grad, spec.box),
        start_seed=start_seed,
    )


def _march_runs(runs: list, spec: ProblemSpec) -> list[OptimizeReport]:
    """Drive _optimize_single coroutines to their reports in lockstep: each
    round solves the pending control of every marching run in one
    solve_states batch, whose trajectories are bit for bit the solo ones.
    _MARCHING_RUNS march at a time; a run that ends makes room for the next
    in order."""
    reports, waiting, pending = [None] * len(runs), list(enumerate(runs)), {}

    def admit():
        while waiting and len(pending) < _MARCHING_RUNS:
            i, run = waiting.pop(0)
            pending[i] = run.send(None)

    admit()
    while pending:
        states = solve_states(list(pending.values()), spec)
        for i in list(pending):
            try:
                # Popped: a trajectory lives only until its run has read it.
                pending[i] = runs[i].send(states.pop(0))
            except StopIteration as stop:
                reports[i] = stop.value
                del pending[i]
        admit()
    return reports


def optimize(
    spec: ProblemSpec,
    u0: np.ndarray | None = None,
    opts: OptimizeOptions | None = None,
) -> OptimizeReport:
    """Projected L-BFGS descent on the reduced cost over the admissible box.

    Raises ValidationError unless latent > 0, coupling > 0 and, for a singular
    well, visc > 0: the hypotheses of the control theory. Terminates when the
    stationarity residual drops below opts.stat_tol, the iteration cap is
    reached or a line search finds no decrease; the cost history is
    non-increasing by construction. Optional multi-start: extra seeded
    admissible initial controls, keeping the lowest final cost (the first
    run, then opts.starts in order, replaced only by a strictly lower one).

    The runs march two at a time (_MARCHING_RUNS), one state solve of each
    marching run per solve_states batch (_march_runs), so every report is
    the one its run makes alone. The L-BFGS pairs and trajectories of both
    marching runs are alive at once: about 5.9 MB of pairs per run at 48x48
    cells and 16 steps in 2D. Of several runs whose state solves fail, the
    one that fails first in that lockstep order raises its error.
    """
    opts = opts or OptimizeOptions()
    physics, bad = spec.physics, []
    if spec.potential.is_singular and physics.visc == 0:
        bad.append("physics.visc: singular potential requires visc > 0 for the control problem")
    if physics.latent <= 0:
        bad.append("physics.latent: must be positive for the control problem")
    if physics.coupling <= 0:
        bad.append("physics.coupling: must be positive for the control problem")
    if bad:
        raise ValidationError(bad)
    shape = (spec.tgrid.steps, spec.grid.ncells)
    if u0 is None:
        u0 = np.zeros(shape)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != shape:
        raise ShapeMismatch(f"u0: shape {u0.shape} != {shape}")
    runs = [_optimize_single(spec, u0, opts, start_seed=None)] + [
        _optimize_single(spec, random_admissible_control(spec, seed), opts, start_seed=seed)
        for seed in opts.starts
    ]
    # min keeps the first of equal costs.
    return min(_march_runs(runs, spec), key=lambda report: report.j_final)
