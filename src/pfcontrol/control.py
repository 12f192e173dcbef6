"""Reduced-gradient machinery and the projected-gradient optimizer.

Controls are time-indexed fields of shape (steps, ncells) paired in the
discrete L2 norm over the space-time cylinder (dt * cell-measure weights).
The reduced gradient is the adjoint multiplier of the balance equation at the
running levels, so the first-order optimality condition is the usual
variational inequality over the admissible box, and at a converged optimum
the control is bang-bang wherever the gradient has a definite sign.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .adjoint import cost_value, solve_adjoint
from .dynamics import solve_state
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


def project_box(u: np.ndarray, box: ControlBox) -> np.ndarray:
    """Nodewise clamp onto the admissible box."""
    u = np.asarray(u, dtype=float)
    lo, hi = box.bounds(u.shape)
    if np.any(lo > hi):
        raise ShapeMismatch("box: lower exceeds upper somewhere")
    return np.clip(u, lo, hi)


def reduced_gradient(u: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Gradient of the reduced cost in the L2(Q) pairing (adjoint q at the
    running levels)."""
    state = solve_state(u, spec)
    return solve_adjoint(state, spec.cost, spec).reduced_gradient()


def stationarity_residual(
    u: np.ndarray, grad: np.ndarray, box: ControlBox, spec: ProblemSpec
) -> float:
    """||u - P(u - grad)|| in the discrete L2(Q) norm; zero iff u is stationary."""
    u = np.asarray(u, dtype=float)
    return lq_norm(u - project_box(u - grad, box), spec)


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
    """Projected-gradient settings.

    stat_tol: stop once the L2(Q) stationarity residual is at most this.
    max_iter: iteration cap; reaching it terminates with "max_iterations".
    armijo_sigma, max_backtracks: sufficient-decrease constant and halving
    budget of the monotone backtracking line search along the projection arc.
    initial_step: first trial step; later steps start from the BB1 estimate
    clipped to [step_min, step_max].
    starts: seeds of extra random admissible starting controls; the run with
    the lowest final cost is reported.
    """

    stat_tol: float = 1.0e-6
    max_iter: int = 500
    armijo_sigma: float = 1.0e-4
    max_backtracks: int = 60
    initial_step: float = 1.0
    step_min: float = 1.0e-10
    step_max: float = 1.0e10
    starts: Sequence[int] = ()


@dataclasses.dataclass(frozen=True)
class OptimizeReport:
    """step_history holds the accepted step sizes s_k; du_norm_history the
    L2(Q) norms of the corresponding composite steps u_{k+1} - u_k, so the
    sufficient-decrease inequality can be audited from the report alone."""

    u_opt: np.ndarray
    gradient: np.ndarray
    j_history: list[float]
    residual_history: list[float]
    step_history: list[float]
    du_norm_history: list[float]
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


def _optimize_single(
    spec: ProblemSpec, u0: np.ndarray, opts: OptimizeOptions, start_seed: Optional[int]
) -> OptimizeReport:
    u = project_box(u0, spec.box)
    state = solve_state(u, spec)
    j = cost_value(state, spec.cost)
    grad = solve_adjoint(state, spec.cost, spec).reduced_gradient()
    j_hist = [j]
    res_hist = []
    step_hist = []
    du_norms = []
    step = float(opts.initial_step)
    termination = "max_iterations"
    it = 0
    for it in range(opts.max_iter + 1):
        res = stationarity_residual(u, grad, spec.box, spec)
        res_hist.append(res)
        if res <= opts.stat_tol:
            termination = "stationary"
            break
        if it == opts.max_iter:
            break
        accepted = False
        for _ in range(opts.max_backtracks):
            trial = project_box(u - step * grad, spec.box)
            du = trial - u
            decrease = lq_inner(du, du, spec)
            if decrease == 0.0:
                # Fixed point of the projected step: stationary for any step.
                break
            trial_state = solve_state(trial, spec)
            trial_j = cost_value(trial_state, spec.cost)
            # Sufficient decrease sigma * s * ||composite gradient mapping||^2
            # with mapping (u - trial)/s, i.e. (sigma/s) * ||trial - u||^2.
            if trial_j <= j - (opts.armijo_sigma / step) * decrease:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            termination = "line_search_stalled"
            break
        step_hist.append(float(step))
        du_norms.append(float(np.sqrt(decrease)))
        new_grad = solve_adjoint(trial_state, spec.cost, spec).reduced_gradient()
        du = trial - u
        dg = new_grad - grad
        curvature = lq_inner(du, dg, spec)
        if curvature > 0:
            step = lq_inner(du, du, spec) / curvature
        step = float(np.clip(step, opts.step_min, opts.step_max))
        u, state, j, grad = trial, trial_state, trial_j, new_grad
        j_hist.append(j)
    bb = bang_bang_classify(u, grad, spec.box)
    return OptimizeReport(
        u_opt=u,
        gradient=grad,
        j_history=j_hist,
        residual_history=res_hist,
        step_history=step_hist,
        du_norm_history=du_norms,
        iterations=it,
        termination=termination,
        bang_bang=bb,
        start_seed=start_seed,
    )


def optimize(
    spec: ProblemSpec,
    u0: np.ndarray | None = None,
    opts: OptimizeOptions | None = None,
) -> OptimizeReport:
    """Projected gradient descent on the reduced cost over the admissible box.

    Terminates when the stationarity residual drops below opts.stat_tol or the
    iteration cap is reached; the cost history is non-increasing by
    construction. Optional multi-start: extra seeded admissible initial
    controls, keeping the lowest final cost.
    """
    opts = opts or OptimizeOptions()
    bad = spec.validate(for_control=True)
    if bad:
        raise ValidationError(bad)
    shape = (spec.tgrid.steps, spec.grid.ncells)
    if u0 is None:
        u0 = np.zeros(shape)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != shape:
        raise ShapeMismatch(f"u0: shape {u0.shape} != {shape}")
    best = _optimize_single(spec, u0, opts, start_seed=None)
    for seed in opts.starts:
        candidate = _optimize_single(
            spec, random_admissible_control(spec, seed), opts, start_seed=seed
        )
        if candidate.j_final < best.j_final:
            best = candidate
    return best
