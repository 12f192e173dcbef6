"""Verification probes: independent oracles for derivative, stability and
regularity claims.

Every probe returns a ProbeReport with the measured quantities, the thresholds
it judged them against and a pass flag. Probes are deterministic given
(config, seed). The finite-difference oracle never reads the adjoint value,
so the two derivative routes stay independent. The continuous-dependence
(Lipschitz) ratios are measured under refinement only: the refinement probe
draws seeded control pairs and compares their ratios on the grid and on its
doubling. The FD step, the Taylor ladder and slope band, the energy
tolerance, the refinement factor and the eps ladder the probes judge by are
the module constants below; no probe takes them as arguments. A probe marches
its controls of one spec as one batch (dynamics.solve_states), each state bit
for bit its solo march; only the Yosida ladder and the energy run, with one
control per spec, call solve_state.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional, Sequence

import numpy as np

from .adjoint import cost_value, solve_adjoint
from .control import lq_inner, lq_norm, random_admissible_control
from .dynamics import Trajectory, mixture_energy, solve_state, solve_states, solve_tangent
from .errors import ShapeMismatch
from .grid import Grid, TimeGrid
from .problem import ProblemSpec

__all__ = [
    "ProbeReport",
    "fd_gradient_check",
    "frechet_remainder_probe",
    "lipschitz_refinement_probe",
    "yosida_convergence_probe",
    "energy_probe",
    "separation_probe",
    "trajectory_y_norm",
    "smooth_direction",
]


#: FD gradient check: central differences D at delta and delta/2, delta relative to max|u| + 1.
FD_STEP = 0.1
#: Taylor remainder probe: perturbation sizes relative to max|u| + 1, like the
#: FD step, and the band of the fitted slope.
TAYLOR_DELTAS = tuple(np.logspace(-1.0, -4.0, 7))
TAYLOR_SLOPE_BAND = (1.8, 2.2)
#: Energy probe: allowed increase of one step, relative to max(1, |E0|).
ENERGY_TOL = 1.0e-10
#: Refinement probe: allowed factor between the fine and coarse max ratios.
REFINEMENT_FACTOR = 2.0
#: Yosida probe: the decreasing regularization ladder.
EPS_LADDER = (1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4)


@dataclasses.dataclass(frozen=True)
class ProbeReport:
    """Outcome of one probe run; dataclasses.asdict gives its JSON payload."""

    name: str
    seed: Optional[int]
    measured: dict
    thresholds: dict
    passed: bool


def time_antiderivative(f: np.ndarray, tgrid: TimeGrid) -> np.ndarray:
    """Right-rectangle running time integral of a time-indexed field.

    Input levels 1..Nt (shape (Nt, ...)); output levels 0..Nt with a zero
    leading entry.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != tgrid.steps:
        raise ShapeMismatch(f"expected {tgrid.steps} time levels, got {f.shape[0]}")
    out = np.zeros((tgrid.steps + 1,) + f.shape[1:])
    np.cumsum(f, axis=0, out=out[1:])
    out[1:] *= tgrid.dt
    return out


def trajectory_y_norm(
    dtheta: np.ndarray, dphi: np.ndarray, grid: Grid, tgrid: TimeGrid
) -> float:
    """max-in-time H norm plus L2-in-time V norm, summed over both components."""
    dt = tgrid.dt
    total = 0.0
    for comp in (dtheta, dphi):
        h_max = max(grid.h_norm(level) for level in comp)
        v_sq = sum(grid.v_norm(level) ** 2 for level in comp[1:]) * dt
        total += h_max + np.sqrt(v_sq)
    return float(total)


def smooth_direction(spec: ProblemSpec, rng: np.random.Generator) -> np.ndarray:
    """Seeded probe direction: white noise smoothed per level, sup-normalized."""
    h = spec.grid.helmholtz_solve(rng.standard_normal((spec.tgrid.steps, spec.grid.ncells)))
    return h / max(float(np.max(np.abs(h))), 1.0e-30)


def fd_directional_derivative(
    u: np.ndarray, h: np.ndarray, spec: ProblemSpec, delta: float
) -> float:
    """Central difference of the reduced cost along h at step delta."""
    plus, minus = solve_states([u + delta * h, u - delta * h], spec)
    return (cost_value(plus, spec.cost) - cost_value(minus, spec.cost)) / (2.0 * delta)


def fd_gradient_check(
    u: np.ndarray,
    spec: ProblemSpec,
    n_directions: int = 5,
    seed: int = 7,
    tol: float = 1.0e-6,
) -> ProbeReport:
    """Adjoint gradient against the FD oracle along seeded directions: the
    Richardson value (4 D(delta/2) - D(delta)) / 3, error estimate |D(delta/2) - D(delta)| / 3.
    The base state and the 4 perturbed states of every direction are marched
    as one batch."""
    delta = FD_STEP * (float(np.max(np.abs(u))) + 1.0)
    rng = np.random.default_rng(seed)
    hs = [smooth_direction(spec, rng) for _ in range(n_directions)]
    steps = (delta, delta / 2.0)
    controls = [v for h in hs for step in steps for v in (u + step * h, u - step * h)]
    state, *perturbed = solve_states([u] + controls, spec)
    # The costs in march order: +-delta, then +-delta/2, direction by direction.
    costs = iter([cost_value(traj, spec.cost) for traj in perturbed])
    del perturbed
    grad = solve_adjoint(state, spec)
    directions = []
    worst = 0.0
    for h in hs:
        predicted = lq_inner(grad, h, spec)
        coarse, fine = ((next(costs) - next(costs)) / (2.0 * step) for step in steps)
        fd_value = (4.0 * fine - coarse) / 3.0
        rel = abs(fd_value - predicted) / max(abs(fd_value), abs(predicted), 1.0e-300)
        worst = max(worst, rel)
        directions.append(
            {
                "fd_value": fd_value,
                "fd_error_estimate": abs(fine - coarse) / 3.0,
                "adjoint_value": predicted,
                "rel_error": rel,
            }
        )
    return ProbeReport(
        name="fd_gradient_check",
        seed=seed,
        measured={"delta": delta, "directions": directions, "max_rel_error": worst},
        thresholds={"max_rel_error": tol},
        passed=bool(worst <= tol),
    )


def frechet_remainder_probe(u: np.ndarray, spec: ProblemSpec, seed: int = 11) -> ProbeReport:
    """Quadratic-remainder check along the seeded smooth direction h:
    r(delta) = ||S(u + delta h) - S(u) - delta * DS h||_Y should scale like
    delta^2 (log-log slope within TAYLOR_SLOPE_BAND), for delta along
    TAYLOR_DELTAS scaled by max|u| + 1, above the solver noise at large u."""
    h = smooth_direction(spec, np.random.default_rng(seed))
    deltas = (float(np.max(np.abs(u))) + 1.0) * np.asarray(TAYLOR_DELTAS)
    base, *perturbed = solve_states([u] + [u + delta * h for delta in deltas], spec)
    tangent = solve_tangent(h, base, spec)
    remainders = []
    for delta, pert in zip(deltas, perturbed):
        r = trajectory_y_norm(
            pert.theta - base.theta - delta * tangent.dtheta,
            pert.phi - base.phi - delta * tangent.dphi,
            spec.grid,
            spec.tgrid,
        )
        remainders.append(r)
    log_d = np.log10(np.asarray(deltas, dtype=float))
    log_r = np.log10(np.maximum(remainders, 1.0e-300))
    # Rungs at the solver noise floor stop decaying and would flatten the
    # fit; keep the longest run of rungs with a near-quadratic pairwise
    # decay rate. The gate is wider than the pass band, so it can discard
    # saturated rungs but never rescue a non-quadratic remainder.
    pair = (log_r[:-1] - log_r[1:]) / (log_d[:-1] - log_d[1:])
    good = (pair >= 1.5) & (pair <= 2.5)
    best_start, best_len, start = 0, 0, 0
    for is_good, run in itertools.groupby(good):
        length = len(list(run))
        if is_good and length > best_len:
            best_start, best_len = start, length
        start += length
    if best_len >= 2:
        window = slice(best_start, best_start + best_len + 1)
        slope = float(np.polyfit(log_d[window], log_r[window], 1)[0])
    else:
        slope = 0.0
    passed = TAYLOR_SLOPE_BAND[0] <= slope <= TAYLOR_SLOPE_BAND[1]
    return ProbeReport(
        name="frechet_remainder",
        seed=seed,
        measured={
            "deltas": [float(d) for d in deltas],
            "remainders": [float(r) for r in remainders],
            "slope": slope,
        },
        thresholds={"slope_min": TAYLOR_SLOPE_BAND[0], "slope_max": TAYLOR_SLOPE_BAND[1]},
        passed=bool(passed),
    )


def _weak_difference_norm(a: Trajectory, b: Trajectory) -> float:
    """Norm of a trajectory difference in the weaker (dual-norm) topology:
    L2-in-time H for the balance component plus sup-V of its running time
    integral, plus sup-dual + L2-V (+ visc-weighted sup-H) for the phase."""
    grid, tgrid = a.grid, a.tgrid
    dt = tgrid.dt
    d_theta = a.theta - b.theta
    d_phi = a.phi - b.phi
    l2h_theta = np.sqrt(sum(grid.h_norm(lv) ** 2 for lv in d_theta[1:]) * dt)
    anti = time_antiderivative(d_theta[1:], tgrid)
    sup_v_anti = max(grid.v_norm(lv) for lv in anti)
    # Mass conservation zeroes each level's mean only to the phases' roundoff,
    # which can exceed the dual norm's tolerance for a small difference.
    sup_dual_phi = max(grid.dual_norm(lv - grid.mean(lv)) for lv in d_phi)
    l2v_phi = np.sqrt(sum(grid.v_norm(lv) ** 2 for lv in d_phi[1:]) * dt)
    return float(l2h_theta + sup_v_anti + sup_dual_phi + l2v_phi)


def _lipschitz_ratios(
    spec: ProblemSpec, pairs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[list[float], list[float]]:
    """Continuous-dependence ratios over the distinct control pairs; an
    identical pair is skipped.

    strong: Y norm of the state difference over the L2(Q) control distance;
    weak: the dual-norm composite over the same denominator.
    """
    dists = [lq_norm(u1 - u2, spec) for u1, u2 in pairs]
    distinct = [(pair, dist) for pair, dist in zip(pairs, dists) if dist != 0.0]
    states = solve_states([u for pair, _ in distinct for u in pair], spec)
    strong, weak = [], []
    for (_, dist), s1, s2 in zip(distinct, states[::2], states[1::2]):
        strong.append(
            trajectory_y_norm(s1.theta - s2.theta, s1.phi - s2.phi, spec.grid, spec.tgrid)
            / dist
        )
        weak.append(_weak_difference_norm(s1, s2) / dist)
    return strong, weak


def prolong_control(u, spec: ProblemSpec):
    """Piecewise-constant prolongation from spec to refine_spec(spec): a
    scalar stays as it is, a field (ncells,) doubles every axis, and a
    time-indexed array (steps, ncells), such as a control, also doubles its
    levels."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0:
        return u
    arr = arr.reshape(arr.shape[:-1] + spec.grid.cells)
    for axis in range(arr.ndim):
        arr = np.repeat(arr, 2, axis=axis)
    return arr.reshape(arr.shape[: arr.ndim - spec.grid.dim] + (-1,))


def refine_spec(spec: ProblemSpec) -> ProblemSpec:
    """Double every axis and the time grid, prolonging every field of the
    initial data, cost and box piecewise-constantly (prolong_control passes
    scalars through) so both levels discretize the same continuum problem."""

    def prolonged(part):
        fields = dataclasses.fields(part)
        return dataclasses.replace(
            part, **{f.name: prolong_control(getattr(part, f.name), spec) for f in fields}
        )

    return dataclasses.replace(
        spec,
        grid=Grid(tuple(2 * c for c in spec.grid.cells), spec.grid.lengths),
        tgrid=TimeGrid(spec.tgrid.horizon, 2 * spec.tgrid.steps),
        init=prolonged(spec.init),
        cost=prolonged(spec.cost),
        box=prolonged(spec.box),
    )


def lipschitz_refinement_probe(
    spec: ProblemSpec, n_pairs: int = 20, seed: int = 0
) -> ProbeReport:
    """Stability of the max Lipschitz ratio under one grid/time doubling."""
    rng = np.random.default_rng(seed)
    pairs = [
        (random_admissible_control(spec, rng), random_admissible_control(spec, rng))
        for _ in range(n_pairs)
    ]
    strong, weak = _lipschitz_ratios(spec, pairs)
    # Without distinct pairs (then none on the fine grid either) nothing is
    # measured and nothing violated.
    measured, passed = {"n_pairs": 0}, True
    if strong:
        fine_pairs = [(prolong_control(u1, spec), prolong_control(u2, spec)) for u1, u2 in pairs]
        fine_strong, fine_weak = _lipschitz_ratios(refine_spec(spec), fine_pairs)
        r_coarse = float(np.max(strong))
        r_fine = float(np.max(fine_strong))
        change = r_fine / r_coarse
        passed = (1.0 / REFINEMENT_FACTOR) <= change <= REFINEMENT_FACTOR
        measured = {
            "max_ratio_coarse": r_coarse,
            "max_ratio_fine": r_fine,
            "change_factor": float(change),
            "max_ratio_weak_coarse": float(np.max(weak)),
            "max_ratio_weak_fine": float(np.max(fine_weak)),
        }
    return ProbeReport(
        name="lipschitz_refinement",
        seed=seed,
        measured=measured,
        thresholds={"change_min": 1.0 / REFINEMENT_FACTOR, "change_max": REFINEMENT_FACTOR},
        passed=bool(passed),
    )


def yosida_convergence_probe(spec: ProblemSpec, seed: int = 5) -> ProbeReport:
    """Regularized trajectories along EPS_LADDER under the seeded admissible
    control: consecutive differences must strictly decrease, the regularized
    slope must stay below the exact one on the sampled range, and mass must
    be conserved."""
    u = random_admissible_control(spec, seed)
    trajectories = []
    drifts = []
    for eps in EPS_LADDER:
        eps_spec = dataclasses.replace(spec, potential=spec.potential.with_eps(eps))
        traj = solve_state(u, eps_spec)
        trajectories.append(traj)
        means = traj.phase_mean_history()
        drifts.append(float(np.max(np.abs(means - means[0]))))
    diffs = [
        trajectory_y_norm(
            a.theta - b.theta, a.phi - b.phi, spec.grid, spec.tgrid
        )
        for a, b in zip(trajectories, trajectories[1:])
    ]
    decreasing = all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    pot = spec.potential
    samples = np.concatenate([t.phi.ravel() for t in trajectories])
    inside = pot.contains(samples, margin=1.0e-12)
    samples = np.unique(samples[inside])
    sandwich = True
    exact = np.abs(pot.dw_convex(samples))
    for eps in EPS_LADDER:
        reg = np.abs(pot.with_eps(eps).dw_convex_eff(samples))
        # Slack covers the resolvent root error amplified by 1/eps.
        slack = 8.0 * np.finfo(float).eps * (1.0 + np.abs(samples)) / eps
        if not np.all(reg <= exact + slack):
            sandwich = False
            break
    m0 = float(np.sum(spec.init.phi0)) / spec.grid.ncells
    drift_ok = max(drifts) <= 1.0e-12 * (1.0 + abs(m0))
    return ProbeReport(
        name="yosida_convergence",
        seed=seed,
        measured={
            "eps_ladder": [float(e) for e in EPS_LADDER],
            "consecutive_diffs": [float(d) for d in diffs],
            "max_mean_drift": max(drifts),
            "strictly_decreasing": bool(decreasing),
            "sandwich_holds": bool(sandwich),
        },
        thresholds={"mean_drift": 1.0e-12 * (1.0 + abs(m0))},
        passed=bool(decreasing and sandwich and drift_ok),
    )


def energy_probe(spec: ProblemSpec, steps: int = 256) -> ProbeReport:
    """Energy decay of the decoupled flow (latent = coupling = 0, zero source)
    under the configured potential: no increase above ENERGY_TOL * max(1, |E0|).
    The flow reads no cost or box; their defaults fit any time grid."""
    physics = dataclasses.replace(spec.physics, latent=0.0, coupling=0.0)
    tgrid = TimeGrid(spec.tgrid.horizon, steps)
    decoupled = ProblemSpec(spec.grid, tgrid, physics, spec.potential, spec.init)
    traj = solve_state(np.zeros((steps, spec.grid.ncells)), decoupled)
    energies = np.array(
        [mixture_energy(spec.grid, spec.potential, lv) for lv in traj.phi]
    )
    increments = np.diff(energies)
    max_increase = float(np.max(increments)) if increments.size else 0.0
    tol = ENERGY_TOL * max(1.0, abs(float(energies[0])))
    n_violations = int(np.count_nonzero(increments > tol))
    return ProbeReport(
        name="energy_decay",
        seed=None,
        measured={
            "steps": steps,
            "energy_initial": float(energies[0]),
            "energy_final": float(energies[-1]),
            "max_increase": max_increase,
            "violations": n_violations,
        },
        thresholds={"increase_tol": tol},
        passed=bool(n_violations == 0),
    )


def separation_probe(
    spec: ProblemSpec, n_controls: int = 10, seed: int = 3
) -> ProbeReport:
    """Minimum distance of the phase to the potential-domain boundary over
    seeded admissible controls, on the levels the dynamics make (1..Nt);
    initial_margin is that of phi0, the same under every control. Not
    applicable for entire-domain potentials."""
    if not spec.potential.is_singular:
        return ProbeReport(
            name="separation", seed=seed, measured={"applicable": False}, thresholds={}, passed=True
        )
    rng = np.random.default_rng(seed)
    controls = [random_admissible_control(spec, rng) for _ in range(n_controls)]
    trajs = solve_states(controls, spec)
    distance = spec.potential.distance_to_boundary
    margins = [float(np.min(distance(t.phi[1:]))) for t in trajs]
    margin = min(margins)
    return ProbeReport(
        name="separation",
        seed=seed,
        measured={
            "applicable": True,
            "n_controls": n_controls,
            "min_margin": margin,
            "margins": margins,
            "initial_margin": float(np.min(distance(spec.init.phi0))),
        },
        thresholds={"min_margin": 0.0},
        passed=bool(margin > 0.0),
    )
