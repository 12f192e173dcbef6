"""End-to-end acceptance runs at desk scale (1D, 32 cells, 16 steps).

Each test covers one headline guarantee, checks it at the stated tolerance,
and prints a single machine-greppable pass/fail line. Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest
from conftest import desk_spec, zero_control

import pfcontrol as pfc

GRAD_TOL = 1.0e-6
DUALITY_TOL = 1.0e-8
MASS_TOL = 1.0e-12
ENERGY_TOL = 1.0e-10
STAT_TOL = 1.0e-6
VI_TOL = 1.0e-6
ROUNDTRIP_TOL = 1.0e-10
SYMMETRY_TOL = 1.0e-12


def _line(tag: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"acceptance[{tag}] {detail} -> {verdict}")
    assert passed, f"{tag}: {detail}"


def _regimes():
    return [
        ("regular", desk_spec("regular")),
        ("log", desk_spec("log", yosida_eps=1.0e-3)),
    ]


def _duality_gap(spec, seed):
    u = zero_control(spec)
    state = pfc.solve_state(u, spec)
    grad = pfc.solve_adjoint(state, spec)
    h = pfc.smooth_direction(spec, np.random.default_rng(seed))
    tan = pfc.solve_tangent(h, state, spec)
    lhs = pfc.lq_inner(grad, h, spec)
    rhs = pfc.dj_along_tangent(tan, state, spec.cost)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0e-300)


def test_01_gradient_matches_fd_oracle_both_regimes():
    for name, spec in _regimes():
        t0 = time.perf_counter()
        report = pfc.fd_gradient_check(
            zero_control(spec), spec, n_directions=5, seed=7, tol=GRAD_TOL
        )
        gap = _duality_gap(spec, seed=21)
        elapsed = time.perf_counter() - t0
        worst = report.measured["max_rel_error"]
        per_direction = [d["rel_error"] for d in report.measured["directions"]]
        ok = (
            report.passed
            and all(r <= GRAD_TOL for r in per_direction)
            and gap <= DUALITY_TOL
            and elapsed <= 60.0
        )
        _line(
            f"1:{name}",
            ok,
            f"gradient vs FD max_rel={worst:.2e} (5 directions), "
            f"duality_gap={gap:.2e}, {elapsed:.1f}s",
        )


def test_02_state_map_remainder_is_quadratic():
    for name, spec in _regimes():
        report = pfc.frechet_remainder_probe(zero_control(spec), spec, seed=11)
        slope = report.measured["slope"]
        ok = report.passed and 1.8 <= slope <= 2.2
        _line(f"2:{name}", ok, f"remainder log-log slope={slope:.4f}")


def test_03_mass_conserved_and_tangent_mean_zero():
    worst_drift = 0.0
    worst_tan = 0.0
    for name, spec in _regimes():
        controls = [zero_control(spec)] + [
            pfc.random_admissible_control(spec, seed) for seed in (1, 2, 3)
        ]
        for u in controls:
            traj = pfc.solve_state(u, spec)
            means = traj.phase_mean_history()
            drift = float(np.max(np.abs(means - means[0])))
            bound = MASS_TOL * (1.0 + abs(means[0]))
            worst_drift = max(worst_drift, drift / bound)
        base = pfc.solve_state(controls[1], spec)
        h = pfc.smooth_direction(spec, np.random.default_rng(13))
        tan = pfc.solve_tangent(h, base, spec)
        tan_mean = float(np.max(np.abs(tan.dphi.sum(axis=1) / spec.grid.ncells)))
        worst_tan = max(worst_tan, tan_mean)
    ok = worst_drift <= 1.0 and worst_tan <= MASS_TOL
    _line(
        "3",
        ok,
        f"phase mean drift <= {worst_drift:.2e} of the 1e-12 budget over 8 runs, "
        f"tangent mean <= {worst_tan:.2e}",
    )


def test_04_decoupled_energy_never_increases():
    for name, spec in [("quartic", desk_spec("regular")), ("log", desk_spec("log"))]:
        report = pfc.energy_probe(spec, steps=256)
        bound = ENERGY_TOL * max(1.0, abs(report.measured["energy_initial"]))
        ok = (
            report.passed
            and report.measured["violations"] == 0
            and report.thresholds["increase_tol"] == bound
        )
        _line(
            f"4:{name}",
            ok,
            f"energy increases above tol over 256 steps: "
            f"{report.measured['violations']} (max increase "
            f"{report.measured['max_increase']:.2e})",
        )


def _stationarity_line(tag, spec):
    t0 = time.perf_counter()
    opts = pfc.OptimizeOptions(stat_tol=STAT_TOL, max_iter=2000)
    report = pfc.optimize(spec, opts=opts)
    elapsed = time.perf_counter() - t0

    grad = pfc.reduced_gradient(report.u_opt, spec)
    residual = pfc.stationarity_residual(report.u_opt, grad, spec)

    j = np.array(report.j_history)
    monotone = bool(np.all(np.diff(j) <= 0.0))

    vi_worst = -np.inf
    for seed in range(20):
        v = pfc.random_admissible_control(spec, 1000 + seed)
        diff = report.u_opt - v
        pairing = pfc.lq_inner(diff, grad, spec)
        vi_worst = max(vi_worst, pairing / max(pfc.lq_norm(diff, spec), 1.0e-300))

    dt_m = spec.tgrid.dt * spec.grid.cell_measure
    bb_tol = max(1.0e-8 * float(np.max(np.abs(grad))), 2.0 * STAT_TOL / np.sqrt(dt_m))
    bb = pfc.bang_bang_classify(report.u_opt, grad, spec.box, tol=bb_tol)

    ok = (
        report.termination == "stationary"
        and residual <= STAT_TOL
        and monotone
        and vi_worst <= VI_TOL
        and bb.frac_lower_consistent == 1.0
        and bb.frac_upper_consistent == 1.0
        and elapsed <= 600.0
    )
    _line(
        tag,
        ok,
        f"optimize: residual={residual:.2e}, J {j[0]:.3e}->{j[-1]:.3e} monotone={monotone}, "
        f"VI pairing <= {vi_worst:.2e} over 20 controls, bang-bang fractions "
        f"({bb.frac_lower_consistent:.3f}, {bb.frac_upper_consistent:.3f}) "
        f"at tol {bb_tol:.1e}, {report.iterations} iterations in {elapsed:.0f}s",
    )


def test_05_tracking_optimization_reaches_stationarity():
    _stationarity_line("5", desk_spec("regular"))


def test_05_exact_log_optimization_reaches_stationarity():
    # The exact logarithmic potential with viscosity: the paper's headline case.
    _stationarity_line("5:log", desk_spec("log"))


def test_06_state_response_ratio_stable_under_refinement():
    spec = desk_spec("regular")
    report = pfc.lipschitz_refinement_probe(spec, n_pairs=20, seed=0)
    change = report.measured["change_factor"]
    ok = report.passed and 0.5 <= change <= 2.0
    _line(
        "6",
        ok,
        f"max Y/L2 ratio {report.measured['max_ratio_coarse']:.3f} -> "
        f"{report.measured['max_ratio_fine']:.3f} under doubling "
        f"(factor {change:.3f})",
    )


def test_07_regularization_ladder_converges_monotonically():
    spec = desk_spec("log")
    report = pfc.yosida_convergence_probe(spec, seed=5)
    diffs = report.measured["consecutive_diffs"]
    ok = (
        report.passed
        and report.measured["strictly_decreasing"]
        and report.measured["sandwich_holds"]
    )
    _line(
        "7",
        ok,
        "eps-ladder consecutive diffs "
        + " > ".join(f"{d:.2e}" for d in diffs)
        + f", |slope_eps| <= |slope| on trajectory range: "
        f"{report.measured['sandwich_holds']}",
    )


def test_08_phase_stays_inside_singular_domain():
    spec = desk_spec("log")
    report = pfc.separation_probe(spec, n_controls=10, seed=3)
    ok = report.passed and report.measured["min_margin"] > 0.0
    _line(
        "8",
        ok,
        f"min distance to the domain boundary over 10 seeded controls: "
        f"{report.measured['min_margin']:.3f}",
    )


def test_09_zero_mean_inverse_identities():
    worst_rt = 0.0
    worst_sym = 0.0
    for n in (32, 64, 128):
        grid = pfc.Grid(n)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n)
        g = rng.standard_normal(n)
        f -= f.sum() / n
        g -= g.sum() / n
        nf = grid.inverse_neumann(f)
        ng = grid.inverse_neumann(g)
        roundtrip = float(
            np.linalg.norm(-(grid.laplacian @ nf) - f) / np.linalg.norm(f)
        )
        a = grid.inner(nf, g)
        b = grid.inner(f, ng)
        sym = abs(a - b) / max(abs(a), abs(b), 1.0e-300)
        worst_rt = max(worst_rt, roundtrip)
        worst_sym = max(worst_sym, sym)
    ok = worst_rt <= ROUNDTRIP_TOL and worst_sym <= SYMMETRY_TOL
    _line(
        "9",
        ok,
        f"inverse-operator round-trip <= {worst_rt:.2e}, "
        f"symmetry defect <= {worst_sym:.2e} over n in (32, 64, 128)",
    )
