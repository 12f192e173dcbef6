"""The benchmark's workloads: config generation, CLI arguments and output checks.

Each workload is one `pfcontrol` CLI command on a JSON config built from the
benchmark seed. The program sees only the generated config and the CLI
arguments; the seed picks the random admissible starting control (scaled
down, for optimize) and, for gradcheck and adjoint, the probe directions. A
run repeats the one command of its workload, so every operation of a run
does the same work.

- optimize-quartic-1d: `optimize` on the quartic, inviscid 1D problem of the
  test suite's desk configuration (N=32, Nt=16, box [-1, 1]) to stat_tol 1e-3.
  Time to solution on the acceptance problem; line-search trials and
  step-operator assembly dominate, the resolvent is never called. One call
  is a multi-start: a seeded start plus the fixed starts OPTIMIZE_STARTS
  (the config's `optimize.starts`). The seeded start is the seeded random
  admissible control scaled by SEEDED_SCALE, a small perturbation of the
  zero control. The iteration count of the projected-gradient method jumps
  with the start: a full-size random start takes 12 to 34 iterations
  depending on its seed, and one scaled by 0.01 still 19 to 32, so such
  starts would make the work of two seeds differ by up to 1.7x, which the
  benchmark would report as noise. Scaled by 0.1, seeds 901 and 904 took 19
  and 25 iterations, a 10% step in wall_s. Scaled by 0.001 the start takes
  20 to 24 iterations over seeds 901-912; the full-size starts come from the
  fixed OPTIMIZE_STARTS.
- gradcheck-yosida-1d: `gradcheck --directions 2` on the Yosida-regularized
  log well (c=2, eps=1e-3, visc 1, N=64, Nt=32). Forward solves only, where
  the resolvent and assembly dominate; the optimizer is not involved.
- sweep-quartic-2d: `adjoint` on the quartic problem in 2D (48x48, Nt=16):
  one forward, one tangent and one adjoint sweep, dominated by SuperLU
  factorizations of the step operator; no optimizer, no resolvent.

`tiny=True` shrinks every workload to a few cells and steps for the smoke
tests; the kind of work and the checks stay the same.
"""

from __future__ import annotations

import json

WORKLOADS = ("optimize-quartic-1d", "gradcheck-yosida-1d", "sweep-quartic-2d")

STAT_TOL = 1.0e-3
GRADCHECK_TOL = 1.0e-6
# Adjoint-tangent duality holds to linear-solver roundoff; the test suite
# asserts the same bound.
DUALITY_TOL = 1.0e-10
# Extra starts of every optimize call, the same for every benchmark seed.
OPTIMIZE_STARTS = [1, 2, 3]
# Scale of the seeded start of optimize.
SEEDED_SCALE = 0.001
# The reference kernel of speed.py that does each workload's kind of work:
# the 1D workloads spend their time in small sparse assemblies and
# factorizations, the 2D sweep in large SuperLU factorizations.
KERNEL = {
    "optimize-quartic-1d": "assembly",
    "gradcheck-yosida-1d": "assembly",
    "sweep-quartic-2d": "factor",
}

_COST = {
    "w_theta": 1.0,
    "w_phi": 1.0,
    "w_theta_final": 0.5,
    "w_phi_final": 0.5,
    "theta_target": 0.1,
    "phi_target": 0.0,
    "theta_final_target": 0.05,
    "phi_final_target": 0.1,
}


def _cosine(amplitude: float, modes: list[int], offset: float = 0.0) -> dict:
    return {"kind": "cosine", "amplitude": amplitude, "modes": modes, "offset": offset}


def _scaled_start(raw: dict, seed: int) -> dict:
    """The seeded random admissible control of the problem `raw`, scaled by
    SEEDED_SCALE, as explicit control values. Imports pfcontrol (and numpy)."""
    from pfcontrol.config import parse_config
    from pfcontrol.control import random_admissible_control

    spec = parse_config({**raw, "control": {"kind": "zeros"}}).spec
    values = SEEDED_SCALE * random_admissible_control(spec, seed)
    return {"kind": "values", "values": values.tolist()}


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The JSON config of one workload; the same (workload, seed) gives the
    same config."""
    seed = seed % 2**31
    control = {"kind": "random", "seed": seed}
    if workload == "optimize-quartic-1d":
        n, nt = (8, 4) if tiny else (32, 16)
        raw = {
            "grid": {"cells": [n]},
            "time": {"horizon": 1.0, "steps": nt},
            "physics": {"visc": 0.0, "latent": 1.0, "coupling": 1.0},
            "potential": {"kind": "quartic"},
            "initial": {"theta": _cosine(0.1, [1]), "phi": _cosine(0.2, [1], 0.05)},
            "cost": dict(_COST),
            "box": {"lower": -1.0, "upper": 1.0},
            "optimize": {"stat_tol": STAT_TOL, "max_iter": 2000, "starts": OPTIMIZE_STARTS},
        }
        return {**raw, "control": _scaled_start(raw, seed)}
    if workload == "gradcheck-yosida-1d":
        n, nt = (8, 4) if tiny else (64, 32)
        return {
            "grid": {"cells": [n]},
            "time": {"horizon": 1.0, "steps": nt},
            "physics": {"visc": 1.0, "latent": 1.0, "coupling": 1.0},
            "potential": {"kind": "logarithmic", "c": 2.0, "eps": 1.0e-3},
            "initial": {"theta": _cosine(0.1, [1]), "phi": _cosine(0.2, [1])},
            "cost": dict(_COST),
            "box": {"lower": -1.0, "upper": 1.0},
            "control": control,
        }
    if workload == "sweep-quartic-2d":
        n, nt = (6, 2) if tiny else (48, 16)
        return {
            "grid": {"cells": [n, n]},
            "time": {"horizon": 1.0, "steps": nt},
            "physics": {"visc": 0.0, "latent": 1.0, "coupling": 1.0},
            "potential": {"kind": "quartic"},
            "initial": {"theta": _cosine(0.1, [1, 0]), "phi": _cosine(0.2, [0, 1], 0.05)},
            "cost": dict(_COST),
            "box": {"lower": -1.0, "upper": 1.0},
            "control": control,
        }
    raise ValueError(f"unknown workload {workload!r}")


def cli_args(workload: str, seed: int, config_path: str) -> list[str]:
    """Arguments of the one CLI command a workload operation runs."""
    seed = seed % 2**31
    if workload == "optimize-quartic-1d":
        args = ["optimize"]
    elif workload == "gradcheck-yosida-1d":
        args = ["gradcheck", "--directions", "2", "--seed", str(seed)]
    elif workload == "sweep-quartic-2d":
        args = ["adjoint", "--seed", str(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return args + ["--config", config_path]


def check_report(workload: str, exit_code: int, report_text: str) -> list[str]:
    """Violations of the workload's output contract; empty when the
    operation succeeded."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    bad = []
    if workload == "optimize-quartic-1d":
        if report.get("termination") != "stationary":
            bad.append(f"termination {report.get('termination')!r}")
        if not report.get("residual_final", float("inf")) <= STAT_TOL:
            bad.append(f"residual_final {report.get('residual_final')!r} > {STAT_TOL}")
        history = report.get("j_history") or []
        if not history or any(b > a for a, b in zip(history, history[1:])):
            bad.append("j_history is empty or increases")
    elif workload == "gradcheck-yosida-1d":
        if report.get("passed") is not True:
            bad.append("gradcheck did not pass")
        error = report.get("measured", {}).get("max_rel_error", float("inf"))
        if not error <= GRADCHECK_TOL:
            bad.append(f"max_rel_error {error!r} > {GRADCHECK_TOL}")
    else:
        gap = report.get("duality_rel_gap", float("inf"))
        if not gap <= DUALITY_TOL:
            bad.append(f"duality_rel_gap {gap!r} > {DUALITY_TOL}")
    return bad
