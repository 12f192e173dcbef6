"""Command-line front end.

Subcommands: solve, adjoint, gradcheck, optimize, probe, one table
(_COMMANDS) of help texts and handlers; adjoint, gradcheck and probe also
take --seed (defaults 0, 7, 0). main creates --out DIR, then loads the JSON
config (--config) once and hands it to the command, which writes its JSON
report to stdout or into that directory.
With --out, solve also writes a per-level time series CSV (and field
snapshot rows every output.snapshot_stride levels), and optimize writes its
iteration history CSV plus the final control. Every output file carries the
config digest. The solve, adjoint and optimize reports carry the command
and the version with it; the optimize report holds every OptimizeReport
field but u_opt (control.json), plus j_final and residual_final. gradcheck
and probe write the check's report (name, seed, measured, thresholds,
passed). The counts --directions,
--samples and --steps are at least 1, --seed at least 0, gradcheck --tol
finite and above 0. Outputs are deterministic: reruns are byte-identical,
timing goes to stderr only.

Exit codes: 0 success, 1 solver failure or non-converged optimization,
2 invalid config or usage (an --out that cannot be made a directory too),
3 a check or probe ran but did not pass. A config error prints one
"config error:" line per violation, a solver failure one "solver error:"
line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from itertools import count
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import dj_along_tangent, solve_adjoint
from .config import load_config
from .control import lq_inner, lq_norm, optimize
from .dynamics import mixture_energy, solve_state, solve_tangent
from .errors import ConfigError, PfcError
from .harness import (
    energy_probe,
    fd_gradient_check,
    frechet_remainder_probe,
    lipschitz_refinement_probe,
    separation_probe,
    smooth_direction,
    trajectory_y_norm,
    yosida_convergence_probe,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_SOLVER = 1
_EXIT_CONFIG = 2
_EXIT_CHECK = 3


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), with the C encoder for all
    but the indentation: indent selects json's pure-Python encoder, whose
    closures every call leaves behind as cyclic garbage."""
    inner, ends = indent + "  ", "[]"
    if isinstance(value, dict) and value:
        ends, items = "{}", [
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_json_text(v, inner)}"
            for k, v in sorted(value.items())
        ]
    elif isinstance(value, (list, tuple)) and value:
        items = [_json_text(v, inner) for v in value]
    else:
        return json.dumps(value)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _write_json(payload: dict, out: Path | None, name: str) -> None:
    text = _json_text(payload) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        (out / name).write_text(text)


def _write_csv(path: Path, digest: str, header: list[str], rows) -> None:
    """CSV with the config digest on a leading comment line; floats go
    through repr so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_digest={digest}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(v) if isinstance(v, float) else v for v in row]
            )


def _write_report(cfg, args, **fields) -> None:
    payload = {"command": args.command, "version": __version__, "config_digest": cfg.digest}
    _write_json({**payload, **fields}, args.out, f"{args.command}_report.json")


def _cmd_solve(cfg, args) -> int:
    spec = cfg.spec
    t0 = time.perf_counter()
    traj = solve_state(cfg.control, spec)
    print(f"solve: {spec.tgrid.steps} steps in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    series = {
        "times": spec.tgrid.times().tolist(),
        "phase_mean": traj.phase_mean_history().tolist(),
        "energy": mixture_energy(spec.grid, spec.potential, traj.phi).tolist(),
        "theta_norms": spec.grid.h_norm(traj.theta).tolist(),
        "phi_norms": spec.grid.h_norm(traj.phi).tolist(),
    }
    _write_report(
        cfg, args, **series, theta_final=traj.theta[-1].tolist(), phi_final=traj.phi[-1].tolist()
    )
    if args.out is None:
        return _EXIT_OK
    _write_csv(
        args.out / "solve_timeseries.csv",
        cfg.digest,
        ["level", "time", "phase_mean", "energy", "theta_h", "phi_h"],
        zip(count(), *series.values()),
    )
    if cfg.snapshot_stride > 0:
        steps = spec.tgrid.steps
        coords = spec.grid.coords().tolist()
        _write_csv(
            args.out / "solve_snapshots.csv",
            cfg.digest,
            ["level", "time", *"xy"[: spec.grid.dim], "theta", "phi"],
            (
                (k, series["times"][k], *xy, theta, phi)
                for k in sorted({*range(0, steps + 1, cfg.snapshot_stride), steps})
                for xy, theta, phi in zip(coords, traj.theta[k].tolist(), traj.phi[k].tolist())
            ),
        )
    return _EXIT_OK


def _cmd_adjoint(cfg, args) -> int:
    spec = cfg.spec
    state = solve_state(cfg.control, spec)
    t0 = time.perf_counter()
    grad = solve_adjoint(state, spec)
    print(f"adjoint: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    h = smooth_direction(spec, np.random.default_rng(args.seed))
    tan = solve_tangent(h, state, spec)
    lhs = lq_inner(grad, h, spec)
    rhs = dj_along_tangent(tan, state, spec.cost)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0e-300)
    _write_report(
        cfg,
        args,
        seed=args.seed,
        gradient_lq_norm=lq_norm(grad, spec),
        gradient_sup_norm=float(np.max(np.abs(grad))),
        duality_lhs=lhs,
        duality_rhs=rhs,
        duality_rel_gap=gap,
        y_norm=trajectory_y_norm(tan.dtheta, tan.dphi, spec.grid, spec.tgrid),
        dtheta_norms=spec.grid.h_norm(tan.dtheta).tolist(),
        dphi_norms=spec.grid.h_norm(tan.dphi).tolist(),
        max_dphi_mean=float(np.max(np.abs(spec.grid.mean(tan.dphi)))),
    )
    return _EXIT_OK


def _cmd_optimize(cfg, args) -> int:
    spec = cfg.spec
    t0 = time.perf_counter()
    report = optimize(spec, cfg.control, cfg.optimize)
    print(
        f"optimize: {report.iterations} iterations, termination {report.termination}, "
        f"{time.perf_counter() - t0:.3f}s",
        file=sys.stderr,
    )
    fields = dataclasses.asdict(report)
    u = fields.pop("u_opt")
    _write_report(
        cfg, args, **fields, j_final=report.j_final, residual_final=report.residual_final
    )
    if args.out is not None:
        # Row k describes iterate k; evaluations counts the state solves that
        # accepting it cost, so it is empty on the starting row.
        _write_csv(
            args.out / "optimize_history.csv",
            cfg.digest,
            ["iteration", "j", "residual", "evaluations"],
            zip(
                count(),
                report.j_history,
                report.residual_history,
                ["", *report.evaluations_history],
            ),
        )
        control = {"config_digest": cfg.digest, "shape": list(u.shape), "values": u.tolist()}
        _write_json(control, args.out, "control.json")
    return _EXIT_OK if report.termination == "stationary" else _EXIT_SOLVER


#: probe --name: the probe run on (config, arguments).
_PROBES = {
    "frechet": lambda cfg, a: frechet_remainder_probe(cfg.control, cfg.spec, seed=a.seed),
    "refinement": lambda cfg, a: lipschitz_refinement_probe(
        cfg.spec, n_pairs=a.samples, seed=a.seed
    ),
    "yosida": lambda cfg, a: yosida_convergence_probe(cfg.spec, seed=a.seed),
    "energy": lambda cfg, a: energy_probe(cfg.spec, steps=a.steps),
    "separation": lambda cfg, a: separation_probe(cfg.spec, n_controls=a.samples, seed=a.seed),
}


def _cmd_check(cfg, args) -> int:
    t0 = time.perf_counter()
    if args.command == "gradcheck":
        name = "gradcheck_report.json"
        report = fd_gradient_check(
            cfg.control, cfg.spec, n_directions=args.directions, seed=args.seed, tol=args.tol
        )
    else:
        name = f"probe_{args.name}_report.json"
        report = _PROBES[args.name](cfg, args)
    print(
        f"{args.command} {report.name}: passed={report.passed}, {time.perf_counter() - t0:.3f}s",
        file=sys.stderr,
    )
    _write_json({**dataclasses.asdict(report), "config_digest": cfg.digest}, args.out, name)
    return _EXIT_OK if report.passed else _EXIT_CHECK


# argparse names a type function in its message for an unparsable value
# ("invalid _count value: 'x'"), so these stay named functions.
def _count(text: str, minimum: int = 1) -> int:
    """An argparse type: an integer count of at least minimum."""
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _seed(text: str) -> int:
    """An argparse type: a NumPy seed, an integer of at least 0."""
    return _count(text, minimum=0)


def _tolerance(text: str) -> float:
    """An argparse type: a finite float above zero (nan fails every comparison)."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


#: Subcommand: (help text, handler). Each takes --config and --out.
_COMMANDS = {
    "solve": ("run the forward solver", _cmd_solve),
    "adjoint": ("adjoint gradient, tangent norms and their duality gap", _cmd_adjoint),
    "gradcheck": ("adjoint gradient against the FD oracle", _cmd_check),
    "optimize": ("projected L-BFGS optimization", _cmd_optimize),
    "probe": ("run a verification probe", _cmd_check),
}

#: Subcommand: its --seed default.
_SEEDS = {"adjoint": 0, "gradcheck": 7, "probe": 0}


# Built once per process: a parser is a web of reference cycles (actions,
# groups, formatters) that only a full garbage collection frees.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfcontrol",
        description="Distributed optimal control of a conserved phase-field system.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_text, fn) in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument(
            "--out", type=Path, default=None, help="output directory for report and data files"
        )
        p.set_defaults(fn=fn)
    gradcheck, probe = parsers["gradcheck"], parsers["probe"]
    probe.add_argument("--name", required=True, choices=list(_PROBES))  # before --seed in usage
    for name, default in _SEEDS.items():
        parsers[name].add_argument("--seed", type=_seed, default=default)
    gradcheck.add_argument("--directions", type=_count, default=5)
    gradcheck.add_argument("--tol", type=_tolerance, default=1.0e-6)
    probe.add_argument("--samples", type=_count, default=10, help="controls or pairs to sample")
    probe.add_argument("--steps", type=_count, default=256, help="time steps for the energy probe")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"usage error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return _EXIT_CONFIG
    try:
        return args.fn(load_config(args.config), args)
    except ConfigError as exc:  # a ValidationError lists every violation
        for line in getattr(exc, "violations", [exc]):
            print(f"config error: {line}", file=sys.stderr)
        return _EXIT_CONFIG
    except PfcError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
