"""Command-line front end.

Subcommands: solve, adjoint, gradcheck, optimize, probe. main
creates --out DIR, then loads the JSON config (--config) once and hands it
to the command, which writes its JSON report to stdout or into that directory.
With --out, solve also writes a per-level time series CSV (and field
snapshot rows every output.snapshot_stride levels), and optimize writes its
iteration history CSV plus the final control. Every output file carries the
config digest. The solve, adjoint and optimize reports carry the command
and the version with it; gradcheck and probe write the check's
report (name, seed, measured, thresholds, passed). The counts --directions,
--samples and --steps are at least 1, --seed at least 0, gradcheck --tol
finite and above 0. Outputs are deterministic: reruns are byte-identical,
timing goes to stderr only.

Exit codes: 0 success, 1 solver failure or non-converged optimization,
2 invalid config or usage (an --out that cannot be made a directory too),
3 a check or probe ran but did not pass.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import dj_along_tangent, solve_adjoint
from .config import load_config
from .control import lq_inner, lq_norm, optimize
from .dynamics import mixture_energy, solve_state, solve_tangent
from .errors import ConfigError, PfcError, ValidationError
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


def _write_json(payload: dict, path: Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


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


def _report_path(args, name: str) -> Path | None:
    return args.out / name if args.out is not None else None


def _write_report(cfg, args, **fields) -> None:
    """The command's report, opened by its command, version and config
    digest, to stdout or into --out as <command>_report.json."""
    payload = {"command": args.command, "version": __version__, "config_digest": cfg.digest}
    _write_json({**payload, **fields}, _report_path(args, f"{args.command}_report.json"))


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_solve(cfg, args) -> int:
    spec = cfg.spec
    t0 = time.perf_counter()
    traj = solve_state(cfg.control, spec)
    _info(f"solve: {spec.tgrid.steps} steps in {time.perf_counter() - t0:.3f}s")
    times = spec.tgrid.times()
    means = traj.phase_mean_history()
    energies = [mixture_energy(spec.grid, spec.potential, lv) for lv in traj.phi]
    theta_norms = [spec.grid.h_norm(lv) for lv in traj.theta]
    phi_norms = [spec.grid.h_norm(lv) for lv in traj.phi]
    _write_report(
        cfg,
        args,
        times=times.tolist(),
        phase_mean=means.tolist(),
        energy=energies,
        theta_norms=theta_norms,
        phi_norms=phi_norms,
        theta_final=traj.theta[-1].tolist(),
        phi_final=traj.phi[-1].tolist(),
    )
    if args.out is None:
        return _EXIT_OK
    _write_csv(
        args.out / "solve_timeseries.csv",
        cfg.digest,
        ["level", "time", "phase_mean", "energy", "theta_h", "phi_h"],
        (
            (k, float(times[k]), float(means[k]), energies[k], theta_norms[k], phi_norms[k])
            for k in range(spec.tgrid.steps + 1)
        ),
    )
    if cfg.snapshot_stride > 0:
        stride = cfg.snapshot_stride
        levels = sorted(set(range(0, spec.tgrid.steps + 1, stride)) | {spec.tgrid.steps})
        coords = spec.grid.coords()
        axis_names = ["x", "y"][: spec.grid.dim]
        _write_csv(
            args.out / "solve_snapshots.csv",
            cfg.digest,
            ["level", "time", *axis_names, "theta", "phi"],
            (
                (
                    k,
                    float(times[k]),
                    *(float(c) for c in coords[i]),
                    float(traj.theta[k, i]),
                    float(traj.phi[k, i]),
                )
                for k in levels
                for i in range(spec.grid.ncells)
            ),
        )
    return _EXIT_OK


def _cmd_adjoint(cfg, args) -> int:
    spec = cfg.spec
    state = solve_state(cfg.control, spec)
    t0 = time.perf_counter()
    grad = solve_adjoint(state, spec)
    _info(f"adjoint: {time.perf_counter() - t0:.3f}s")
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
        dtheta_norms=[spec.grid.h_norm(lv) for lv in tan.dtheta],
        dphi_norms=[spec.grid.h_norm(lv) for lv in tan.dphi],
        max_dphi_mean=float(np.max(np.abs(tan.dphi.sum(axis=1) / spec.grid.ncells))),
    )
    return _EXIT_OK


def _cmd_optimize(cfg, args) -> int:
    spec = cfg.spec
    t0 = time.perf_counter()
    report = optimize(spec, cfg.control, cfg.optimize)
    _info(
        f"optimize: {report.iterations} iterations, termination {report.termination}, "
        f"{time.perf_counter() - t0:.3f}s"
    )
    _write_report(
        cfg,
        args,
        iterations=report.iterations,
        termination=report.termination,
        j_history=report.j_history,
        residual_history=report.residual_history,
        evaluations_history=report.evaluations_history,
        j_final=report.j_final,
        residual_final=report.residual_final,
        bang_bang=dataclasses.asdict(report.bang_bang),
        start_seed=report.start_seed,
    )
    if args.out is not None:
        # Row k describes iterate k; evaluations counts the state solves that
        # accepting it cost, so it is empty on the starting row.
        _write_csv(
            args.out / "optimize_history.csv",
            cfg.digest,
            ["iteration", "j", "residual", "evaluations"],
            zip(
                range(len(report.j_history)),
                report.j_history,
                report.residual_history,
                ["", *report.evaluations_history],
            ),
        )
        _write_json(
            {
                "config_digest": cfg.digest,
                "shape": list(report.u_opt.shape),
                "values": report.u_opt.tolist(),
            },
            args.out / "control.json",
        )
    return _EXIT_OK if report.termination == "stationary" else _EXIT_SOLVER


def _gradcheck(cfg, a):
    return fd_gradient_check(
        cfg.control, cfg.spec, n_directions=a.directions, seed=a.seed, tol=a.tol
    )


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
    """gradcheck, or probe --name: time the check for stderr, write its
    report with the config digest, and exit 3 when it did not pass."""
    if args.command == "gradcheck":
        check, report_name = _gradcheck, "gradcheck_report.json"
    else:
        check, report_name = _PROBES[args.name], f"probe_{args.name}_report.json"
    t0 = time.perf_counter()
    report = check(cfg, args)
    _info(f"{args.command} {report.name}: passed={report.passed}, {time.perf_counter() - t0:.3f}s")
    payload = {**dataclasses.asdict(report), "config_digest": cfg.digest}
    _write_json(payload, _report_path(args, report_name))
    return _EXIT_OK if report.passed else _EXIT_CHECK


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfcontrol",
        description="Distributed optimal control of a conserved phase-field system.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument(
            "--out", type=Path, default=None, help="output directory for report and data files"
        )

    p = sub.add_parser("solve", help="run the forward solver")
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("adjoint", help="adjoint gradient, tangent norms and their duality gap")
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_adjoint)

    p = sub.add_parser("gradcheck", help="adjoint gradient against the FD oracle")
    common(p)
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--directions", type=_count, default=5)
    p.add_argument("--tol", type=_tolerance, default=1.0e-6)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("optimize", help="projected L-BFGS optimization")
    common(p)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("probe", help="run a verification probe")
    common(p)
    p.add_argument(
        "--name",
        required=True,
        choices=list(_PROBES),
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=_count, default=10, help="controls or pairs to sample")
    p.add_argument("--steps", type=_count, default=256, help="time steps for the energy probe")
    p.set_defaults(fn=_cmd_check)
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
    except ValidationError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return _EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except PfcError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
