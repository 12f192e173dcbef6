"""JSON run configuration: parsing, validation and spec construction.

A config is one JSON object with the sections below (all optional unless
marked required):

    grid      (required)  {"cells": [nx] or [nx, ny], "lengths": [...]}
    time      (required)  {"horizon": T, "steps": Nt}
    physics               {"visc": 0.0, "latent": 1.0, "coupling": 1.0}
    potential             {"kind": "quartic" | "logarithmic" | "loglinear",
                           "c": 2.0, "eps": 0.0}
    initial   (required)  {"theta": <field>, "phi": <field>}
    cost                  {"w_theta": .., "w_phi": .., "w_theta_final": ..,
                           "w_phi_final": .., "theta_target": <field or number>,
                           "phi_target": .., "theta_final_target": ..,
                           "phi_final_target": ..}
    box                   {"lower": <number or field>, "upper": ..}
    optimize              {"stat_tol": 1e-6, "max_iter": 500, "starts": [seeds >= 0]}
    control               {"kind": "zeros" | "constant" | "random" | "values",
                           "value": .., "seed": >= 0}  (source / initial control)
    output                {"snapshot_stride": k}   (write field snapshots every
                           k time levels when an output directory is given;
                           0 disables snapshots)

A <field> is a number (constant), an explicit value list, or one of

    {"kind": "constant", "value": v}
    {"kind": "cosine", "amplitude": a, "modes": [m per axis], "offset": b}
    {"kind": "values", "values": [...]}

The cosine kind builds a * prod_i cos(m_i * pi * x_i / L_i) + b, which has
zero boundary flux for integer modes. Validation is collecting: every
violation found is reported, not just the first. A top-level section or a
section key that no parser branch reads is a violation, not ignored. The
per-step Newton solve has no section: its tolerance and budgets are
constants of the dynamics module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .control import OptimizeOptions, random_admissible_control
from .errors import ParseError, ValidationError
from .grid import Grid, TimeGrid
from .potential import log_double_well, log_linear, quartic_double_well
from .problem import ControlBox, CostSpec, InitialData, PhysicsParams, ProblemSpec

__all__ = ["RunConfig", "load_config", "parse_config", "config_digest", "build_field"]

_POTENTIALS = ("quartic", "logarithmic", "loglinear")
_CONTROL_KINDS = ("zeros", "constant", "random", "values")
#: Keys a section may hold: every key some parser branch reads (potential.c
#: is read for the logarithmic kind only, but accepted with any kind).
_KNOWN_KEYS = {
    "grid": ("cells", "lengths"),
    "time": ("horizon", "steps"),
    "physics": ("visc", "latent", "coupling"),
    "potential": ("kind", "c", "eps"),
    "initial": ("theta", "phi"),
    "cost": ("w_theta", "w_phi", "w_theta_final", "w_phi_final", "theta_target",
             "phi_target", "theta_final_target", "phi_final_target"),
    "box": ("lower", "upper"),
    "optimize": ("stat_tol", "max_iter", "starts"),
    "control": ("kind", "value", "seed", "values"),
    "output": ("snapshot_stride",),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated run: the problem spec plus everything around it."""

    spec: ProblemSpec
    optimize: OptimizeOptions
    control: dict
    digest: str
    snapshot_stride: int = 0

    def initial_control(self) -> np.ndarray:
        """Materialize the configured control / source term."""
        shape = (self.spec.tgrid.steps, self.spec.grid.ncells)
        kind = self.control.get("kind", "zeros")
        if kind == "zeros":
            return np.zeros(shape)
        if kind == "constant":
            return np.full(shape, float(self.control.get("value", 0.0)))
        if kind == "random":
            return random_admissible_control(self.spec, int(self.control.get("seed", 0)))
        return np.asarray(self.control["values"], dtype=float)


class _Collector:
    """Accumulates violation messages so a config is validated in one pass."""

    def __init__(self):
        self.errors: list[str] = []

    def add(self, msg: str) -> None:
        self.errors.append(msg)

    def number(self, section: dict, key: str, default, where: str, minimum=None, strict=False):
        value = section.get(key, default)
        if value is None:
            self.add(f"{where}.{key}: missing required value")
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.add(f"{where}.{key}: expected a number, got {value!r}")
            return default
        value = float(value)
        if not math.isfinite(value):
            self.add(f"{where}.{key}: must be finite")
            return default
        if minimum is not None:
            if strict and value <= minimum:
                self.add(f"{where}.{key}: must be > {minimum}, got {value!r}")
            elif not strict and value < minimum:
                self.add(f"{where}.{key}: must be >= {minimum}, got {value!r}")
        return value

    def integer(self, section: dict, key: str, default, where: str, minimum=None):
        value = section.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            self.add(f"{where}.{key}: expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.add(f"{where}.{key}: must be >= {minimum}, got {value!r}")
        return value

    def section(self, raw: dict, key: str, required: bool = False) -> dict:
        value = raw.get(key)
        if value is None:
            if required:
                self.add(f"{key}: missing required section")
            return {}
        if not isinstance(value, dict):
            self.add(f"{key}: expected an object, got {type(value).__name__}")
            return {}
        return value


def build_field(spec: Any, grid: Grid, where: str, errors: "_Collector") -> np.ndarray:
    """Resolve a <field> config entry to flat cell values on the grid."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return np.full(grid.ncells, float(spec))
    if isinstance(spec, list):
        arr = np.asarray(spec, dtype=float).ravel()
        if arr.shape != (grid.ncells,):
            errors.add(f"{where}: {arr.size} values for {grid.ncells} cells")
            return np.zeros(grid.ncells)
        return arr
    if not isinstance(spec, dict):
        errors.add(f"{where}: expected a number, list or object, got {spec!r}")
        return np.zeros(grid.ncells)
    kind = spec.get("kind")
    if kind == "constant":
        return np.full(grid.ncells, float(spec.get("value", 0.0)))
    if kind == "values":
        arr = np.asarray(spec.get("values", []), dtype=float).ravel()
        if arr.shape != (grid.ncells,):
            errors.add(f"{where}: {arr.size} values for {grid.ncells} cells")
            return np.zeros(grid.ncells)
        return arr
    if kind == "cosine":
        amplitude = float(spec.get("amplitude", 1.0))
        offset = float(spec.get("offset", 0.0))
        modes = spec.get("modes", [1] * grid.dim)
        if not isinstance(modes, list) or len(modes) != grid.dim:
            errors.add(f"{where}.modes: expected {grid.dim} entries")
            return np.zeros(grid.ncells)
        pts = grid.coords()
        values = np.full(grid.ncells, amplitude)
        for axis, (m, length) in enumerate(zip(modes, grid.lengths)):
            values = values * np.cos(float(m) * np.pi * pts[:, axis] / length)
        return values + offset
    errors.add(f"{where}.kind: unknown field kind {kind!r}")
    return np.zeros(grid.ncells)


def _target_entry(section: dict, key: str, grid: Grid, errors: "_Collector"):
    """Cost targets may be scalars, fields or full (steps, ncells) value arrays."""
    value = section.get(key, 0.0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, dict) and value.get("kind") == "values":
        arr = np.asarray(value.get("values", []), dtype=float)
        if arr.ndim == 2:
            return arr
    return build_field(value, grid, f"cost.{key}", errors)


def config_digest(raw: dict) -> str:
    """sha256 of the canonical JSON serialization of the parsed config."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed config object and build the run. Raises
    ValidationError carrying every violation found."""
    if not isinstance(raw, dict):
        raise ParseError(f"config root must be an object, got {type(raw).__name__}")
    col = _Collector()
    for name, section in raw.items():
        if name not in _KNOWN_KEYS:
            col.add(f"{name}: unknown section")
        elif isinstance(section, dict):
            for key in section:
                if key not in _KNOWN_KEYS[name]:
                    col.add(f"{name}.{key}: unknown key")

    grid_sec = col.section(raw, "grid", required=True)
    cells = grid_sec.get("cells")
    grid = None
    if not isinstance(cells, list) or not cells or len(cells) > 2:
        col.add("grid.cells: expected a list of 1 or 2 positive integers")
    elif not all(isinstance(c, int) and not isinstance(c, bool) for c in cells):
        col.add(f"grid.cells: expected integers, got {cells!r}")
    else:
        lengths = grid_sec.get("lengths", [1.0] * len(cells))
        try:
            grid = Grid(tuple(cells), tuple(float(L) for L in lengths))
        except (ValueError, TypeError) as exc:
            col.add(f"grid: {exc}")
    if grid is None:
        grid = Grid((2,))

    time_sec = col.section(raw, "time", required=True)
    horizon = col.number(time_sec, "horizon", None, "time", minimum=0.0, strict=True)
    steps = col.integer(time_sec, "steps", 1, "time", minimum=1)
    # Recorded violations keep the run invalid; the placeholders below only
    # keep later checks alive.
    tgrid = TimeGrid(horizon if horizon and horizon > 0 else 1.0, max(steps, 1))

    phys_sec = col.section(raw, "physics")
    physics = PhysicsParams(
        visc=max(col.number(phys_sec, "visc", 0.0, "physics", minimum=0.0), 0.0),
        latent=max(col.number(phys_sec, "latent", 1.0, "physics", minimum=0.0), 0.0),
        coupling=max(col.number(phys_sec, "coupling", 1.0, "physics", minimum=0.0), 0.0),
    )

    pot_sec = col.section(raw, "potential")
    kind = pot_sec.get("kind", "quartic")
    eps = max(col.number(pot_sec, "eps", 0.0, "potential", minimum=0.0), 0.0)
    potential = quartic_double_well(eps)
    if kind == "logarithmic":
        c = col.number(pot_sec, "c", 2.0, "potential", minimum=0.0, strict=True)
        if c and c > 0:
            potential = log_double_well(c=c, yosida_eps=eps)
    elif kind == "loglinear":
        potential = log_linear(eps)
    elif kind != "quartic":
        col.add(f"potential.kind: expected one of {_POTENTIALS}, got {kind!r}")

    init_sec = col.section(raw, "initial", required=True)
    theta0 = build_field(init_sec.get("theta", 0.0), grid, "initial.theta", col)
    phi0 = build_field(init_sec.get("phi", 0.0), grid, "initial.phi", col)
    init = InitialData(theta0=theta0, phi0=phi0)

    cost_sec = col.section(raw, "cost")
    cost = CostSpec(
        w_theta=max(col.number(cost_sec, "w_theta", 0.0, "cost", minimum=0.0), 0.0),
        w_phi=max(col.number(cost_sec, "w_phi", 0.0, "cost", minimum=0.0), 0.0),
        w_theta_final=max(col.number(cost_sec, "w_theta_final", 0.0, "cost", minimum=0.0), 0.0),
        w_phi_final=max(col.number(cost_sec, "w_phi_final", 0.0, "cost", minimum=0.0), 0.0),
        theta_target=_target_entry(cost_sec, "theta_target", grid, col),
        phi_target=_target_entry(cost_sec, "phi_target", grid, col),
        theta_final_target=_target_entry(cost_sec, "theta_final_target", grid, col),
        phi_final_target=_target_entry(cost_sec, "phi_final_target", grid, col),
    )

    box_sec = col.section(raw, "box")
    box = ControlBox(
        lower=_target_entry(box_sec, "lower", grid, col) if "lower" in box_sec else -1.0,
        upper=_target_entry(box_sec, "upper", grid, col) if "upper" in box_sec else 1.0,
    )

    opt_sec = col.section(raw, "optimize")
    starts = opt_sec.get("starts", [])
    if not isinstance(starts, list):
        col.add(f"optimize.starts: expected a list of integer seeds, got {starts!r}")
        starts = []
    starts = [col.integer({"starts": s}, "starts", 0, "optimize", minimum=0) for s in starts]
    optimize_opts = OptimizeOptions(
        stat_tol=col.number(opt_sec, "stat_tol", 1.0e-6, "optimize", minimum=0.0, strict=True),
        max_iter=col.integer(opt_sec, "max_iter", 500, "optimize", minimum=0),
        starts=tuple(starts),
    )

    control_sec = col.section(raw, "control")
    control = dict(control_sec) if control_sec else {"kind": "zeros"}
    ckind = control.get("kind", "zeros")
    if ckind not in _CONTROL_KINDS:
        col.add(f"control.kind: expected one of {_CONTROL_KINDS}, got {ckind!r}")
    elif ckind == "random":
        col.integer(control, "seed", 0, "control", minimum=0)
    elif ckind == "values":
        values = np.asarray(control.get("values", []), dtype=float)
        if values.shape != (tgrid.steps, grid.ncells):
            col.add(
                f"control.values: shape {values.shape} != {(tgrid.steps, grid.ncells)}"
            )

    out_sec = col.section(raw, "output")
    snapshot_stride = col.integer(out_sec, "snapshot_stride", 0, "output", minimum=0)

    spec = ProblemSpec(
        grid=grid,
        tgrid=tgrid,
        physics=physics,
        potential=potential,
        init=init,
        cost=cost,
        box=box,
    )
    col.errors.extend(spec.validate())
    if col.errors:
        raise ValidationError(col.errors)
    return RunConfig(
        spec=spec,
        optimize=optimize_opts,
        control=control,
        digest=config_digest(raw),
        snapshot_stride=max(snapshot_stride, 0),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read, decode and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
