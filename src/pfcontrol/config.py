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
                           "w_phi_final": .., "theta_target": <field>,
                           "phi_target": .., "theta_final_target": ..,
                           "phi_final_target": ..}
    box                   {"lower": <field>, "upper": ..}
    optimize              {"stat_tol": 1e-6, "max_iter": 500, "starts": [seeds >= 0]}
    control               {"kind": "zeros" | "constant" | "random" | "values",
                           "value": .., "seed": >= 0, "values": [[..]]}
                          (source / initial control)
    output                {"snapshot_stride": k}   (write field snapshots every
                           k time levels when an output directory is given;
                           0 disables snapshots)

A <field> is a number (constant), a list of values (shorthand for the values
kind), or one of

    {"kind": "constant", "value": v}
    {"kind": "cosine", "amplitude": a, "modes": [m per axis], "offset": b}
    {"kind": "values", "values": [...]}

build_field is the one reader of this grammar. A value list holds ncells
values in any nesting; cost targets and box bounds also take exactly
(steps, ncells) values, one field per time level. The control is built once,
here: its values list is exactly (steps, ncells), and a random control is
drawn only from a valid spec. Every number must be finite, and every list
(grid.lengths too) must be a list of numbers only; a violation names its
key path (for example cost.theta_target.amplitude). The cosine kind builds
a * prod_i cos(m_i * pi * x_i / L_i) + b, which has zero boundary flux for
integer modes. Validation is collecting: every violation found is reported,
not just the first, those of the ProblemSpec constructor (initial data,
box, target shapes, viscosity of an exact singular well) after the
readers'. A top-level section, a section key or a <field> key that no
parser branch reads is a violation, not ignored. The per-step
Newton solve has no section: its tolerance and budgets are constants of the
dynamics module.
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
from .problem import ControlBox, CostSpec, InitialData, PhysicsParams, ProblemSpec, broadcast

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
#: Keys a <field> object of each kind may hold.
_FIELD_KEYS = {
    "constant": ("kind", "value"),
    "values": ("kind", "values"),
    "cosine": ("kind", "amplitude", "modes", "offset"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated run: the problem spec plus everything around it. control
    is the configured control / source term, one read-only (steps, ncells)
    array built at parse time."""

    spec: ProblemSpec
    optimize: OptimizeOptions
    control: np.ndarray
    digest: str
    snapshot_stride: int = 0

    def initial_control(self) -> np.ndarray:
        """The same array as control. New code reads control; this stays for
        perfbench/setup_probe.py, which calls it."""
        return self.control


class _Collector:
    """Accumulates violation messages so a config is validated in one pass.
    A reader that records a violation returns its default, so the run built
    from the placeholders stays constructible and later checks still run."""

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
        if minimum is not None and (value <= minimum if strict else value < minimum):
            self.add(f"{where}.{key}: must be {'>' if strict else '>='} {minimum}, got {value!r}")
            return default
        return value

    def integer(self, section: dict, key: str, default, where: str, minimum=None):
        value = section.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            self.add(f"{where}.{key}: expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.add(f"{where}.{key}: must be >= {minimum}, got {value!r}")
            return default
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


def _numbers(values: Any, where: str, errors: _Collector, *shapes) -> np.ndarray:
    """A list of finite numbers as a float array of the first of shapes it
    fits, where a shape (n,) takes n values in any nesting. A violation is
    recorded and zeros of the first shape returned."""
    try:
        arr = np.asarray(values if isinstance(values, list) else None)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        errors.add(f"{where}: expected a list of numbers")
    elif not np.all(np.isfinite(arr)):
        errors.add(f"{where}: must be finite")
    else:
        arr = np.asarray(arr, dtype=float)
        for shape in shapes:
            if arr.shape == shape:
                return arr
            if len(shape) == 1 and arr.size == shape[0]:
                return arr.ravel()
        errors.add(f"{where}: shape {arr.shape}, expected {' or '.join(map(str, shapes))}")
    return np.zeros(shapes[0])


def build_field(entry: Any, grid: Grid, where: str, errors: _Collector, steps: int = 0):
    """Resolve the <field> config entry at key path where: a number or a
    constant as a float, anything else as cell values of shape (ncells,) or,
    when steps > 0, (steps, ncells). A violation is recorded and a
    placeholder returned."""
    shapes = ((steps, grid.ncells), (grid.ncells,)) if steps > 0 else ((grid.ncells,),)
    if isinstance(entry, list):
        return _numbers(entry, where, errors, *shapes)
    if not isinstance(entry, dict):
        section, _, key = where.rpartition(".")
        return errors.number({key: entry}, key, 0.0, section)
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _FIELD_KEYS:
        errors.add(f"{where}.kind: unknown field kind {kind!r}")
        return 0.0
    for key in entry:
        if key not in _FIELD_KEYS[kind]:
            errors.add(f"{where}.{key}: unknown key")
    if kind == "constant":
        return errors.number(entry, "value", 0.0, where)
    if kind == "values":
        return _numbers(entry.get("values", []), f"{where}.values", errors, *shapes)
    amplitude = errors.number(entry, "amplitude", 1.0, where)
    offset = errors.number(entry, "offset", 0.0, where)
    modes = _numbers(entry.get("modes", [1] * grid.dim), f"{where}.modes", errors, (grid.dim,))
    pts = grid.coords()
    values = np.full(grid.ncells, amplitude)
    for axis, (m, length) in enumerate(zip(modes, grid.lengths)):
        values = values * np.cos(m * np.pi * pts[:, axis] / length)
    return values + offset


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
        n_errors = len(col.errors)
        lengths = grid_sec.get("lengths", [1.0] * len(cells))
        lengths = _numbers(lengths, "grid.lengths", col, (len(cells),))
        if len(col.errors) == n_errors:
            try:
                grid = Grid(tuple(cells), lengths)
            except ValueError as exc:
                col.add(f"grid: {exc}")
    if grid is None:
        grid = Grid((2,))

    time_sec = col.section(raw, "time", required=True)
    horizon = col.number(time_sec, "horizon", None, "time", minimum=0.0, strict=True)
    steps = col.integer(time_sec, "steps", 1, "time", minimum=1)
    tgrid = TimeGrid(horizon or 1.0, steps)

    phys_sec = col.section(raw, "physics")
    physics = PhysicsParams(
        visc=col.number(phys_sec, "visc", 0.0, "physics", minimum=0.0),
        latent=col.number(phys_sec, "latent", 1.0, "physics", minimum=0.0),
        coupling=col.number(phys_sec, "coupling", 1.0, "physics", minimum=0.0),
    )

    pot_sec = col.section(raw, "potential")
    kind = pot_sec.get("kind", "quartic")
    eps = col.number(pot_sec, "eps", 0.0, "potential", minimum=0.0)
    potential = quartic_double_well(eps)
    if kind == "logarithmic":
        c = col.number(pot_sec, "c", 2.0, "potential", minimum=0.0, strict=True)
        potential = log_double_well(c=c, yosida_eps=eps)
    elif kind == "loglinear":
        potential = log_linear(eps)
    elif kind != "quartic":
        col.add(f"potential.kind: expected one of {_POTENTIALS}, got {kind!r}")

    init_sec = col.section(raw, "initial", required=True)
    theta0 = build_field(init_sec.get("theta", 0.0), grid, "initial.theta", col)
    phi0 = build_field(init_sec.get("phi", 0.0), grid, "initial.phi", col)
    init = InitialData(
        theta0=broadcast(theta0, (grid.ncells,), "initial.theta"),
        phi0=broadcast(phi0, (grid.ncells,), "initial.phi"),
    )

    cost_sec = col.section(raw, "cost")
    cost = CostSpec(
        w_theta=col.number(cost_sec, "w_theta", 0.0, "cost", minimum=0.0),
        w_phi=col.number(cost_sec, "w_phi", 0.0, "cost", minimum=0.0),
        w_theta_final=col.number(cost_sec, "w_theta_final", 0.0, "cost", minimum=0.0),
        w_phi_final=col.number(cost_sec, "w_phi_final", 0.0, "cost", minimum=0.0),
        **{
            key: build_field(cost_sec.get(key, 0.0), grid, f"cost.{key}", col, tgrid.steps)
            for key in ("theta_target", "phi_target", "theta_final_target", "phi_final_target")
        },
    )

    box_sec = col.section(raw, "box")
    box = ControlBox(
        lower=build_field(box_sec.get("lower", -1.0), grid, "box.lower", col, tgrid.steps),
        upper=build_field(box_sec.get("upper", 1.0), grid, "box.upper", col, tgrid.steps),
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
    ckind = control_sec.get("kind", "zeros")
    shape = (tgrid.steps, grid.ncells)
    if ckind == "zeros":
        control = np.zeros(shape)
    elif ckind == "constant":
        control = np.full(shape, col.number(control_sec, "value", 0.0, "control"))
    elif ckind == "random":
        seed = col.integer(control_sec, "seed", 0, "control", minimum=0)
    elif ckind == "values":
        control = _numbers(control_sec.get("values", []), "control.values", col, shape)
    else:
        col.add(f"control.kind: expected one of {_CONTROL_KINDS}, got {ckind!r}")

    out_sec = col.section(raw, "output")
    snapshot_stride = col.integer(out_sec, "snapshot_stride", 0, "output", minimum=0)

    try:
        spec = ProblemSpec(
            grid=grid,
            tgrid=tgrid,
            physics=physics,
            potential=potential,
            init=init,
            cost=cost,
            box=box,
        )
    except ValidationError as exc:
        col.errors.extend(exc.violations)
    if col.errors:
        raise ValidationError(col.errors)
    if ckind == "random":
        control = random_admissible_control(spec, seed)
    control.flags.writeable = False
    return RunConfig(
        spec=spec,
        optimize=optimize_opts,
        control=control,
        digest=config_digest(raw),
        snapshot_stride=snapshot_stride,
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
