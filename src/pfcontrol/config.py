"""JSON run configuration: parsing, validation and spec construction.

A config is one JSON object with the sections below (all optional unless
marked required):

    grid      (required)  {"cells": [nx] or [nx, ny], "lengths": [...]}
    time      (required)  {"horizon": T, "steps": Nt}
    physics               {"visc": .., "latent": .., "coupling": ..}
    potential             {"kind": "quartic" | "logarithmic" | "loglinear",
                           "c": 2.0 (logarithmic only), "eps": 0.0}
    initial   (required)  {"theta": <field>, "phi": <field>}
    cost                  {"w_theta": .., "w_phi": .., "w_theta_final": ..,
                           "w_phi_final": .., "theta_target": <field>,
                           "phi_target": .., "theta_final_target": ..,
                           "phi_final_target": ..}
    box                   {"lower": <field>, "upper": ..}
    optimize              {"stat_tol": .., "max_iter": .., "starts": [seeds >= 0]}
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
values in any nesting; cost targets and box bounds also take exactly (steps,
ncells) values, one field per time level. The control is built once, here:
its values list is exactly (steps, ncells), and a random control is drawn
only from a valid spec. Every number must be finite, and every list
(grid.lengths too) must be a list of numbers only; a violation names its key
path (for example cost.theta_target.amplitude). An integer too large for a
double is not finite either. time.steps, optimize.max_iter, the
optimize.starts seeds, control.seed and output.snapshot_stride are integers:
2.0 or true is a violation there. Without grid.lengths the grid takes Grid's
unit lengths; the cell spacings h must keep h**2 and the Laplacian's largest
eigenvalue, sum(4 / h**2), finite (in 1D, h between about 1.5e-154 and
1.3e154). grid.cells and time.steps must keep a trajectory, (steps + 1) x 3
x ncells doubles, within the largest array NumPy can index; whether it fits
in memory is not checked. A positive potential.eps must be at least about
3.6e-10: below it the Newton tolerance rises with the Yosida evaluation
noise, 16 ulp / eps, past 1e-5, and a smaller eps only gives a less
accurate solve. The cosine kind builds a * prod_i cos(m_i * pi * x_i / L_i)
+ b, which has zero boundary flux for integer modes. Validation is collecting: every violation
found is reported, not just the first, those of the ProblemSpec constructor
(initial data, box, target shapes, viscosity of an exact singular well,
Yosida eps) after the readers'. The readers are the only list of keys: a
top-level section, a section key or a <field> key that no reader takes is a
violation, and so is a key the chosen kind does not read (only the
logarithmic kind reads potential.c; control.value, seed and values are read
by the constant, random and values kinds). A key given twice in one JSON
object is a ParseError, and so is a file json cannot decode (an integer
literal of over 4,300 digits included, Python's conversion limit). A key
left out of physics, cost, box, optimize or output takes the default of its
field in PhysicsParams, CostSpec, ControlBox, OptimizeOptions or RunConfig.
The per-step Newton solve has no section: its tolerance and budgets are
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
from .problem import ControlBox, CostSpec, InitialData, PhysicsParams, ProblemSpec, broadcast

# parse_config is load_config without the file: the benchmark builds its
# configs in memory through it.
__all__ = ["RunConfig", "load_config", "parse_config", "config_digest"]

_POTENTIALS = ("quartic", "logarithmic", "loglinear")
_CONTROL_KINDS = ("zeros", "constant", "random", "values")
#: The most doubles one NumPy array can hold. A trajectory, (steps + 1) x 3 x
#: ncells doubles, must fit: a larger size fails in NumPy before any solve.
_MAX_DOUBLES = np.iinfo(np.intp).max // 8
_TOO_LARGE = "a trajectory of (steps + 1) x 3 x ncells doubles must fit one array"


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
    from the placeholders stays constructible and later checks still run.
    Readers pop their keys from copies handed out by section, so the keys
    left in sections[name] are the ones no reader took."""

    def __init__(self):
        self.errors: list[str] = []
        self.sections: dict[str, dict] = {}

    def add(self, msg: str) -> None:
        self.errors.append(msg)

    def number(self, section: dict, key: str, default, where: str, minimum=None, strict=False):
        """Pop section[key] as a finite float, or as an int when default is an
        int, and check it against minimum (strictly above it with strict).
        An absent key reads default, so a None default makes the number
        required. A violation is recorded and default returned."""
        value = section.pop(key, default)
        integer = isinstance(default, int)
        try:
            if value is None and not integer:
                error = "missing required value"
            elif isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
                error = f"expected {'an integer' if integer else 'a number'}, got {value!r}"
            elif not (integer or math.isfinite(value := float(value))):
                error = "must be finite"
            elif minimum is not None and (value <= minimum if strict else value < minimum):
                error = f"must be {'>' if strict else '>='} {minimum}, got {value!r}"
            else:
                return value
        except OverflowError:  # float() of a JSON integer beyond the largest double
            error = "must be finite"
        self.add(f"{where}.{key}: {error}")
        return default

    def section(self, raw: dict, key: str, required: bool = False) -> dict:
        value = raw.get(key)
        self.sections[key] = copy = dict(value) if isinstance(value, dict) else {}
        if value is None and required:
            self.add(f"{key}: missing required section")
        elif value is not None and not isinstance(value, dict):
            self.add(f"{key}: expected an object, got {type(value).__name__}")
        return copy


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
    entry = dict(entry)
    kind = entry.pop("kind", None)
    if kind not in ("constant", "values", "cosine"):
        errors.add(f"{where}.kind: unknown field kind {kind!r}")
        return 0.0
    start = len(errors.errors)
    if kind == "constant":
        values = errors.number(entry, "value", 0.0, where)
    elif kind == "values":
        values = _numbers(entry.pop("values", []), f"{where}.values", errors, *shapes)
    else:
        amplitude = errors.number(entry, "amplitude", 1.0, where)
        offset = errors.number(entry, "offset", 0.0, where)
        modes = _numbers(entry.pop("modes", [1] * grid.dim), f"{where}.modes", errors, (grid.dim,))
        pts = grid.coords()
        values = np.full(grid.ncells, amplitude)
        for axis, (m, length) in enumerate(zip(modes, grid.lengths)):
            values = values * np.cos(m * np.pi * pts[:, axis] / length)
        values = values + offset
    errors.errors[start:start] = [f"{where}.{key}: unknown key" for key in entry]
    return values


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
    grid_sec = col.section(raw, "grid", required=True)
    cells = grid_sec.pop("cells", None)
    lengths = grid_sec.pop("lengths", None)
    grid = Grid((2,))
    if not isinstance(cells, list) or not cells or len(cells) > 2:
        col.add("grid.cells: expected a list of 1 or 2 positive integers")
    elif not all(isinstance(c, int) and not isinstance(c, bool) for c in cells):
        col.add(f"grid.cells: expected integers, got {cells!r}")
    elif 2 * 3 * math.prod(cells) > _MAX_DOUBLES:  # steps + 1 >= 2 levels
        col.add(f"grid.cells: {_TOO_LARGE}")
    else:
        n_errors = len(col.errors)
        if "lengths" in raw["grid"]:  # given, even as null; else Grid's unit lengths
            lengths = _numbers(lengths, "grid.lengths", col, (len(cells),))
        if len(col.errors) == n_errors:
            try:
                grid = Grid(tuple(cells), lengths)
            except ValueError as exc:
                col.add(f"grid: {exc}")

    time_sec = col.section(raw, "time", required=True)
    horizon = col.number(time_sec, "horizon", None, "time", minimum=0.0, strict=True)
    steps = col.number(time_sec, "steps", 1, "time", minimum=1)
    if (steps + 1) * 3 * grid.ncells > _MAX_DOUBLES:
        col.add(f"time.steps: {_TOO_LARGE}")
        steps = 1
    tgrid = TimeGrid(horizon or 1.0, steps)

    phys_sec = col.section(raw, "physics")
    physics = PhysicsParams(
        **{
            key: col.number(phys_sec, key, default, "physics", minimum=0.0)
            for key, default in dataclasses.asdict(PhysicsParams()).items()
        }
    )

    pot_sec = col.section(raw, "potential")
    kind = pot_sec.pop("kind", "quartic")
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
    theta0 = build_field(init_sec.pop("theta", 0.0), grid, "initial.theta", col)
    phi0 = build_field(init_sec.pop("phi", 0.0), grid, "initial.phi", col)
    init = InitialData(
        theta0=broadcast(theta0, (grid.ncells,), "initial.theta"),
        phi0=broadcast(phi0, (grid.ncells,), "initial.phi"),
    )

    cost_sec = col.section(raw, "cost")
    cost = CostSpec(
        **{
            key: col.number(cost_sec, key, default, "cost", minimum=0.0)
            if key.startswith("w_")
            else build_field(cost_sec.pop(key, default), grid, f"cost.{key}", col, tgrid.steps)
            for key, default in dataclasses.asdict(CostSpec()).items()
        }
    )

    box_sec = col.section(raw, "box")
    box = ControlBox(
        **{
            key: build_field(box_sec.pop(key, default), grid, f"box.{key}", col, tgrid.steps)
            for key, default in dataclasses.asdict(ControlBox()).items()
        }
    )

    opt_sec = col.section(raw, "optimize")
    starts = opt_sec.pop("starts", [])
    if not isinstance(starts, list):
        col.add(f"optimize.starts: expected a list of integer seeds, got {starts!r}")
        starts = []
    starts = [col.number({"starts": s}, "starts", 0, "optimize", minimum=0) for s in starts]
    optimize_opts = OptimizeOptions(
        stat_tol=col.number(
            opt_sec, "stat_tol", OptimizeOptions.stat_tol, "optimize", minimum=0.0, strict=True
        ),
        max_iter=col.number(opt_sec, "max_iter", OptimizeOptions.max_iter, "optimize", minimum=0),
        starts=tuple(starts),
    )

    control_sec = col.section(raw, "control")
    ckind = control_sec.pop("kind", "zeros")
    shape = (tgrid.steps, grid.ncells)
    if ckind == "zeros":
        control = np.zeros(shape)
    elif ckind == "constant":
        control = np.full(shape, col.number(control_sec, "value", 0.0, "control"))
    elif ckind == "random":
        seed = col.number(control_sec, "seed", 0, "control", minimum=0)
    elif ckind == "values":
        control = _numbers(control_sec.pop("values", []), "control.values", col, shape)
    else:
        col.add(f"control.kind: expected one of {_CONTROL_KINDS}, got {ckind!r}")

    out_sec = col.section(raw, "output")
    stride = RunConfig.snapshot_stride
    snapshot_stride = col.number(out_sec, "snapshot_stride", stride, "output", minimum=0)

    unread = []
    for name in raw:
        if name in col.sections:
            unread += [f"{name}.{key}: unknown key" for key in col.sections[name]]
        else:
            unread.append(f"{name}: unknown section")
    col.errors[:0] = unread

    try:
        spec = ProblemSpec(grid, tgrid, physics, potential, init, cost, box)
    except ValidationError as exc:
        col.errors.extend(exc.violations)
    if col.errors:
        raise ValidationError(col.errors)
    if ckind == "random":
        control = random_admissible_control(spec, seed)
    control.flags.writeable = False
    return RunConfig(spec, optimize_opts, control, config_digest(raw), snapshot_stride)


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object, in which a key given twice is a ParseError
    rather than a silently overwritten value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> RunConfig:
    """Read, decode and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")  # JSON text is UTF-8 (RFC 8259)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4,300 digits
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
