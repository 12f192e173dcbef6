"""Span tracing of pfcontrol from outside the package.

`Tracer.install()` replaces the public functions at each module boundary with
wrappers that record a span (name, start, end, parent) per call, and
`Tracer.uninstall()` puts every original back. Spans stay in memory until the
run writes them out. Nothing inside `src/` is edited: a function imported by
name into several modules is patched at every binding that holds it, and the
methods of the frozen dataclasses are patched on their classes.

`layer_metrics()` turns the spans of one operation into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module that defines the function, attribute, class or None,
# modules whose bindings are patched or None for every pfcontrol module).
# splu is also bound in `grid` (Helmholtz and Neumann factors); only the
# factorizations of the step operator count as dynamics.lu_factor.
TRACED = {
    "cli.main": ("cli", "main", None, None),
    "config.load_config": ("config", "load_config", None, None),
    "problem.running_targets": ("problem", "running_targets", "CostSpec", None),
    "grid.helmholtz_solve": ("grid", "helmholtz_solve", "Grid", None),
    "potential.resolvent": ("potential", "resolvent", "Potential", None),
    "potential.dw_convex_eff": ("potential", "dw_convex_eff", "Potential", None),
    "potential.d2w_convex_eff": ("potential", "d2w_convex_eff", "Potential", None),
    "dynamics.solve_state": ("dynamics", "solve_state", None, None),
    "dynamics.solve_tangent": ("dynamics", "solve_tangent", None, None),
    "dynamics.step_matrix": ("dynamics", "step_matrix", None, None),
    "dynamics.lu_factor": ("dynamics", "splu", None, ("dynamics", "adjoint")),
    "adjoint.solve_adjoint": ("adjoint", "solve_adjoint", None, None),
    "adjoint.cost_value": ("adjoint", "cost_value", None, None),
    "control.optimize": ("control", "optimize", None, None),
    "control.project_box": ("control", "project_box", None, None),
    "control.stationarity_residual": ("control", "stationarity_residual", None, None),
    "harness.fd_gradient_check": ("harness", "fd_gradient_check", None, None),
    "harness.fd_directional_derivative": ("harness", "fd_directional_derivative", None, None),
    "harness.smooth_direction": ("harness", "smooth_direction", None, None),
}

SWEEPS = {
    "dynamics.solve_state": "state",
    "dynamics.solve_tangent": "tangent",
    "adjoint.solve_adjoint": "adjoint",
}

_MARK = "__perfbench_span__"

# float64 values plus int32 row indices per stored entry, and the int32
# column pointers of L and U.
_VALUE_BYTES, _INDEX_BYTES = 8, 4


def pfcontrol_modules() -> dict:
    return {
        name.partition(".")[2] or "__init__": mod
        for name, mod in list(sys.modules.items())
        if name == "pfcontrol" or name.startswith("pfcontrol.")
    }


def bindings() -> dict:
    """Every attribute of the loaded pfcontrol modules and of the pfcontrol
    classes they hold, by dotted name."""
    found = {}
    for mod_name, mod in pfcontrol_modules().items():
        for attr, value in vars(mod).items():
            found[f"{mod_name}.{attr}"] = value
            if isinstance(value, type) and value.__module__.startswith("pfcontrol"):
                for name, member in vars(value).items():
                    found[f"{mod_name}.{attr}.{name}"] = member
    return found


def wrapped_bindings() -> list[str]:
    """Every pfcontrol binding that currently holds a tracing wrapper."""
    return [name for name, value in bindings().items() if hasattr(value, _MARK)]


class _TracedLU:
    """SuperLU proxy whose solve is recorded as dynamics.lu_solve."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        idx = self._tracer._open("dynamics.lu_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer._close(idx)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, attrs];
    its id is its index in `spans`, and parent is -1 at the top level."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(wrapper, _MARK, name)
        return wrapper

    def _wrap_splu(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open("dynamics.lu_factor")
            try:
                lu = fn(*args, **kwargs)
            finally:
                self._close(idx)
            # Reading L and U copies the factors, so it gets its own span:
            # its time is excluded from the factorization and from the caller.
            fill = self._open("trace.lu_fill")
            try:
                nnz = lu.L.nnz + lu.U.nnz
            finally:
                self._close(fill)
            n = lu.shape[1]
            self.spans[idx][4] = {
                "fill_nnz": nnz,
                "bytes": nnz * (_VALUE_BYTES + _INDEX_BYTES) + 2 * (n + 1) * _INDEX_BYTES,
            }
            return _TracedLU(lu, self)

        setattr(wrapper, _MARK, "dynamics.lu_factor")
        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = pfcontrol_modules()
        try:
            for name, (home, attr, cls_name, only) in TRACED.items():
                if cls_name is not None:
                    cls = getattr(modules[home], cls_name)
                    original = vars(cls)[attr]
                    self._patch(cls, attr, self._wrap(name, original))
                    continue
                original = getattr(modules[home], attr)
                wrapper = (
                    self._wrap_splu(original)
                    if name == "dynamics.lu_factor"
                    else self._wrap(name, original)
                )
                for mod_name, mod in modules.items():
                    if only is not None and mod_name not in only:
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _resolvent_attrs(args, kwargs):
    r = args[1] if len(args) > 1 else kwargs["r"]
    return {"points": int(getattr(r, "size", 1))}


def _solve_state_attrs(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return {"steps": spec.tgrid.steps}


def _optimize_attrs(args, kwargs):
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    return {"starts": 1 + len(opts.starts if opts is not None else ())}


_ATTRS = {
    "potential.resolvent": _resolvent_attrs,
    "control.optimize": _optimize_attrs,
    "dynamics.solve_state": _solve_state_attrs,
}


# -- metrics -----------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children. Calls nest on one
    thread, so children of one span never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _enclosing(spans: list[list], idx: int, names) -> str | None:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer counts and self times of one operation.

    Returns (counts, times): counts repeat exactly between runs of the same
    input, times do not.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    by_sweep: Counter = Counter()
    newton_iters = resolvent_in_state = steps = points = fill = nbytes = 0
    opt_adjoints = opt_states = starts = 0
    for i, (name, _, _, _, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        if name == "potential.resolvent":
            points += attrs["points"]
            resolvent_in_state += _enclosing(spans, i, SWEEPS) == "dynamics.solve_state"
        elif name == "dynamics.step_matrix":
            newton_iters += _enclosing(spans, i, SWEEPS) == "dynamics.solve_state"
        elif name == "dynamics.solve_state":
            steps += attrs["steps"]
            opt_states += _enclosing(spans, i, ("control.optimize",)) is not None
        elif name == "control.optimize":
            starts += attrs["starts"]
        elif name == "adjoint.solve_adjoint":
            opt_adjoints += _enclosing(spans, i, ("control.optimize",)) is not None
        elif name == "dynamics.lu_factor":
            by_sweep[SWEEPS.get(_enclosing(spans, i, SWEEPS))] += 1
            fill += attrs["fill_nnz"]
            nbytes += attrs["bytes"]
    # Each start of an optimize call spends one state and one adjoint solve
    # on its initial iterate; every further state solve is a line-search
    # trial and every further adjoint an accepted iteration of some start.
    iterations = max(opt_adjoints - starts, 0)
    trials = max(opt_states - starts, 0)
    counts = {
        "potential.resolvent.calls": calls["potential.resolvent"],
        "potential.resolvent.points": points,
        "potential.resolvent_per_newton_iter": _ratio(resolvent_in_state, newton_iters),
        "dynamics.step_matrix.calls": calls["dynamics.step_matrix"],
        "dynamics.lu_factor.calls": calls["dynamics.lu_factor"],
        "dynamics.lu_factor.calls.state": by_sweep["state"],
        "dynamics.lu_factor.calls.tangent": by_sweep["tangent"],
        "dynamics.lu_factor.calls.adjoint": by_sweep["adjoint"],
        "dynamics.lu_factor.fill_nnz": fill,
        "dynamics.lu_factor.bytes_computed": nbytes,
        "dynamics.lu_solve.calls": calls["dynamics.lu_solve"],
        "dynamics.newton_iters_per_step": _ratio(newton_iters, steps),
        "dynamics.solve_state.calls": calls["dynamics.solve_state"],
        "dynamics.solve_tangent.calls": calls["dynamics.solve_tangent"],
        "adjoint.solve_adjoint.calls": calls["adjoint.solve_adjoint"],
        "adjoint.cost_value.calls": calls["adjoint.cost_value"],
        "control.optimize.iterations": iterations,
        "control.line_search.trials": trials,
        "control.line_search.trials_per_iter": _ratio(trials, iterations),
        "problem.running_targets.calls": calls["problem.running_targets"],
        "harness.fd_gradient_check.calls": calls["harness.fd_gradient_check"],
        "harness.fd_directional_derivative.calls": calls["harness.fd_directional_derivative"],
        "harness.smooth_direction.calls": calls["harness.smooth_direction"],
        "grid.helmholtz_solve.calls": calls["grid.helmholtz_solve"],
    }
    times = {
        f"{name}.self_s": self_s[name]
        for name in (
            "potential.resolvent",
            "potential.dw_convex_eff",
            "potential.d2w_convex_eff",
            "dynamics.step_matrix",
            "dynamics.lu_factor",
            "dynamics.lu_solve",
            "dynamics.solve_state",
            "dynamics.solve_tangent",
            "adjoint.solve_adjoint",
            "adjoint.cost_value",
            "control.optimize",
            "control.project_box",
            "control.stationarity_residual",
            "problem.running_targets",
            "harness.fd_directional_derivative",
            "harness.smooth_direction",
            "harness.fd_gradient_check",
            "grid.helmholtz_solve",
            "config.load_config",
            "cli.main",
        )
    }
    return counts, times


def write_spans(path, header: dict, ops: list[list[list]]) -> None:
    """JSON lines: one header object, then one object per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for op, spans in enumerate(ops):
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "op": op,
                            "id": i,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            **({"attrs": attrs} if attrs else {}),
                        }
                    )
                    + "\n"
                )
