"""Export consistency: every name a module lists in __all__ exists, the
package exports exactly the library modules' __all__, no module imports a
name or binds a constant it never uses, and the package stays off the heavy
SciPy modules."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pfcontrol as pfc
from conftest import child_env

MODULES = ["pfcontrol"] + [
    f"pfcontrol.{info.name}"
    for info in pkgutil.iter_modules(pfc.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_all_has_no_duplicates():
    assert len(pfc.__all__) == len(set(pfc.__all__))


def test_package_all_is_the_library_modules_all():
    # Each library module's __all__ is its public API; the package adds only
    # its version.
    names = ["__version__"]
    for name in "errors grid potential problem dynamics adjoint control harness".split():
        names += importlib.import_module(f"pfcontrol.{name}").__all__
    assert len(names) == len(set(names))
    assert sorted(pfc.__all__) == sorted(names)


def test_optimize_does_not_import_scipy_optimize():
    # scipy.optimize loads HiGHS, scipy.spatial and scipy.fft, and
    # scipy.special its ufunc tables: start-up time and resident memory on
    # every command. A fresh interpreter is needed because other tests may
    # import SciPy modules into this one.
    code = (
        "import sys\n"
        "import pfcontrol as pfc\n"
        "from conftest import desk_spec\n"
        "opts = pfc.OptimizeOptions(stat_tol=1e-4, max_iter=50)\n"
        "assert pfc.optimize(desk_spec(cells=8, steps=4), opts=opts).iterations > 0\n"
        "print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads. Names listed in __all__ and
    __future__ imports are exempt."""
    tree = ast.parse(path.read_text())
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    unused = set(imported) - read - exported
    return sorted(f"{name} (line {imported[name]})" for name in unused)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(pfc.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_no_unused_imports(path):
    assert not _unused_imports(path)


def _unread_constants(path: Path) -> list[str]:
    """Module-level names bound by an assignment (tuple targets included)
    that nothing in the module reads. Dunder names such as __all__ are exempt."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        bound[name.id] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {bound[name]})" for name in set(bound) - read)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(pfc.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_no_unread_module_constants(path):
    # A constant left behind when its last reader goes, like a loop budget
    # of a deleted helper, fails here.
    assert not _unread_constants(path)


#: The step operator, its LU and their methods: dynamics alone uses them.
_STEP_INTERNALS = {
    "StepLU", "StepOperator", "step_operator", "old_level", "refined", "refactor"
}


def _names_used(path: Path) -> set[str]:
    """Every identifier a module binds, reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_step_operator_stays_inside_dynamics():
    # The tangent and adjoint sweeps are one loop in dynamics; no other
    # module reaches into the step operator or the LU a sweep holds.
    leaks = {
        path.stem: sorted(_names_used(path) & _STEP_INTERNALS)
        for path in Path(pfc.__file__).parent.glob("*.py")
        if path.stem != "dynamics"
    }
    assert not {stem: names for stem, names in leaks.items() if names}


# The functions every Newton iterate, sweep level or L-BFGS step runs, by
# module, and the NumPy reduction wrappers they must not call.
_HOT_PATHS = {
    "dynamics": [
        "_act",
        "_march",
        "_lockstep",
        "linear_sweep",
        "StepOperator.old_level",
        "StepLU.refactor",
        "StepLU._apply",
        "StepLU.solve",
        "StepLU.refined",
    ],
    "control": ["lq_inner", "_lbfgs_direction"],
    "adjoint": ["cost_value"],
    "potential": ["Potential._require_inside"],
}
_WRAPPERS = {"max", "min", "sum", "mean", "all", "any"}


def _functions(tree: ast.Module) -> dict:
    """Top-level functions and methods of a module, by (Class.)name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def test_hot_paths_reduce_through_ndarray_methods():
    # np.max(np.abs(r)) runs the same ufunc reduction as np.abs(r).max(), so
    # the bits are the same, but the wrapper adds its fromnumeric dispatch:
    # 2.7 against 1.4 us at 96 entries, np.sum(a * b) 3.1 against 1.7 us at
    # 16x32 (timeit, one thread, a 2-vCPU Xeon at 2.0 GHz). On the 1D desk
    # problems that is more than the arithmetic, and these paths run it
    # thousands of times per operation.
    root = Path(pfc.__file__).parent
    offenders = []
    for module, names in _HOT_PATHS.items():
        functions = _functions(ast.parse((root / f"{module}.py").read_text()))
        assert set(names) <= set(functions), f"{module}: {set(names) - set(functions)}"
        for name in names:
            for node in ast.walk(functions[name]):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in _WRAPPERS
                ):
                    offenders.append(f"{module}.{name}: np.{node.func.attr} (line {node.lineno})")
    assert not offenders


def test_benchmark_tracer_installs_on_every_traced_name():
    # The suite collects only tests/, so a traced name deleted from the
    # package would otherwise break only the benchmark's --trace run.
    importlib.import_module("pfcontrol.cli")
    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    loader_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = spans.wrapped_bindings()
    finally:
        tracer.uninstall()
    assert wrapped
    assert not spans.wrapped_bindings()


#: Helpers only their own module and its tests call, so they are not in
#: __all__; the benchmark still binds step_matrix, project_box and
#: fd_directional_derivative by module attribute.
_MODULE_ONLY = {
    "dynamics": ["step_matrix"],
    "control": ["project_box"],
    "harness": ["fd_directional_derivative"],
    "config": ["build_field"],
}


@pytest.mark.parametrize("module", sorted(_MODULE_ONLY))
def test_module_only_helpers_stay_attributes_outside_all(module):
    mod = importlib.import_module(f"pfcontrol.{module}")
    for name in _MODULE_ONLY[module]:
        assert callable(getattr(mod, name)) and name not in mod.__all__
        assert name not in pfc.__all__


def _quickstart_block() -> str:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Quickstart (Python)", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_readme_quickstart_runs_as_it_says():
    # The Quickstart's optimize call must stop as stationary within a quarter
    # of the iteration count the README gives for it.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    about = int(re.search(r"converges in about (\d+) iterations", readme).group(1))
    namespace = {}
    exec(_quickstart_block(), namespace)
    report = namespace["report"]
    assert report.termination == "stationary"
    assert abs(report.iterations - about) <= 0.25 * about


def test_exported_functions_have_a_caller():
    # A function belongs in the package's public API only if the product,
    # the benchmark, the acceptance tests or the README quickstart call it.
    root = Path(pfc.__file__).parent
    texts = [_quickstart_block()]
    texts += [p.read_text() for p in (root.parent.parent / "perfbench").glob("*.py")]
    texts += [(Path(__file__).parent / n).read_text() for n in ("test_acceptance.py", "conftest.py")]
    functions = [
        n for n in pfc.__all__
        if callable(getattr(pfc, n)) and not isinstance(getattr(pfc, n), type)
    ]
    uncalled = []
    for name in functions:
        home = getattr(pfc, name).__module__.rpartition(".")[2]
        others = [p.read_text() for p in root.glob("*.py") if p.stem not in (home, "__init__")]
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not any(pattern.search(text) for text in texts + others):
            uncalled.append(name)
    assert not uncalled
