"""Export consistency: every name a module lists in __all__ exists, the
package exports exactly the library modules' __all__, no module imports a
name it never uses, and the package stays off the heavy SciPy modules."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pfcontrol as pfc

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
    paths = [str(Path(pfc.__file__).parent.parent), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
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


def _quickstart_block() -> str:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Quickstart (Python)", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


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
