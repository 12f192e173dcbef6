"""Export consistency: every name a module lists in __all__ exists, and no
module imports a name it never uses."""

import ast
import importlib
import pkgutil
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
