"""Every module-level import of the package is used in its module, and no
module imports another package module's private (underscore) names.

__init__.py is left out of the first check: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sqzmirror"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module body's imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep\nfrom x import y as z\nsep\n"
    assert unused_imports(source) == ["math", "path", "z"]


def private_imports(source: str) -> list[str]:
    """Underscore names that the source's imports take from a package module
    (a relative import, or one from sqzmirror), anywhere in the source."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "sqzmirror")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_imports_from_package_modules(path):
    assert private_imports(path.read_text()) == []


def test_private_import_is_found():
    source = ("from .params import _conj, derive\nfrom numpy import _x\n"
              "from sqzmirror.gaussian import _y\n"
              "def f():\n    from . import _z\n")
    assert private_imports(source) == ["_conj", "_y", "_z"]
