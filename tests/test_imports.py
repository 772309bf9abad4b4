"""Every module-level import of the package is used in its module.

__init__.py is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sqzmirror"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
