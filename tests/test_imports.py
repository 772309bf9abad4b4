"""Every module-level import of the package is used in its module, no
module imports another package module's private (underscore) names, no
module imports or reads a private numpy module, scenarios reads the
steady build from reduced instead of assembling it, and every model is
compiled at its reservoir injections.

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


def package_imports(source: str, module: str) -> set[str]:
    """The names that the source's imports take from the package module
    `module`, with the module's own name for `from . import module`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module == module:
                names |= {alias.name for alias in node.names}
            elif node.module is None:
                names |= {alias.name for alias in node.names if alias.name == module}
        elif isinstance(node, ast.ImportFrom) and node.module == f"sqzmirror.{module}":
            names |= {alias.name for alias in node.names}
    return names


def test_scenarios_reads_the_steady_build_from_reduced():
    """scenarios holds configs, figures, rows and CSV: it compiles no
    generator and neither checks nor solves a drift itself."""
    source = (SRC / "scenarios.py").read_text()
    assert package_imports(source, "generator") == set()
    assert package_imports(source, "dynamics").isdisjoint(
        {"reservoir_parts", "reservoir_steady", "linear_steady", "require_hurwitz"})


def callers(source: str, name: str) -> set[str]:
    """The functions of the source whose own bodies call `name`, as a bare
    name or an attribute: a call in a nested function is that function's,
    one outside every function "<module>"'s."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.add(where)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(ast.parse(source), "<module>")
    return found


def test_compile_generator_is_called_only_by_compile_injections():
    """Every model is compiled at its three reservoir injections, whose drift
    depends on no squeezing degree: compile_injections is the one caller of
    compile_generator in the package."""
    found = {(path.name, function) for path in ALL_MODULES
             for function in callers(path.read_text(), "compile_generator")}
    assert found == {("generator.py", "compile_injections")}


def test_callers_are_found():
    source = ("f(1)\ndef g():\n    x.f()\n    def h():\n        f()\n"
              "    return lambda: f()\ndef k():\n    return f\n")
    assert callers(source, "f") == {"<module>", "g", "h"}


def test_package_import_is_found():
    source = ("from .dynamics import TimeGrid, reservoir_parts\nfrom . import generator\n"
              "from sqzmirror.generator import full_generator\nfrom numpy import generator\n")
    assert package_imports(source, "dynamics") == {"TimeGrid", "reservoir_parts"}
    assert package_imports(source, "generator") == {"generator", "full_generator"}


def test_private_import_is_found():
    source = ("from .params import _conj, derive\nfrom numpy import _x\n"
              "from sqzmirror.gaussian import _y\n"
              "def f():\n    from . import _z\n")
    assert private_imports(source) == ["_conj", "_y", "_z"]


def private_numpy(source: str) -> list[str]:
    """Every dotted name of numpy with a private (underscore, not dunder)
    part that the source imports or reads, such as numpy._core or
    numpy.linalg._umath_linalg: their calls skip the public functions'
    checks, and numpy may change them in any release."""
    tree = ast.parse(source)
    roots = {}  # local name -> the numpy module it binds
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found.append(alias.name)
                    roots[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                found.append(name)
                roots[alias.asname or alias.name] = name
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:  # whole chains only
            parts, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in roots:
                found.append(".".join([roots[base.id], *reversed(parts)]))
    return sorted({name for name in found if any(
        part.startswith("_") and not part.endswith("__") for part in name.split("."))})


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_numpy_modules(path):
    assert private_numpy(path.read_text()) == []


def test_private_numpy_is_found():
    source = ("import numpy as np\nimport numpy._core.umath as um\n"
              "from numpy.linalg import _umath_linalg\nfrom numpy import linalg as la\n"
              "np.linalg._umath_linalg.solve(a, b)\nla._linalg.solve\n"
              "np.linalg.solve(a, b)\nnp.__version__\nla.eigvals(a)\n")
    assert private_numpy(source) == ["numpy._core.umath", "numpy.linalg._linalg.solve",
                                     "numpy.linalg._umath_linalg",
                                     "numpy.linalg._umath_linalg.solve"]
