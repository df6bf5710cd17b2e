"""The runtime imports only the standard library and the package itself;
numpy, scipy and sympy serve the tests as oracles only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import poishom

PACKAGE = Path(poishom.__file__).resolve().parent


def imported_top_modules(tree: ast.AST) -> set[str]:
    """The top-level module of every absolute import in ``tree``, those in
    function bodies included; a relative import is the package itself."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_function_level_imports_are_seen():
    tree = ast.parse("import os\ndef f():\n    from numpy import linalg\n    import sympy.core\n")
    assert imported_top_modules(tree) == {"os", "numpy", "sympy"}


def imported_package_modules(tree: ast.AST) -> set[str]:
    """Each 'poishom.<module>' that ``tree`` imports, relatively or not;
    a name imported from a module counts as a module too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["poishom" * (node.level > 0), node.module]))
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_package_imports_are_seen():
    tree = ast.parse("from . import coord\nfrom .poly import P\nimport poishom.lie\n")
    assert {"poishom.coord", "poishom.poly", "poishom.lie"} <= imported_package_modules(tree)


def test_specfile_does_not_import_the_coordinate_layer():
    """Spec files describe (g, delta, h) only: the input layer reaches
    neither the coordinate models nor their polynomials."""
    tree = ast.parse((PACKAGE / "specfile.py").read_text(encoding="utf-8"))
    assert imported_package_modules(tree) & {"poishom.coord", "poishom.poly"} == set()


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_runtime_imports_only_the_standard_library(path):
    modules = imported_top_modules(ast.parse(path.read_text(encoding="utf-8")))
    assert modules - set(sys.stdlib_module_names) - {"poishom"} == set()
