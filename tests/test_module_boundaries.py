"""No module of the package imports an underscore-prefixed name from a
sibling module, so each module's internals (the canonical search behind
``graphs.canonical_form``, say) stay behind its public functions.  And the
package imports nothing outside the standard library, so it runs without
its test extras."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relshape"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """Each ``from <sibling> import _name`` in the source, as
    ``line: _name from module``; a sibling is a relative import or one from the
    ``relshape`` package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not node.level and module.split(".")[0] != "relshape":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{node.lineno}: {alias.name} from {'.' * node.level}{module}")
    return found


def foreign_imports(source: str) -> list[str]:
    """Each import in the source of a top-level module that is neither in
    the standard library nor ``relshape``, as ``line: module``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "relshape" and top not in sys.stdlib_module_names:
                found.append(f"{node.lineno}: {name}")
    return found


def test_scan_covers_the_package():
    assert {"census.py", "graphs.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_import_from_a_sibling(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from .graphs import (Graph,\n    _twin_classes)\n"
              "from relshape.shape import _refine\n"
              "from . import _private\n"
              "from itertools import _grouper\n")
    assert private_imports(source) == ["2: _twin_classes from .graphs",
                                       "4: _refine from relshape.shape", "5: _private from ."]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_foreign_imports():
    source = ("from __future__ import annotations\n"
              "import sympy\n"
              "import sys, networkx as nx\n"
              "from fractions import Fraction\n"
              "from .graphs import Graph\n"
              "import relshape.census\n"
              "def f():\n    from numpy.linalg import solve\n")
    assert foreign_imports(source) == ["2: sympy", "3: networkx", "8: numpy.linalg"]
