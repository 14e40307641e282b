"""No module of the package imports an underscore-prefixed name from a
sibling module, so each module's internals (the canonical search behind
``graphs.canonical_form``, say) stay behind its public functions."""

import ast
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
