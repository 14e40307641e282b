"""The package names the benchmark under ``perfbench/`` binds.

Its workloads call these functions, and its tracer keys per-layer counters
and hooks on ``module.function``.  The tracer wraps only public functions
defined in their module, so a name that is renamed, deleted or made private
makes its counters read zero without any failure; these tests catch that.
The names are read from the benchmark's own files, not kept by hand.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env
from relshape import verification

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# bound by the benchmark, gone from the package with the Sturm chain
RETIRED = {"sturm.sturm_chain", "sturm.count_roots_open"}


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def function_metrics() -> set[str]:
    """The keys of ``FUNCTION_METRICS`` in ``run.py``."""
    for node in parse("run.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTION_METRICS"]:
            return {entry.elts[0].value for entry in node.value.elts}
    raise AssertionError("run.py has no FUNCTION_METRICS")


def hook_targets() -> set[str]:
    """``module.function`` of each ``_hook_<module>_<function>`` method in
    ``tracer.py``; no layer name holds an underscore."""
    return {node.name.removeprefix("_hook_").replace("_", ".", 1)
            for node in ast.walk(parse("tracer.py"))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_hook_")}


def used_names(name: str) -> set[str]:
    """The ``module.function`` names a script imports from ``relshape.<module>``
    or calls through a module it imports from ``relshape``."""
    tree, names, modules = parse(name), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "relshape":
            modules.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relshape."):
            names.update(f"{node.module.removeprefix('relshape.')}.{alias.name}"
                         for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            names.add(f"{modules[node.func.value.id]}.{node.func.attr}")
    return names


BOUND = sorted(function_metrics() | hook_targets() | used_names("rep.py")
               | used_names("record.py"))


def is_public_function(module, name):
    fn = getattr(module, name, None)
    return (not name.startswith("_") and callable(fn)
            and getattr(fn, "__module__", None) == module.__name__)


def is_bound_function(key: str) -> bool:
    module, name = key.split(".")
    return is_public_function(importlib.import_module(f"relshape.{module}"), name)


@pytest.mark.parametrize("module, name", [tuple(key.split(".")) for key in BOUND
                                          if key not in RETIRED])
def test_bound_name_is_public_function_of_its_module(module, name):
    assert is_bound_function(f"{module}.{name}")


def test_retired_names_are_the_bound_names_missing_from_the_package():
    assert {key for key in BOUND if not is_bound_function(key)} == RETIRED


@pytest.mark.parametrize("table", ["DEFAULT_CHECKS", "SLOW_CHECKS"])
def test_check_tables_hold_public_functions(table):
    checks = getattr(verification, table)
    assert checks
    for name, fn in checks:
        assert is_public_function(verification, fn.__name__), name
        assert getattr(verification, fn.__name__) is fn, name


def test_benchmark_self_check_passes():
    # small runs of every workload through its output gate (census summary,
    # family and sparse digests, verify check names), untraced and traced
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--self-check"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-check passed"
