"""The package names the benchmark under ``perfbench/`` binds.

Its workloads call these functions, and its tracer keys per-layer counters
and hooks on ``module.function``.  The tracer wraps only public functions
defined in their module, so a name that is renamed, deleted or made private
makes its counters read zero without any failure; these tests catch that.
"""

import importlib

import pytest

from relshape import verification

BOUND = [
    ("census", "generate_connected"),
    ("census", "run_census"),
    ("cli", "build_analysis_document"),
    ("cli", "main"),
    ("connsets", "count_connected_sets"),
    ("graphs", "graph_from_edges"),
    ("graphs", "is_connected"),
    ("graphs", "to_graph6"),
    ("poly", "derivative"),
    ("poly", "second_derivative"),
    ("shape", "analyze_profile"),
    ("sturm", "sign_at"),
    # tracer hook targets
    ("sturm", "square_free_part"),
    ("poly", "from_profile"),
    ("shape", "isolate_roots"),
    ("graphs", "canonical_graph"),
]


def is_public_function(module, name):
    fn = getattr(module, name, None)
    return (not name.startswith("_") and callable(fn)
            and getattr(fn, "__module__", None) == module.__name__)


@pytest.mark.parametrize("module, name", BOUND)
def test_bound_name_is_public_function_of_its_module(module, name):
    assert is_public_function(importlib.import_module(f"relshape.{module}"), name)


@pytest.mark.parametrize("table", ["DEFAULT_CHECKS", "SLOW_CHECKS"])
def test_check_tables_hold_public_functions(table):
    checks = getattr(verification, table)
    assert checks
    for name, fn in checks:
        assert is_public_function(verification, fn.__name__), name
        assert getattr(verification, fn.__name__) is fn, name
