"""Acceptance suite: every release criterion, one test each, at its stated
tolerance.  Each test prints a PASS line so a verbose run doubles as the
acceptance report.  The order-8 census is opt-in via the slow marker."""

import pytest

from relshape import verification
from relshape.graphs import canonical_graph, parse_edge_list, to_graph6
from relshape.verification import (
    THREE_INFLECTION_ORDER7,
    check_census_order_6,
    check_census_order_7,
    check_census_order_8,
    check_closed_form_equivalence,
    check_cycle50_fixed_points,
    check_monte_carlo,
    check_path6_decrease_endpoints,
    check_star_single_inflection,
    check_star_union_m_shape,
    check_threshold_constants,
)


def report(result):
    print(f"ACCEPTANCE {result.name}: {'PASS' if result.passed else 'FAIL'} ({result.detail})")
    assert result.passed, result.detail


def test_c01_census_order_6(vcache):
    report(check_census_order_6(vcache))


def test_c02_census_order_7(vcache):
    result = check_census_order_7(vcache)
    report(result)
    # the unique three-inflection graph is isomorphic to the shipped one
    summary, _ = vcache.summary(7)
    reference = to_graph6(canonical_graph(parse_edge_list(THREE_INFLECTION_ORDER7)))
    assert summary.exemplars["inflections=3"] == (reference,)


@pytest.mark.slow
def test_c03_census_order_8(vcache):
    report(check_census_order_8(vcache))
    # count bounds hold at order 8 too, and the retained three-inflection
    # exemplars all show the one-leaf-one-cut-vertex pattern
    from relshape.census import generate_connected
    from relshape.connsets import count_connected_sets, first_bound_violation
    from relshape.graphs import cut_vertices, parse_graph6

    for g in generate_connected(8):
        assert first_bound_violation(count_connected_sets(g)) is None
    summary, _ = vcache.summary(8)
    for tag in summary.exemplars["inflections=3"]:
        g = parse_graph6(tag)
        assert g.degrees().count(1) == 1 and len(cut_vertices(g)) == 1


def test_c04_path6_decrease_endpoints(vcache):
    report(check_path6_decrease_endpoints(vcache))


def test_c05_threshold_constants(vcache):
    report(check_threshold_constants(vcache))


def test_c06_closed_form_equivalence(vcache):
    report(check_closed_form_equivalence(vcache))


def test_c07_identity_and_bound_sweeps(vcache):
    # every census graph of orders 2..7, exact arithmetic throughout
    for name in ("coefficient-identities-sweep", "coefficient-bounds-sweep",
                 "early-concavity-sweep", "endpoint-derivative-sweep",
                 "sperner-failure-sweep"):
        check = dict(verification.DEFAULT_CHECKS)[name]
        report(check(vcache))


def test_c08_theorem_instances(vcache):
    for name in ("sparse-decrease-census", "sparse-decrease-instances",
                 "sparse-two-inflection-instances", "tree-inflection-sweep",
                 "two-cut-fixed-point-sweep", "clique-leaf-decreasing-at-2-5"):
        check = dict(verification.DEFAULT_CHECKS)[name]
        report(check(vcache))


def test_c09_star_single_inflection(vcache):
    report(check_star_single_inflection(vcache))


def test_c10_star_union_m_shape(vcache):
    report(check_star_union_m_shape(vcache))


def test_c11_cycle50_fixed_points(vcache):
    report(check_cycle50_fixed_points(vcache))


def test_c12_monte_carlo_crosscheck(vcache):
    report(check_monte_carlo(vcache))


@pytest.mark.slow
def test_full_verify_cli_end_to_end(tmp_path):
    # the whole default verification suite through the CLI, one process
    import subprocess
    import sys

    from conftest import checkout_env

    proc = subprocess.run([sys.executable, "-m", "relshape", "verify"],
                          capture_output=True, text=True, timeout=300,
                          env=checkout_env())
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(verification.DEFAULT_CHECKS)
    assert all(l.startswith("PASS") for l in lines)
