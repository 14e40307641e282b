"""Sweep checks must test something: each fails when no graph applies."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import count_calls
from relshape import census, cli, connsets, poly, shape, verification
from relshape.connsets import count_connected_sets
from relshape.graphs import is_connected
from relshape.poly import derivative, from_profile
from relshape.shape import check_sparse_decrease

SWEEPS = [
    verification.check_coefficient_identities_sweep,
    verification.check_coefficient_bounds_sweep,
    verification.check_early_concavity_sweep,
    verification.check_endpoint_derivative_sweep,
    verification.check_sperner_sweep,
    verification.check_late_concavity_two_connected,
    verification.check_two_cut_fixed_point,
    verification.check_tree_inflections,
    verification.check_sparse_decrease_census,
]


@pytest.mark.parametrize("check", SWEEPS, ids=lambda check: check.__name__)
def test_sweep_fails_when_no_graph_applies(check, monkeypatch):
    monkeypatch.setattr(verification, "generate_connected", lambda n: iter(()))
    monkeypatch.setattr(verification, "generate_trees", lambda n: iter(()))
    monkeypatch.setattr(verification, "sparse_decrease_graphs", lambda: [])
    result = check(verification.CensusCache())
    assert not result.passed, result.detail


# field of ShapeCounts: (its wrong value from the right one, checks that read it)
SHAPE_TAMPERING = {
    "fixed_points": (lambda v: 0, ["two-cut-fixed-point-sweep", "cycle50-fixed-points"]),
    "inflections": (lambda v: 0, ["census-order-7", "tree-inflection-sweep",
                                  "sparse-two-inflection-instances", "star-single-inflection"]),
    "concavity_near_1": (lambda v: -v, ["late-concavity-two-connected-sweep"]),
    "decreases": (lambda v: 0, ["census-order-6", "sparse-decrease-census",
                                "sparse-decrease-instances", "star-union-m-shape",
                                "path6-decrease-endpoints"]),
    "f1": (lambda v: tuple(-c for c in v), ["endpoint-derivative-sweep", "sparse-decrease-census",
                                            "sparse-decrease-instances"]),
}


def tamper_shape_counts(monkeypatch, field):
    """Make every ShapeCounts carry the wrong value of ``field``."""
    real, wrong = census.shape_counts, SHAPE_TAMPERING[field][0]

    def tampered(*args):
        counts = real(*args)
        return counts._replace(**{field: wrong(getattr(counts, field))})

    monkeypatch.setattr(census, "shape_counts", tampered)


@pytest.mark.parametrize("field, name", [
    pytest.param(field, name, id=f"{name}-{field}")
    for field, (_, names) in SHAPE_TAMPERING.items() for name in names])
def test_check_fails_on_tampered_shape_counts(field, name, monkeypatch):
    tamper_shape_counts(monkeypatch, field)
    result = dict(verification.DEFAULT_CHECKS)[name](verification.CensusCache())
    assert not result.passed, result.detail


@pytest.mark.parametrize("name", ["sparse-decrease-census", "sparse-decrease-instances"])
def test_sparse_decrease_check_fails_on_a_nonnegative_derivative(name, monkeypatch):
    # -f' is positive wherever f' is negative
    real = verification.check_sparse_decrease
    monkeypatch.setattr(verification, "check_sparse_decrease",
                        lambda g, f1: real(g, tuple(-c for c in f1)))
    result = dict(verification.DEFAULT_CHECKS)[name](verification.CensusCache())
    assert not result.passed, result.detail


def test_path6_check_fails_on_an_unrefined_bracket(monkeypatch):
    # each end reported as the Descartes cell that holds it, wider than tol
    def input_cell(q, transform, lo_num, hi_num, den, sa, tol):
        return Fraction(lo_num, den), Fraction(hi_num, den), Fraction(lo_num + hi_num, 2 * den)

    monkeypatch.setattr(shape, "_refine", input_cell)
    result = verification.check_path6_decrease_endpoints(verification.CensusCache())
    assert not result.passed
    assert result.detail.count("not a sign change within tol") == 2


def test_cycle50_check_fails_when_f_is_not_below_one_quarter(monkeypatch):
    # f(p) + p >= p on [0, 1], since f is a probability
    real = verification.check_fixed_point_witness

    def raised(g, poly):
        coeffs = list(poly.coeffs)
        coeffs[1] += 1
        return real(g, tuple(coeffs))

    monkeypatch.setattr(verification, "check_fixed_point_witness", raised)
    result = verification.check_cycle50_fixed_points(verification.CensusCache())
    assert not result.passed
    assert result.detail.startswith("f(1/4) >= 1/4")


def test_monte_carlo_check_fails_on_shifted_exact_values(monkeypatch):
    # 0.02 exceeds 4 standard errors, at most 4 sqrt(1/4 / 25000) = 0.0127
    exact = verification.eval_exact

    def shifted(poly, p):
        value = exact(poly, p)
        return value + Fraction(1, 50) if value <= Fraction(1, 2) else value - Fraction(1, 50)

    monkeypatch.setattr(verification, "eval_exact", shifted)
    result = verification.check_monte_carlo(verification.CensusCache())
    assert not result.passed
    assert result.detail.count("@p=") == len(verification.MONTE_CARLO_CASES) == 20



def test_monte_carlo_check_passes_with_no_success_on_a_small_value(monkeypatch):
    # path:20 at p = 0.6 is connected with probability 3.3e-4, so 2,000
    # trials of a correct sampler often see no success at all; the estimate's
    # own standard error is then 0, the exact value's is not
    path20 = verification.FamilySpec("path", (20,))
    g = verification.make_family(path20)
    assert verification.monte_carlo_estimate(g, 0.6, 2000, 2).successes == 0
    monkeypatch.setattr(verification, "MONTE_CARLO_CASES", [(path20, 0.6, 2)])
    monkeypatch.setattr(verification, "MONTE_CARLO_TRIALS", 2000)
    result = verification.check_monte_carlo(verification.CensusCache())
    assert result.passed, result.detail
    assert result.detail == "1 seeded runs within 4 standard errors"


class TamperedCensus(verification.CensusCache):
    """A cache whose summaries of one order have some fields replaced, or
    whose elapsed time is replaced."""

    def __init__(self, order, elapsed=None, **fields):
        super().__init__()
        self.order, self.elapsed, self.fields = order, elapsed, fields

    def summary(self, n):
        summary, elapsed = super().summary(n)
        if n != self.order:
            return summary, elapsed
        return replace(summary, **self.fields), elapsed if self.elapsed is None else self.elapsed


@pytest.mark.parametrize("n, cache, problem", [
    (6, TamperedCensus(6, total_connected=111), "total 111 != 112"),
    (6, TamperedCensus(6, inflection_histogram={3: 1}), "three-inflection count 1 != 0"),
    (7, TamperedCensus(7, exemplars={"inflections=3": ("F??^w",)}),
     "three-inflection exemplar ('F??^w',) != "),
    (6, TamperedCensus(6, elapsed=10.0), "elapsed 10.0s over budget 10s"),
    (6, TamperedCensus(6, inflection_histogram={0: 15, 1: 47, 2: 50}),
     "inflection histogram {0: 15, 1: 47, 2: 50} != {0: 14, 1: 48, 2: 50}"),
    (7, TamperedCensus(7, fixed_point_histogram={0: 609, 1: 234, 2: 10}),
     "fixed point histogram {0: 609, 1: 234, 2: 10} != {0: 609, 1: 233, 2: 11}"),
    (6, TamperedCensus(6, class_histogram={"M": 1, "N": 36,
                                           "monotone-no-interior-fixed-point": 75}),
     "class histogram {'M': 1, 'N': 36, 'monotone-no-interior-fixed-point': 75} != "
     "{'N': 37, 'monotone-no-interior-fixed-point': 75}"),
], ids=["total", "three-inflections", "order-7-exemplar", "budget", "inflection-histogram",
        "fixed-point-histogram", "class-histogram"])
def test_census_check_fails_on_a_tampered_summary(n, cache, problem):
    result = verification._census_check(cache, n)
    assert not result.passed
    assert result.detail.startswith(problem), result.detail


def test_closed_form_check_fails_on_a_wrong_closed_form(monkeypatch):
    real = verification.closed_form

    def wrong(spec):
        poly = real(spec)
        if spec != verification.FamilySpec("star", (5,)):
            return poly
        # f(p) + p - p^2 is still 0 at 0 and keeps the value at 1
        coeffs = list(poly.coeffs)
        coeffs[1] += 1
        coeffs[2] -= 1
        return verification.ReliabilityPoly(poly.n, tuple(coeffs))

    monkeypatch.setattr(verification, "closed_form", wrong)
    result = verification.check_closed_form_equivalence(verification.CensusCache())
    assert not result.passed
    assert result.detail == "mismatch: star:5"


def test_closed_form_rejects_a_kind_without_one():
    with pytest.raises(ValueError) as raised:
        verification.closed_form(verification.FamilySpec("path", (5,)))
    assert str(raised.value) == "no closed form for family kind 'path'"


def test_cases_check_fails_with_no_case():
    result = verification._cases("x", [], "{total} cases hold", "failed: ")
    assert result == verification.CheckResult("x", False, "failed: ")


def test_clique_leaf_check_fails_on_a_nonnegative_derivative(monkeypatch):
    # -f' is positive wherever f' is negative
    real = verification.derivative
    monkeypatch.setattr(verification, "derivative",
                        lambda poly: tuple(-c for c in real(poly)))
    result = verification.check_clique_leaf_decreasing(verification.CensusCache())
    assert not result.passed
    assert result.detail == "nonnegative at n: " + ", ".join(map(str, range(7, 21)))


class RaisedC2Census(verification.CensusCache):
    """A cache whose profiles count one connected 2-set too many."""

    def profile(self, g):
        profile = super().profile(g)
        c = list(profile.c)
        c[2] += 1
        return connsets.ConnSetProfile(profile.n, tuple(c))


@pytest.mark.parametrize("check, failures", [
    (verification.check_coefficient_identities_sweep, 995),
    (verification.check_coefficient_bounds_sweep, 6),
    (verification.check_early_concavity_sweep, 6),
    (verification.check_sperner_sweep, 10),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_coefficient_sweep_fails_on_a_raised_c2(check, failures):
    result = check(RaisedC2Census())
    assert not result.passed
    assert result.detail.endswith(f", {failures} failures"), result.detail


def test_endpoint_derivative_sweep_fails_on_a_negated_derivative(monkeypatch):
    # a raised c_2 cannot serve here: f(1) = 2 is not a reliability value
    tamper_shape_counts(monkeypatch, "f1")
    result = verification.check_endpoint_derivative_sweep(verification.CensusCache())
    assert not result.passed
    assert result.detail.endswith(", 995 failures"), result.detail


def test_threshold_check_fails_on_a_wrong_argmax(monkeypatch):
    real = verification.maximize_threshold_constant
    monkeypatch.setattr(verification, "maximize_threshold_constant",
                        lambda: (1.8, real()[1]))
    result = verification.check_threshold_constants(verification.CensusCache())
    assert not result.passed
    assert result.detail.startswith("argmax 1.8000000000, maximum 0.0851046444"), result.detail


def test_sparse_decrease_graphs_are_seeded_sparse_and_connected():
    graphs = verification.sparse_decrease_graphs()
    assert [g.n for g in graphs] == list(range(11, 25))
    assert graphs == verification.sparse_decrease_graphs()
    for g in graphs:
        assert is_connected(g)
        f1 = derivative(from_profile(count_connected_sets(g)))
        assert check_sparse_decrease(g, f1).applicable


def test_sparse_decrease_census_counts_every_seeded_graph(monkeypatch):
    monkeypatch.setattr(verification, "generate_connected", lambda n: iter(()))
    result = verification.check_sparse_decrease_census(verification.CensusCache())
    assert result.passed
    assert result.detail.startswith("14 seeded sparse graphs")


def test_verify_counts_each_graph_once_and_analyzes_each_profile_once(monkeypatch):
    # generation gives each census graph and tree its profile, so only the
    # family, sparse and Monte Carlo graphs are counted
    counted = count_calls(monkeypatch, [connsets, census, cli], "count_connected_sets")
    analyzed = count_calls(monkeypatch, [shape, census, cli], "analyze_profile")
    # path6-decrease-endpoints brackets the f' of the cache's analysis of path:6
    bracketed = count_calls(monkeypatch, [verification], "isolate_roots")
    differentiated = count_calls(monkeypatch, [poly, shape, verification, cli], "derivative")
    expanded = count_calls(monkeypatch, [poly], "expand_c_form")
    results = verification.run_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert len(counted) == len({g.adj for g in counted}) == 59
    assert len(analyzed) == len({p.c for p in analyzed}) == 658
    assert not hasattr(verification, "analyze_profile")
    assert len(bracketed) == 1
    # one f' per analysis, and the 14 closed forms of clique-leaf-decreasing-at-2-5
    assert len(differentiated) <= len(analyzed) + 14 <= 672
    assert len(expanded) <= 2100
