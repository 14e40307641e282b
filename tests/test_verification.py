"""Sweep checks must test something: each fails when no graph applies."""

from fractions import Fraction

import pytest

from relshape import verification
from relshape.graphs import is_connected
from relshape.shape import check_sparse_decrease

TOL = Fraction(1, 10**9)

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


class EmptyCensus:
    def graphs(self, n):
        return []


@pytest.mark.parametrize("check", SWEEPS, ids=lambda check: check.__name__)
def test_sweep_fails_when_no_graph_applies(check, monkeypatch):
    monkeypatch.setattr(verification, "generate_trees", lambda n: iter(()))
    monkeypatch.setattr(verification, "sparse_decrease_graphs", lambda: [])
    result = check(EmptyCensus(), TOL)
    assert not result.passed, result.detail


def test_sparse_decrease_graphs_are_seeded_sparse_and_connected():
    graphs = verification.sparse_decrease_graphs()
    assert [g.n for g in graphs] == list(range(11, 25))
    assert graphs == verification.sparse_decrease_graphs()
    for g in graphs:
        assert is_connected(g)
        assert check_sparse_decrease(g).applicable


def test_sparse_decrease_census_counts_every_seeded_graph():
    result = verification.check_sparse_decrease_census(EmptyCensus(), TOL)
    assert result.passed
    assert result.detail.startswith("14 seeded sparse graphs")
