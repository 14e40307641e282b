"""Byte-exact stdout of a fixed command set.

Identical inputs give identical bytes: this is a documented contract, and
these fixtures pin it across changes to the exact core.  To re-record one
after an intended output change, run the command from the repository root
with ``PYTHONPATH=src python -m relshape ... > tests/fixtures/golden/<file>``.
``verify`` is left out because its detail text carries elapsed seconds.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import families_large_digests, sparse_pool_digests
from relshape import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

COMMANDS = {
    "analyze_path6.json": ["analyze", "--family", "path:6", "--json"],
    "analyze_cycle50.json": ["analyze", "--family", "cycle:50", "--json"],
    "analyze_union_star20_complete1.json":
        ["analyze", "--family", "union(star:20,complete:1)", "--json"],
    "analyze_bonded_complete_leaf10.json":
        ["analyze", "--family", "bonded-complete-leaf:10", "--json"],
    "analyze_three_inflection_order7.json":
        ["analyze", "--edges", str(FIXTURES / "three_inflection_order7.edges"), "--json"],
    # roots the Descartes cells leave open, counted on the square-free part:
    # the f' root 1/2 bracketed on the split grid a + (b - a) i / (d + 2), the
    # f'' root 1/2 on a bisection midpoint, and a tangential critical point
    # at 1 - 1/sqrt(2) in a cell narrower than the tolerance
    "analyze_order6_critical_on_split_grid.json": ["analyze", "--graph6", "E?NG", "--json"],
    "analyze_order5_inflection_on_midpoint.json": ["analyze", "--graph6", "DFw", "--json"],
    "analyze_order8_tangential_critical.json": ["analyze", "--graph6", "GJ\\{Ks", "--json"],
    "coeffs_star6.txt": ["coeffs", "--family", "star:6"],
    "plot_path6_f2.csv": ["plot", "--family", "path:6", "--which", "f2"],
    "census_n6.json": ["census", "--n", "6", "--json"],
    "census_n7.json": ["census", "--n", "7", "--json"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    # the package reads no environment variable, the retired one included
    monkeypatch.setenv("RELSHAPE_TOL", "1")
    assert cli.main(COMMANDS[name]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / name).read_text(encoding="ascii")


def test_families_large_stdout_matches_the_benchmark_digests(capsys):
    # the degree-62 brackets of the benchmark's families-large workload, at
    # the digests its gate compares against; the file is only read here
    digests = families_large_digests()
    assert len(digests) == 104
    wrong = []
    for selector, digest in digests.items():
        assert cli.main(["analyze", "--family", selector, "--json"]) == 0
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            wrong.append(selector)
    assert wrong == []


def test_sparse_pool_stdout_matches_the_benchmark_digests(capsys):
    # the counted profiles of order 22..25 that the benchmark's sparse-count
    # workload analyzes, at the digests its gate compares against
    digests = sparse_pool_digests()
    assert len(digests) == 200
    wrong = []
    for g6, digest in digests.items():
        assert cli.main(["analyze", "--graph6", g6, "--json"]) == 0
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            wrong.append(g6)
    assert wrong == []
