"""Independent oracles from installed packages: sympy for the reported root
brackets and root counts, networkx for graph generation and the graph
passes.

Every other oracle in ``tests/`` was written in this repository; these two
share no code with the package.  sympy counts the real roots of each
square-free factor exactly (``Poly.sqf_list`` and ``count_roots``, which
counts a closed interval), so a bracket, its crossing flag and the number
of brackets are checked against the factorization rather than against the
isolation that produced them.
"""

import functools
import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import networkx as nx
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabel
from relshape import graphs as graph_module
from relshape import shape
from relshape.census import generate_connected, generate_trees
from relshape.connsets import count_connected_sets
from relshape.graphs import (
    Graph,
    canonical_graph,
    cut_vertices,
    graph_from_edges,
    is_complete,
    is_connected,
    min_vertex_cut,
    parse_edge_list,
    to_graph6,
    triangle_count,
)
from relshape.poly import second_derivative
from relshape.shape import DEFAULT_TOL, RootRecord, analyze_profile
from strategies import graphs, sparse_graphs

X = sympy.Symbol("x")

# connected graphs on n = 2..8 nodes, up to isomorphism: OEIS A001349
CONNECTED_CLASSES = (1, 2, 6, 21, 112, 853, 11117)

# networkx 3.5+ warns that its WL hashes changed; only their equality matters here
WL_HASH_NOTE = pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")


# -- sympy: the brackets of a shape report -----------------------------------------

@functools.cache
def square_free_factors(coeffs: tuple[int, ...]):
    """sympy's square-free factors, with multiplicity, of the nonzero
    polynomial with these coefficients (lowest degree first).  The oracle
    is pure, so its counts are cached for the controls that rerun it."""
    return sympy.Poly(list(reversed(coeffs)), X).sqf_list()[1]


@functools.cache
def held_roots(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction) -> tuple[int, ...]:
    """The multiplicity of each distinct root in the closed [lo, hi]."""
    return tuple(m for f, m in square_free_factors(coeffs) for _ in range(f.count_roots(lo, hi)))


@functools.cache
def interior_roots(coeffs: tuple[int, ...], odd_only: bool) -> int:
    """The distinct roots in (0, 1), or those of odd multiplicity."""
    return sum(f.count_roots(0, 1) - (f.eval(0) == 0) - (f.eval(1) == 0)
               for f, m in square_free_factors(coeffs) if m % 2 or not odd_only)


def bracket_faults(coeffs, records, tol, odd_only=False) -> list[str]:
    """What is wrong with ``records`` as the brackets of the distinct roots
    in (0, 1) of the polynomial with these coefficients (lowest degree
    first), or of its odd-multiplicity roots with ``odd_only``: each bracket
    must be no wider than ``tol`` and hold exactly one distinct root, its
    ``sign_change`` must say that root has odd multiplicity, and there must
    be one bracket per root."""
    if not any(coeffs):
        return [f"{len(records)} brackets of the zero polynomial"] if records else []
    coeffs = tuple(coeffs)
    faults = []
    for r in records:
        if r.hi - r.lo > tol:
            faults.append(f"({r.lo}, {r.hi}) wider than tol")
        held = held_roots(coeffs, r.lo, r.hi)
        if len(held) != 1:
            faults.append(f"({r.lo}, {r.hi}) holds {len(held)} roots")
        elif r.sign_change != (held[0] % 2 == 1):
            faults.append(f"({r.lo}, {r.hi}) sign_change {r.sign_change}, multiplicity {held[0]}")
    if len(records) != (roots := interior_roots(coeffs, odd_only)):
        faults.append(f"{len(records)} brackets for {roots} roots")
    return faults


def reported_roots(report):
    """(name, coefficients, brackets, odd only) of a report's critical points
    (f'), inflections (f'', odd multiplicity only) and fixed points (f - p)."""
    shifted = list(report.poly.coeffs)
    shifted[1] -= 1
    return (("f'", report.f1, report.critical_points, False),
            ("f''", second_derivative(report.poly), report.inflections, True),
            ("f - p", tuple(shifted), report.fixed_points, False))


def report_faults(report, tol=DEFAULT_TOL) -> list[str]:
    """``bracket_faults`` of a report's f', f'' and f - p."""
    return [f"{name}: {fault}" for name, coeffs, records, odd_only in reported_roots(report)
            for fault in bracket_faults(coeffs, records, tol, odd_only)]


def count_faults(report) -> list[str]:
    """The root counts in (0, 1) of a report that sympy's disagree with: the
    brackets count the distinct roots (the odd ones for f''), and those
    flagged as crossings count the odd-multiplicity roots."""
    faults = []
    for name, coeffs, records, odd_only in reported_roots(report):
        for odd, reported in ((odd_only, len(records)),
                              (True, sum(r.sign_change for r in records))):
            if reported != (roots := interior_roots(tuple(coeffs), odd)):
                faults.append(f"{name}{' odd' * odd}: {reported} roots, sympy {roots}")
    return faults


def failing(profiles) -> list:
    """The profiles whose report the sympy oracle faults."""
    return [p for p in profiles if report_faults(analyze_profile(p))]


@pytest.fixture(scope="module")
def three_inflection(fixtures_dir):
    """The profile of the one graph of order <= 7 with three inflections."""
    return count_connected_sets(
        parse_edge_list((fixtures_dir / "three_inflection_order7.edges").read_text()))


@pytest.fixture(scope="module")
def oracle_slice(vcache, three_inflection):
    """The distinct profiles of orders 2..6, then the three-inflection one."""
    profiles = {p.c: p for n in range(2, 7) for p in map(vcache.profile, generate_connected(n))}
    assert len(profiles) == 111
    return [*profiles.values(), three_inflection]


def test_brackets_hold_the_sympy_roots(oracle_slice):
    assert failing(oracle_slice) == []


@pytest.mark.slow
def test_brackets_hold_the_sympy_roots_on_order_7(vcache):
    profiles = {p.c: p for p in map(vcache.profile, generate_connected(7))}
    assert len(profiles) == 477
    assert failing(profiles.values()) == []


@pytest.mark.slow
def test_root_counts_equal_sympy_on_order_8():
    profiles = {p.c: p for p in map(count_connected_sets, generate_connected(8))}
    assert len(profiles) == 4065
    assert [p for p in profiles.values() if count_faults(analyze_profile(p))] == []


def test_oracle_sees_every_root_reported_as_a_crossing(oracle_slice, monkeypatch):
    real = shape.isolate_roots

    def all_crossings(coeffs, tol):
        return [RootRecord(r.lo, r.hi, r.approx, True) for r in real(coeffs, tol)]

    monkeypatch.setattr(shape, "isolate_roots", all_crossings)
    assert [p.n for p in failing(oracle_slice)] == [4, 4]


def test_oracle_sees_a_cell_left_unrefined(oracle_slice, monkeypatch):
    def input_cell(q, transform, lo_num, hi_num, den, sa, tol):
        return Fraction(lo_num, den), Fraction(hi_num, den), Fraction(lo_num + hi_num, 2 * den)

    monkeypatch.setattr(shape, "_refine", input_cell)
    failed = failing(oracle_slice)
    assert len(failed) == 90 and {p.n for p in failed} == {3, 4, 5, 6, 7}


def test_oracle_sees_the_last_of_three_roots_dropped(oracle_slice, three_inflection,
                                                     monkeypatch):
    real = shape.isolate_roots

    def drop_last(coeffs, tol):
        records = real(coeffs, tol)
        return records[:-1] if len(records) >= 3 else records

    monkeypatch.setattr(shape, "isolate_roots", drop_last)
    assert failing(oracle_slice) == [three_inflection]


# -- networkx: generation and vertex cuts ------------------------------------------

def to_package(g: nx.Graph):
    return graph_from_edges(g.number_of_nodes(), g.edges())


def to_networkx(g) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from((u, v) for u in range(g.n) for v in range(u) if g.adj[u] >> v & 1)
    return h


def keys(graphs) -> set[str]:
    return {to_graph6(canonical_graph(g)) for g in graphs}


def test_atlas_connected_graphs_equal_generation():
    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() >= 2 and nx.is_connected(g)]
    by_order = {n: [to_package(g) for g in atlas if g.number_of_nodes() == n] for n in range(2, 8)}
    assert [len(graphs) for graphs in by_order.values()] == [1, 2, 6, 21, 112, 853]
    for n, graphs in by_order.items():
        atlas_keys = keys(graphs)
        assert len(atlas_keys) == len(graphs)
        assert atlas_keys == {to_graph6(g) for g in generate_connected(n)}


def test_nonisomorphic_trees_equal_generation():
    assert {to_graph6(g) for g in generate_trees(1)} == keys([graph_from_edges(1, [])])
    for n in range(2, 11):
        assert keys(map(to_package, nx.nonisomorphic_trees(n))) == {
            to_graph6(g) for g in generate_trees(n)}


@functools.cache
def wl_hash(g) -> str:
    """networkx's Weisfeiler-Lehman hash of g, 3 iterations: isomorphic
    graphs share it, so only graphs that share it can be isomorphic."""
    return nx.weisfeiler_lehman_graph_hash(to_networkx(g), iterations=3)


def wl_buckets(graphs) -> list[list]:
    buckets = defaultdict(list)
    for g in graphs:
        buckets[wl_hash(g)].append(g)
    return list(buckets.values())


def class_list_faults(graphs, count: int) -> list[str]:
    """Why ``graphs`` are not ``count`` connected graphs in distinct
    isomorphism classes, by networkx alone: a disconnected graph, a wrong
    count, or an isomorphic pair among those that share a hash bucket."""
    faults = [f"{to_graph6(g)} is disconnected" for g in graphs
              if not nx.is_connected(to_networkx(g))]
    if len(graphs) != count:
        faults.append(f"{len(graphs)} classes, not {count}")
    faults += [f"{to_graph6(g)} is isomorphic to {to_graph6(h)}"
               for bucket in wl_buckets(graphs) for g, h in itertools.combinations(bucket, 2)
               if nx.is_isomorphic(to_networkx(g), to_networkx(h))]
    return faults


@pytest.fixture(scope="module")
def order_8_classes():
    return list(generate_connected(8))


@pytest.mark.slow
@WL_HASH_NOTE
def test_order_8_generation_is_complete_by_networkx(order_8_classes):
    # distinct, connected and as many as A001349 counts: so every class once
    counts = [len(list(generate_connected(n))) for n in range(2, 9)]
    assert counts == list(CONNECTED_CLASSES)
    buckets = wl_buckets(order_8_classes)
    assert len(buckets) == 10749
    assert sum(math.comb(len(bucket), 2) for bucket in buckets) == 478
    assert class_list_faults(order_8_classes, CONNECTED_CLASSES[-1]) == []


@pytest.mark.slow
@WL_HASH_NOTE
def test_order_8_proof_sees_a_class_dropped(order_8_classes):
    assert class_list_faults(order_8_classes[1:], CONNECTED_CLASSES[-1]) == [
        "11116 classes, not 11117"]


@pytest.mark.slow
@WL_HASH_NOTE
def test_order_8_proof_sees_a_class_replaced_by_a_relabelled_copy(order_8_classes):
    copy = relabel(order_8_classes[1], tuple(reversed(range(8))))
    assert copy != order_8_classes[1]
    assert class_list_faults([copy, *order_8_classes[1:]], CONNECTED_CLASSES[-1]) == [
        f"{to_graph6(copy)} is isomorphic to {to_graph6(order_8_classes[1])}"]


def paley_9() -> nx.Graph:
    """Paley(9) over GF(9) = GF(3)[i] / (i^2 + 1), a + b i as vertex 3a + b:
    x ~ y when x - y is a nonzero square.  (``nx.paley_graph(9)`` works
    modulo 9, which is not a field.)"""
    def times(x, y):
        (a, b), (c, d) = x, y
        return (a * c - b * d) % 3, (a * d + b * c) % 3

    field = list(itertools.product(range(3), repeat=2))
    squares = {times(x, x) for x in field if x != (0, 0)}
    h = nx.empty_graph(9)
    for x, y in itertools.combinations(field, 2):
        if ((x[0] - y[0]) % 3, (x[1] - y[1]) % 3) in squares:
            h.add_edge(3 * x[0] + x[1], 3 * y[0] + y[1])
    return h


def rook_3x3() -> nx.Graph:
    """K3 □ K3, the 3 x 3 rook's graph."""
    return nx.convert_node_labels_to_integers(
        nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(3)))


PETERSEN = nx.petersen_graph()
SYMMETRIC_9_10 = {
    "petersen": PETERSEN, "petersen-complement": nx.complement(PETERSEN),
    "paley-9": paley_9(), "k3-box-k3": rook_3x3(), "k5,5": nx.complete_bipartite_graph(5, 5),
    "c10(1,3)": nx.circulant_graph(10, [1, 3]), "c10(1,2)": nx.circulant_graph(10, [1, 2]),
    "c9(1,3)": nx.circulant_graph(9, [1, 3]),
    **{f"{name}-{n}": make(n) for n in (9, 10) for name, make in
       (("empty", nx.empty_graph), ("complete", nx.complete_graph), ("cycle", nx.cycle_graph))},
}


def canonical_faults(g, perm) -> list[str]:
    """Why ``canonical_form`` fails on g, by networkx: a key that the
    relabelling ``perm`` changes, a canonical graph that VF2 finds not
    isomorphic to g, or a generator that is no automorphism of it."""
    key, generators = graph_module.canonical_form(g.adj)
    faults = []
    if graph_module.canonical_form(relabel(g, perm).adj)[0] != key:
        faults.append(f"{to_graph6(g)}: the relabelling {perm} changes the key")
    canonical = canonical_graph(g)
    if not nx.is_isomorphic(to_networkx(canonical), to_networkx(g)):
        faults.append(f"{to_graph6(g)}: the canonical graph {key} is not isomorphic to it")
    faults += [f"{to_graph6(g)}: generator {tuple(p)} is no automorphism of {key}"
               for p in generators
               if sorted(p) != list(range(g.n)) or relabel(canonical, tuple(p)) != canonical]
    return faults


def shuffled(g, seed: int) -> tuple[int, ...]:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return tuple(perm)


def test_paley_9_over_gf9_is_k3_box_k3():
    paley = SYMMETRIC_9_10["paley-9"]
    assert paley.number_of_edges() == 18 and nx.is_regular(paley)
    assert nx.paley_graph(9).to_undirected().number_of_edges() == 27  # not Paley(9)
    assert to_graph6(canonical_graph(to_package(paley))) == to_graph6(
        canonical_graph(to_package(SYMMETRIC_9_10["k3-box-k3"])))


@pytest.mark.parametrize("name", SYMMETRIC_9_10)
def test_canonical_form_of_a_symmetric_graph_by_networkx(name):
    g = to_package(SYMMETRIC_9_10[name])
    assert g.n in (9, 10)
    for seed in range(3):
        assert canonical_faults(g, shuffled(g, seed)) == []


@st.composite
def gnp_9_10(draw):
    """A G(n, p) graph of order 9 or 10 by networkx, and a relabelling."""
    n = draw(st.sampled_from([9, 10]))
    p = draw(st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9]))
    g = to_package(nx.gnp_random_graph(n, p, seed=draw(st.integers(0, 2**32 - 1))))
    return g, tuple(draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(gnp_9_10())
def test_canonical_form_of_gnp_graphs_of_order_9_and_10_by_networkx(case):
    assert canonical_faults(*case) == []


def test_canonical_check_sees_a_key_that_is_the_input_itself(monkeypatch):
    """Negative control: a canonical form that returns the input's own
    graph6, with no generators, passes VF2, but a relabelling changes its
    key on every symmetric graph except the empty and complete ones, which
    every relabelling fixes."""
    def own_graph6(adj):
        return to_graph6(Graph(len(adj), tuple(adj))), ()

    monkeypatch.setattr(graph_module, "canonical_form", own_graph6)
    for name, h in SYMMETRIC_9_10.items():
        g = to_package(h)
        faults = canonical_faults(g, shuffled(g, 0))
        if name.startswith(("empty", "complete")):
            assert faults == []
        else:
            assert len(faults) == 1 and "relabelling" in faults[0]


def test_node_connectivity_equals_min_vertex_cut():
    checked = 0
    for n in range(3, 7):
        for g in generate_connected(n):
            if is_complete(g):
                continue
            assert min_vertex_cut(g) == nx.node_connectivity(to_networkx(g))
            checked += 1
    assert checked == 1 + 5 + 20 + 111


def assert_graph_passes_equal_networkx(g):
    h = to_networkx(g)
    assert is_connected(g) == nx.is_connected(h)
    assert set(cut_vertices(g)) == set(nx.articulation_points(h))
    assert triangle_count(g) == sum(nx.triangles(h).values()) // 3


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(min_n=1, max_n=62))
def test_graph_passes_equal_networkx_on_sparse_graphs(g):
    assert_graph_passes_equal_networkx(g)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=24))
def test_graph_passes_equal_networkx_on_dense_graphs(g):
    assert_graph_passes_equal_networkx(g)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=12) | sparse_graphs(min_n=1, max_n=12))
def test_min_vertex_cut_equals_node_connectivity(g):
    # networkx gives 0 for a disconnected graph, as the package does, and
    # n - 1 for a complete graph, which has no vertex cut
    expected = None if is_complete(g) else nx.node_connectivity(to_networkx(g))
    assert min_vertex_cut(g) == expected
