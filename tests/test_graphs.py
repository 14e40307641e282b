import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle
from conftest import automorphisms, relabel
from relshape.census import generate_connected, generate_trees
from relshape.graphs import (
    MAX_ORDER,
    _articulation_points,
    _component_mask,
    FamilySpec,
    Graph,
    Graph6ParseError,
    EdgeListParseError,
    canonical_form,
    canonical_graph,
    cut_vertices,
    disjoint_union,
    graph_from_edges,
    is_connected,
    is_two_connected,
    make_family,
    min_vertex_cut,
    parse_edge_list,
    parse_graph6,
    to_graph6,
    triangle_count,
)
from strategies import graphs, sparse_graphs


def fam(kind, *params):
    return make_family(FamilySpec(kind, tuple(params)))


def canonical_key(g):
    """The graph6 string of the canonical form: equal exactly for isomorphic
    graphs."""
    return to_graph6(canonical_graph(g))


def leaves(g):
    return [v for v, d in enumerate(g.degrees()) if d == 1]


# -- graph6 ------------------------------------------------------------------

def test_smallest_graph6_is_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.adj == (0,)
    assert to_graph6(g) == "@"


def test_dqc_is_a_path_on_five_vertices():
    g = parse_graph6("DQc")
    assert canonical_key(g) == canonical_key(fam("path", 5))


def test_header_tolerated():
    assert parse_graph6(">>graph6<<DQc") == parse_graph6("DQc")


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_round_trip_sweep():
    # 200 seeded random graphs at every order 2..10
    rng = random.Random(77)
    for n in range(2, 11):
        for _ in range(200):
            adj = [0] * n
            for i, j in combinations(range(n), 2):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            g = Graph(n, tuple(adj))
            assert parse_graph6(to_graph6(g)) == g


def test_round_trip_on_census_fixture(fixtures_dir):
    for line in (fixtures_dir / "connected_upto7.g6").read_text().splitlines():
        assert to_graph6(parse_graph6(line)) == line


@pytest.mark.parametrize("bad, offset", [
    ("~??", 0),      # extended size encoding
    ("D" + chr(40) * 2, 1),   # data byte below 63
    ("DQcX", 3),     # trailing garbage
])
def test_graph6_errors_name_offset(bad, offset):
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6(bad)
    assert err.value.offset == offset


def test_graph6_nonzero_padding_rejected():
    # 'DQd' flips a padding bit of 'DQc'
    with pytest.raises(Graph6ParseError):
        parse_graph6("DQd")


def test_graph6_truncated():
    with pytest.raises(Graph6ParseError):
        parse_graph6("E?")


# -- edge lists ---------------------------------------------------------------

def test_edge_list_k2():
    g = parse_edge_list("2 0 1")
    assert g.n == 2 and g.m == 1


def test_edge_list_duplicates_ignored():
    g = parse_edge_list("3 0 1 1 0")
    assert g.n == 3 and g.m == 1


def test_edge_list_three_inflection_fixture(fixtures_dir):
    g = parse_edge_list((fixtures_dir / "three_inflection_order7.edges").read_text())
    assert g.n == 7 and g.m == 9
    assert len(leaves(g)) == 1 and len(cut_vertices(g)) == 1


@pytest.mark.parametrize("text", ["3 0 0", "3 0 5", "3 0 x", "0", "3 0", ""])
def test_edge_list_errors(text):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(text)


# -- families ------------------------------------------------------------------

def test_complete_graph():
    g = fam("complete", 4)
    assert g.n == 4 and g.m == 6


def test_bonded_complete_leaf():
    g = fam("bonded-complete-leaf", 10)
    assert g.n == 10 and g.m == 37
    assert cut_vertices(g) == (0,)
    assert not is_two_connected(g)


def test_star_union_single_vertex():
    spec = FamilySpec("disjoint-union",
                      parts=(FamilySpec("star", (20,)), FamilySpec("complete", (1,))))
    g = make_family(spec)
    assert g.n == 21 and g.m == 19 and not is_connected(g)
    assert spec.label() == "union(star:20,complete:1)"


@pytest.mark.parametrize("kind, params", [
    ("cycle", (2,)),
    ("complete", (0,)),
    ("complete", (63,)),
    ("bonded-complete-leaf", (1,)),
    ("complete-bipartite", (3,)),
    ("nosuch", (3,)),
])
def test_family_validation(kind, params):
    with pytest.raises(ValueError):
        FamilySpec(kind, params)


def test_union_order_cap():
    with pytest.raises(ValueError):
        FamilySpec("disjoint-union",
                   parts=(FamilySpec("complete", (40,)), FamilySpec("complete", (40,))))


# -- structural predicates -----------------------------------------------------

@given(graphs(max_n=10))
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees()) == 2 * g.m


@given(graphs(min_n=1, max_n=8))
def test_two_connected_equivalence(g):
    expected = is_connected(g) and not cut_vertices(g) and g.n >= 3
    assert is_two_connected(g) == expected


def component_count(g, removed=0):
    remaining = ((1 << g.n) - 1) & ~removed
    count = 0
    while remaining:
        start = remaining & -remaining
        remaining &= ~_component_mask(g.adj, start, remaining)
        count += 1
    return count


def cut_vertices_by_removal(g):
    """Oracle: the vertices whose removal increases the component count."""
    base = component_count(g)
    return tuple(v for v in range(g.n)
                 if g.n > 1 and component_count(g, removed=1 << v) > base)


@given(graphs(min_n=1, max_n=12))
def test_cut_vertices_match_removal_definition(g):
    assert cut_vertices(g) == cut_vertices_by_removal(g)


@given(sparse_graphs(min_n=1, max_n=16))
def test_cut_vertices_match_removal_definition_on_sparse_graphs(g):
    assert cut_vertices(g) == cut_vertices_by_removal(g)


@pytest.mark.parametrize("g, expected", [
    (Graph(1, (0,)), ()),
    (fam("empty", 4), ()),
    (fam("complete", 2), ()),
    (make_family(FamilySpec("disjoint-union",
                            parts=(FamilySpec("path", (3,)), FamilySpec("star", (4,))))), (1, 3)),
    (make_family(FamilySpec("disjoint-union",
                            parts=(FamilySpec("cycle", (5,)), FamilySpec("path", (4,))))), (6, 7)),
])
def test_cut_vertices_small_and_disconnected(g, expected):
    assert cut_vertices(g) == expected == cut_vertices_by_removal(g)


def test_path5_cut_vertices():
    assert cut_vertices(fam("path", 5)) == (1, 2, 3)


def test_cycle6_two_connected_min_cut():
    g = fam("cycle", 6)
    assert is_two_connected(g)
    assert min_vertex_cut(g) == 2


def test_min_cut_special_cases():
    assert min_vertex_cut(fam("complete", 5)) is None
    assert min_vertex_cut(fam("empty", 3)) == 0
    assert min_vertex_cut(fam("star", 5)) == 1
    assert min_vertex_cut(fam("complete-bipartite", 2, 3)) == 2


def test_structural_stats_examples():
    assert triangle_count(fam("complete", 4)) == 4
    star, p6 = fam("star", 6), fam("path", 6)

    def on_degree_two(g):
        return sum(g.degree(g.adj[v].bit_length() - 1) == 2 for v in leaves(g))

    assert len(leaves(star)) == 5 and on_degree_two(star) == 0
    assert len(leaves(p6)) == 2 and on_degree_two(p6) == 2 and len(cut_vertices(p6)) == 4
    assert sorted(p6.degrees(), reverse=True) == [2, 2, 2, 2, 1, 1]


# -- canonical form --------------------------------------------------------------

def test_p3_labelings_share_key():
    a = parse_edge_list("3 0 1 1 2")
    b = parse_edge_list("3 1 0 0 2")
    assert canonical_key(a) == canonical_key(b)


@settings(max_examples=60)
@given(graphs(min_n=3, max_n=8))
def test_canonical_key_relabel_invariance(g):
    rng = random.Random(sum(g.adj) + g.n)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(g) == canonical_key(relabel(g, perm))


def test_canonical_key_relabel_invariance_sweep():
    # 100 seeded (graph, permutation) pairs at every order 3..8
    rng = random.Random(404)
    for n in range(3, 9):
        for _ in range(100):
            adj = [0] * n
            for i, j in combinations(range(n), 2):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            g = Graph(n, tuple(adj))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(relabel(g, perm))


def test_canonical_key_separates_non_isomorphic():
    assert canonical_key(fam("path", 4)) != canonical_key(fam("star", 4))


def test_canonical_graph_is_canonical_fixed_point():
    g = fam("cycle", 5)
    c = canonical_graph(g)
    assert canonical_graph(c) == c
    assert canonical_key(c) == canonical_key(g)


def test_canonical_key_order_cap():
    with pytest.raises(ValueError):
        canonical_key(fam("path", 11))
    with pytest.raises(ValueError):
        canonical_form(fam("path", 11).adj)


def test_canonical_key_minimum_over_all_permutations():
    # independent oracle: explicit minimum over every labeling
    from itertools import permutations

    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        adj = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        g = Graph(n, tuple(adj))
        best = None
        for perm in permutations(range(n)):
            bits = tuple(g.adj[perm[i]] >> perm[j] & 1
                         for j in range(1, n) for i in range(j))
            best = bits if best is None or bits < best else best
        canon = canonical_graph(g)
        got = tuple(canon.adj[i] >> j & 1 for j in range(1, n) for i in range(j))
        assert got == best


def generated_group(generators, n):
    """The permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for p in generators:
            y = tuple(p[x[v]] for v in range(n))
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


def test_automorphism_generators_generate_the_group():
    """Each generator of ``canonical_form`` maps the canonical graph onto
    itself, and together they give its whole automorphism group: every
    permutation that does so up to order 6, and beyond that every one that
    the pruned search ``automorphisms`` finds."""
    rng = random.Random(71)
    cases = [g for n in range(2, 7) for g in generate_connected(n)]
    cases += [g for n in range(1, 9) for g in generate_trees(n)]
    for n in (5, 6):
        for density in (0.2, 0.5, 0.8):
            for _ in range(10):
                cases.append(graph_from_edges(n, (e for e in combinations(range(n), 2)
                                                  if rng.random() < density)))
    order7 = list(generate_connected(7))
    for g in rng.sample(order7, 50):
        perm = list(range(7))
        rng.shuffle(perm)
        cases.append(relabel(g, perm))
    for g in cases:
        key, generators = canonical_form(g.adj)
        canon = parse_graph6(key)
        assert all(relabel(canon, p) == canon for p in generators), key
        if g.n <= 6:
            group = {p for p in permutations(range(g.n)) if relabel(canon, p) == canon}
        else:
            group = set(automorphisms(canon))
        assert generated_group(generators, g.n) == group, key


def upper_triangle(g):
    return tuple(g.adj[i] >> j & 1 for j in range(1, g.n) for i in range(j))


def min_over_all_orderings(g):
    """Oracle: the least column-major upper-triangle string over all n!
    orderings."""
    pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
    return min(tuple(g.adj[perm[i]] >> perm[j] & 1 for i, j in pairs)
               for perm in permutations(range(g.n)))


def assert_canonical_is_minimum(g):
    key, generators = canonical_form(g.adj)
    canon = canonical_graph(g)
    assert to_graph6(canon) == key
    assert upper_triangle(canon) == min_over_all_orderings(g), to_graph6(g)
    assert all(relabel(canon, p) == canon for p in generators), key
    assert canonical_key(canon) == canonical_key(g)
    assert canonical_graph(canon) == canon


def test_order_one_canonical_form():
    g = Graph(1, (0,))
    assert canonical_key(g) == "@"
    assert canonical_graph(g) == g


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_graph_minimum_over_every_labelled_graph(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        assert_canonical_is_minimum(
            graph_from_edges(n, (e for bit, e in enumerate(pairs) if mask >> bit & 1)))


def cliques(*sizes):
    edges, start = [], 0
    for size in sizes:
        edges += combinations(range(start, start + size), 2)
        start += size
    return graph_from_edges(start, edges)


def test_canonical_graph_minimum_on_orders_6_and_7():
    # the all-zero prefix of the canonical string is a maximum independent
    # set: these families make it every vertex, one vertex, a star's leaves,
    # one or either side of a complete bipartite graph, or one vertex per
    # clique
    rng = random.Random(67)
    cases = [fam("empty", 6), fam("empty", 7), fam("complete", 6), fam("complete", 7),
             fam("star", 6), fam("star", 7)]
    cases += [fam("complete-bipartite", a, n - a) for n in (6, 7) for a in range(1, n // 2 + 1)]
    cases += [cliques(*sizes) for sizes in ((3, 3), (2, 2, 2), (1, 5), (1, 1, 4), (3, 4),
                                            (2, 5), (2, 2, 3), (1, 2, 4), (1, 1, 1, 4))]
    cases += generate_trees(7)
    for n in (6, 7):
        for density in (0.2, 0.5, 0.8):
            for _ in range(3):
                cases.append(graph_from_edges(n, (e for e in combinations(range(n), 2)
                                                  if rng.random() < density)))
    assert len(cases) == 50
    for g in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert_canonical_is_minimum(relabel(g, perm))


# -- word-at-a-time passes against their per-bit oracles ---------------------

@st.composite
def family_specs(draw, max_order=MAX_ORDER):
    """A named family of order at most ``max_order``, or the disjoint union
    of two."""
    if max_order >= 2 and draw(st.booleans()):
        left = draw(family_specs(max_order=max_order - 1))
        right = draw(family_specs(max_order=max_order - left.order))
        return FamilySpec("disjoint-union", parts=(left, right))
    kinds = ["complete", "empty", "path", "star"]
    if max_order >= 2:
        kinds += ["complete-bipartite", "bonded-complete-leaf"]
    if max_order >= 3:
        kinds.append("cycle")
    kind = draw(st.sampled_from(kinds))
    if kind == "complete-bipartite":
        a = draw(st.integers(1, max_order - 1))
        return FamilySpec(kind, (a, draw(st.integers(1, max_order - a))))
    least = {"cycle": 3, "bonded-complete-leaf": 2}.get(kind, 1)
    return FamilySpec(kind, (draw(st.integers(least, max_order)),))


@st.composite
def graphs_of_any_density(draw):
    """Orders 1..62: each pair an edge with one drawn probability in [0, 1]
    (0 and 1 among them), or a named family or union of two."""
    if draw(st.booleans()):
        return graph_oracle.make_family(draw(family_specs()))
    n = draw(st.integers(1, MAX_ORDER))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    adj = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


@settings(max_examples=200, deadline=None)
@given(graphs_of_any_density())
def test_graph_passes_equal_their_oracles(g):
    assert graph_oracle.validate(g.n, g.adj) is None
    assert Graph(g.n, g.adj) == g
    assert to_graph6(g) == graph_oracle.to_graph6(g)
    assert parse_graph6(to_graph6(g)) == g
    assert _articulation_points(g.adj) == graph_oracle.articulation_points(g.adj)
    assert triangle_count(g) == graph_oracle.triangle_count(g)


@settings(max_examples=200, deadline=None)
@given(family_specs())
def test_families_equal_their_edge_lists(spec):
    assert make_family(spec) == graph_oracle.make_family(spec)


@settings(max_examples=300, deadline=None)
@given(graphs_of_any_density(), st.data())
def test_invalid_adjacency_raises_the_oracle_error(g, data):
    """A loop, a bit out of range (above n - 1, or a negative mask) and an
    asymmetric pair, one to three of them: the ValueError names the same
    first fault as the vertex-by-vertex check."""
    adj = list(g.adj)
    vertex = st.integers(0, g.n - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        v = data.draw(vertex)
        fault = data.draw(st.sampled_from(["loop", "range", "negative", "flip"]))
        if fault == "loop":
            adj[v] |= 1 << v
        elif fault == "range":
            adj[v] |= 1 << data.draw(st.integers(g.n, 200))
        elif fault == "negative":
            adj[v] = -1 - adj[v]
        else:
            adj[v] ^= 1 << data.draw(vertex)
    adj = tuple(adj)
    try:
        graph_oracle.validate(g.n, adj)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            Graph(g.n, adj)
        assert str(raised.value) == str(exc)
    else:
        assert Graph(g.n, adj).adj == adj


@settings(max_examples=300, deadline=None)
@given(graphs_of_any_density(), st.data())
def test_parse_graph6_equals_its_oracle(g, data):
    """The graph6 line of g, as it is or with one to three characters
    replaced by any of bytes 0..255, is decoded to the same graph, or
    rejected with the same message and offset, as character by character."""
    chars = list(to_graph6(g))
    if data.draw(st.booleans()):
        # the last character holds the padding bits
        position = st.integers(0, len(chars) - 1) | st.just(len(chars) - 1)
        byte = st.integers(0, 255) | st.integers(63, 126)
        for _ in range(data.draw(st.integers(1, 3))):
            chars[data.draw(position)] = chr(data.draw(byte))
    line = "".join(chars)
    try:
        expected = graph_oracle.parse_graph6(line)
    except Graph6ParseError as exc:
        with pytest.raises(Graph6ParseError) as raised:
            parse_graph6(line)
        assert (str(raised.value), raised.value.offset) == (str(exc), exc.offset)
    else:
        assert parse_graph6(line) == expected


@pytest.mark.parametrize("adj, message", [
    ((0b10, 0b11), "vertex 1 has a loop"),
    ((0b100, 0b00), "vertex 0 has a neighbor bit outside 0..1"),
    ((-1, 0b01), "vertex 0 has a neighbor bit outside 0..1"),
    ((0b01, 0b100), "vertex 0 has a loop"),
    ((0b110, 0b000, 0b001), "asymmetric adjacency between 0 and 1"),
    ((0b000, 0b100, 0b000), "asymmetric adjacency between 1 and 2"),
    ((0,) * 61 + (1,), "asymmetric adjacency between 61 and 0"),
])
def test_invalid_adjacency_messages(adj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(len(adj), adj)


@pytest.mark.parametrize("make, message", [
    (lambda: Graph(0, ()), "graph order must be in 1..62, got 0"),
    (lambda: Graph(2, (0,)), "adjacency length does not match order"),
    (lambda: graph_from_edges(3, [(0, 1), (2, 2)]), "loop at vertex 2"),
    (lambda: disjoint_union(Graph(31, (0,) * 31), Graph(32, (0,) * 32)),
     "union order 63 exceeds 62"),
    (lambda: parse_graph6(">>graph6<<\n"), "empty graph6 string"),
    (lambda: parse_edge_list("six 0 1"), "order token 'six' is not an integer"),
    (lambda: FamilySpec("disjoint-union", (2,), (FamilySpec("path", (2,)),) * 2),
     "disjoint-union takes exactly two sub-specs"),
    (lambda: FamilySpec("path", (4,), (FamilySpec("path", (2,)),)), "path takes no sub-specs"),
], ids=["order", "length", "loop", "union-order", "empty-graph6", "edge-list-order",
        "union-params", "sub-specs"])
def test_invalid_input_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


def test_graph6_of_census_classes_and_trees_equals_the_oracle():
    graphs = [g for n in range(2, 8) for g in generate_connected(n)]
    graphs += [g for n in range(1, 11) for g in generate_trees(n)]
    assert [to_graph6(g) for g in graphs] == [graph_oracle.to_graph6(g) for g in graphs]
