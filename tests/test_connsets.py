import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_connected_sets_frontier, relabel, sparse_pool_digests
from connsets_oracle import (
    BRUTEFORCE_CAP,
    count_connected_sets_bruteforce,
    frontier_order_full_scan,
    transition_reference,
)
from relshape import connsets
from relshape.connsets import (
    FRONTIER_MEMO_CAP,
    FRONTIER_MIN_ORDER,
    ConnSetProfile,
    check_coefficient_identities,
    clear_frontier_memo,
    count_connected_sets,
    count_connected_sets_by_extension,
    extend_profile,
    f_coefficients,
    frontier_memo_size,
    frontier_order,
    frontier_plan,
    first_bound_violation,
    first_sperner_violation,
    family_profile,
    profile_disjoint_union,
)
from relshape.graphs import (
    FamilySpec,
    Graph,
    disjoint_union,
    graph_from_edges,
    is_complete,
    make_family,
    parse_graph6,
)
from relshape.verification import sparse_decrease_graphs
from strategies import graphs, sparse_graphs


def fam(kind, *params):
    return FamilySpec(kind, tuple(params))


@given(graphs(max_n=10))
def test_enumeration_matches_exhaustive_scan(g):
    assert count_connected_sets(g) == count_connected_sets_bruteforce(g)


@given(graphs(min_n=2, max_n=10))
def test_extended_profile_matches_exhaustive_scan(g):
    # the profile of g without its last vertex plus the sets through it;
    # disconnected graphs and an isolated last vertex included
    n = g.n
    rest = Graph(n - 1, tuple(a & ~(1 << (n - 1)) for a in g.adj[:-1]))
    assert extend_profile(count_connected_sets_bruteforce(rest), g.adj) == \
        count_connected_sets_bruteforce(g)


def test_enumeration_matches_scan_on_order6_census(graphs6):
    for g in graphs6:
        assert count_connected_sets(g) == count_connected_sets_bruteforce(g)


@pytest.mark.parametrize("spec, expected", [
    (fam("complete", 4), (0, 4, 6, 4, 1)),
    (fam("path", 4), (0, 4, 3, 2, 1)),
    (fam("path", 6), (0, 6, 5, 4, 3, 2, 1)),
    (fam("empty", 5), (0, 5, 0, 0, 0, 0)),
])
def test_known_profiles(spec, expected):
    assert count_connected_sets(make_family(spec)).c == expected


@pytest.mark.parametrize("spec, expected", [
    (fam("cycle", 5), (0, 5, 5, 5, 5, 1)),
    (fam("star", 6), (0, 6, 5, 10, 10, 5, 1)),
    (fam("complete", 3), (0, 3, 3, 1)),
])
def test_closed_form_values(spec, expected):
    assert family_profile(spec).c == expected


@pytest.mark.parametrize("kind", ["complete", "empty", "path", "cycle", "star",
                                  "bonded-complete-leaf"])
def test_closed_form_matches_enumeration(kind):
    lo = {"cycle": 3, "bonded-complete-leaf": 2}.get(kind, 1)
    for n in range(lo, 13):
        spec = fam(kind, n)
        assert family_profile(spec) == count_connected_sets(make_family(spec))


def test_complete_graph_total_is_all_nonempty_subsets():
    for n in range(1, 11):
        profile = family_profile(fam("complete", n))
        assert sum(profile.c) == 2**n - 1


def test_disjoint_union_profile_matches_enumeration():
    spec = FamilySpec("disjoint-union",
                      parts=(fam("star", 9), fam("path", 4)))
    composed = profile_disjoint_union(
        family_profile(fam("star", 9)), family_profile(fam("path", 4)))
    assert composed == count_connected_sets(make_family(spec))


def test_order_cap():
    with pytest.raises(ValueError):
        count_connected_sets(make_family(fam("cycle", 40)))
    with pytest.raises(ValueError):
        count_connected_sets_bruteforce(make_family(fam("cycle", BRUTEFORCE_CAP + 1)))


def test_monotone_under_edge_addition():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        n = rng.randint(4, 9)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        g = Graph(n, tuple(adj))
        missing = [(i, j) for i in range(n) for j in range(i + 1, n)
                   if not g.adj[i] >> j & 1]
        if not missing:
            continue
        u, v = missing[rng.randrange(len(missing))]
        bigger_adj = list(adj)
        bigger_adj[u] |= 1 << v
        bigger_adj[v] |= 1 << u
        before = count_connected_sets(g).c
        after = count_connected_sets(Graph(n, tuple(bigger_adj))).c
        assert all(b >= a for a, b in zip(before, after))
        checked += 1


# -- frontier dynamic program and the counter dispatch ---------------------------

def grid(rows, cols):
    return graph_from_edges(rows * cols, [
        (r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)
    ] + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


def random_graph(rng, n, p):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])


def seeded_sparse_graph(rng, n, extra):
    """Random recursive spanning tree plus ``extra`` random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return graph_from_edges(n, edges)


@given(graphs(max_n=12))
def test_frontier_matches_exhaustive_scan(g):
    assert count_connected_sets_frontier(g) == count_connected_sets_bruteforce(g)


def test_frontier_matches_enumeration_on_order7_census(graphs7):
    for g in graphs7:
        assert count_connected_sets_frontier(g) == count_connected_sets_by_extension(g)


@given(sparse_graphs(max_n=14))
def test_frontier_matches_exhaustive_scan_on_sparse_graphs(g):
    assert count_connected_sets_frontier(g) == count_connected_sets_bruteforce(g)


def test_frontier_matches_enumeration_on_sparse_graphs():
    rng = random.Random(16)
    cases = [seeded_sparse_graph(rng, n, n // 4) for n in range(16, 26)]
    cases += [disjoint_union(seeded_sparse_graph(rng, a, 2), seeded_sparse_graph(rng, b, 3))
              for a, b in ((9, 9), (4, 14))]
    cases.append(disjoint_union(make_family(fam("complete", 1)), seeded_sparse_graph(rng, 20, 4)))
    for g in cases:
        assert frontier_plan(g) is not None
        assert count_connected_sets_frontier(g) == count_connected_sets_by_extension(g)
        assert count_connected_sets(g) == count_connected_sets_frontier(g)


@pytest.mark.parametrize("kind", ["path", "cycle", "star"])
def test_closed_form_matches_frontier_program(kind):
    for n in range(FRONTIER_MIN_ORDER, 31):
        spec = fam(kind, n)
        g = make_family(spec)
        assert frontier_plan(g) is not None
        assert count_connected_sets(g) == family_profile(spec)


def test_frontier_order_widths():
    order, widths = frontier_order(grid(3, 8))
    assert sorted(order) == list(range(24))
    assert max(widths) == 3 and widths[-1] == 0
    # star: the centre (lowest index among the ties) first, then one leaf at a time
    order, widths = frontier_order(make_family(fam("star", 6)))
    assert order == [0, 1, 2, 3, 4, 5] and widths == [1, 1, 1, 1, 1, 0]


@st.composite
def graphs_with_isolated_vertices(draw):
    """A dense or a sparse graph (forests split often) of order up to 27,
    plus up to three degree-0 vertices, relabelled so that any index can be
    isolated: order 1..30."""
    g = draw(st.one_of(graphs(max_n=27), sparse_graphs(max_n=27)))
    isolated = draw(st.integers(0, 3))
    if isolated:
        g = disjoint_union(g, make_family(fam("empty", isolated)))
    return relabel(g, draw(st.permutations(range(g.n))))


P3_P3 = disjoint_union(make_family(fam("path", 3)), make_family(fam("path", 3)))


@settings(max_examples=300, deadline=None)
@given(graphs_with_isolated_vertices())
@example(P3_P3)
@example(make_family(fam("empty", 5)))
@example(relabel(disjoint_union(make_family(fam("star", 4)), make_family(fam("empty", 2))),
                 [5, 0, 3, 1, 4, 2]))
@example(graph_from_edges(7, [(1, 6), (6, 3), (2, 5)]))
def test_frontier_order_matches_the_full_scan(g):
    # scoring only the boundary picks the vertex the full scan picks
    assert frontier_order(g) == frontier_order_full_scan(g)


def test_frontier_order_matches_the_full_scan_on_the_sparse_pool():
    pool = [parse_graph6(g6) for g6 in sparse_pool_digests()]
    assert len(pool) == 200
    assert [frontier_order(g) for g in pool] == [frontier_order_full_scan(g) for g in pool]


def test_a_boundary_scan_needs_its_fallback():
    # negative control: scoring only the boundary, and every vertex only at
    # the first step (no vertex is processed yet), agrees on a connected
    # graph but stops after the first component of P3 + P3
    def boundary_only(unprocessed, boundary):
        return unprocessed if unprocessed == (1 << 6) - 1 else boundary

    path6 = make_family(fam("path", 6))
    assert frontier_order_full_scan(path6, boundary_only) == frontier_order(path6)
    assert frontier_order_full_scan(P3_P3, boundary_only) == ([0, 1, 2], [1, 1, 0])
    assert frontier_order_full_scan(P3_P3, boundary_only) != frontier_order(P3_P3)
    assert frontier_order(P3_P3) == ([0, 1, 2, 3, 4, 5], [1, 1, 0, 1, 1, 0])


def test_transitions_match_the_reference(monkeypatch):
    # from an empty memo the 200 sparse-pool graphs need exactly the 5,416
    # transitions the memo comment names, each worked out once and stored;
    # every transition met there and over the sparse-decrease graphs equals
    # the reference, whose states are label tuples rather than ids
    met = []
    transition = connsets._transition

    def recorded(state, joins, keep):
        outcome = transition(state, joins, keep)
        met.append(((state, joins, keep), outcome))
        return outcome

    monkeypatch.setattr(connsets, "_transition", recorded)
    clear_frontier_memo()
    for g6 in sparse_pool_digests():
        g = parse_graph6(g6)
        assert frontier_plan(g) is not None
        count_connected_sets(g)
    assert len(met) == 5416
    assert frontier_memo_size() == 5416
    for g in sparse_decrease_graphs():
        count_connected_sets_frontier(g)
    assert len(met) > 5416
    assert len({args for args, _ in met}) == len(met)

    def labels(outcome):
        return connsets._STATES[outcome] if outcome >= 0 else outcome

    wrong = [args for args, outcome in met
             if tuple(map(labels, outcome)) != transition_reference(*args)]
    assert wrong == []


@pytest.mark.parametrize("g, use_frontier", [
    (make_family(fam("path", FRONTIER_MIN_ORDER - 1)), False),
    (grid(3, 5), False),
    (make_family(fam("complete", 18)), False),
    (random_graph(random.Random(20), 20, 0.5), False),
    (grid(5, 5), True),
    (make_family(fam("path", FRONTIER_MIN_ORDER)), True),
], ids=["path15", "grid3x5", "K18", "G(20,1/2)", "grid5x5", "path16"])
def test_counter_dispatch(g, use_frontier):
    assert (frontier_plan(g) is not None) == use_frontier


# Bell numbers B_0..B_20 (OEIS A000110)
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597,
        27644437, 190899322, 1382958545, 10480142147, 82864869804,
        682076806159, 5832742205057, 51724158235372]


def test_dispatch_follows_state_bound():
    # the frontier program runs exactly when sum_i Bell(w_i + 1) < 2^n
    rng = random.Random(3)
    sides = set()
    for _ in range(60):
        n = rng.randint(FRONTIER_MIN_ORDER, 20)
        g = random_graph(rng, n, rng.choice([0.15, 0.2, 0.25, 0.3, 0.4]))
        order, widths = frontier_order(g)
        cheaper = sum(BELL[w + 1] for w in widths) < 2**n
        assert frontier_plan(g) == (order if cheaper else None)
        sides.add(cheaper)
    assert sides == {True, False}


def test_grid_profile_by_frontier_program():
    # 5x5 grid: 2,301,877 connected sets, counted without visiting them
    g = grid(5, 5)
    profile = count_connected_sets(g)
    assert sum(profile.c) == 2301877
    # c_3 = wedges (4*1 + 12*3 + 9*6), c_24 = n - 0 cut vertices
    assert profile.c[:4] == (0, 25, 40, 94)
    assert profile.c[-2:] == (25, 1)
    assert all(item.passed for item in check_coefficient_identities(g, profile))


def test_frontier_memo_cold_and_warm():
    # the memo is shared by every count in the process, so the same graphs
    # counted in another order or a second time must not change a profile
    rng = random.Random(15)
    cases = [seeded_sparse_graph(rng, n, extra) for n in range(16, 26) for extra in (n // 4, n // 3)]
    cases.append(disjoint_union(seeded_sparse_graph(rng, 8, 2), seeded_sparse_graph(rng, 12, 3)))
    expected = {id(g): count_connected_sets_by_extension(g) for g in cases}
    for _ in range(2):
        rng.shuffle(cases)
        clear_frontier_memo()
        assert frontier_memo_size() == 0
        for run in ("cold", "warm"):
            for g in cases:
                assert frontier_plan(g) is not None
                assert count_connected_sets(g) == expected[id(g)], run
            assert 0 < frontier_memo_size() <= FRONTIER_MEMO_CAP


def test_frontier_memo_stops_at_its_cap(monkeypatch):
    # an order-24 graph with frontier width 11 has 36,373 (step, state) pairs,
    # more than the cap: the count fills the memo to the cap, never beyond it
    # and never clearing it mid-count, and the next count starts afresh;
    # 12,834,219 connected sets, as counted before the memo existed
    g = random_graph(random.Random(24), 24, 0.3)
    assert frontier_plan(g) is not None and max(frontier_order(g)[1]) == 11
    clear_frontier_memo()
    profile = count_connected_sets(g)
    assert frontier_memo_size() == FRONTIER_MEMO_CAP
    assert sum(profile.c) == 12834219
    assert all(item.passed for item in check_coefficient_identities(g, profile))
    count_connected_sets(grid(4, 4))
    assert 0 < frontier_memo_size() < FRONTIER_MEMO_CAP
    # with no room at all every transition is worked out afresh
    monkeypatch.setattr(connsets, "FRONTIER_MEMO_CAP", 0)
    assert count_connected_sets(g) == profile
    assert frontier_memo_size() == 0


@pytest.mark.parametrize("cap", [0, 1, 500, 10**9])
def test_frontier_memo_cap_keeps_wide_grid_profile(monkeypatch, cap):
    monkeypatch.setattr(connsets, "FRONTIER_MEMO_CAP", cap)
    g = grid(5, 6)
    profiles = []
    for _ in range(2):
        clear_frontier_memo()
        profiles.append(count_connected_sets(g))
        assert frontier_memo_size() <= cap
        profiles.append(count_connected_sets(g))
        assert frontier_memo_size() <= cap
    # 45,280,509 connected sets, as counted before the memo existed
    assert all(p == profiles[0] for p in profiles)
    assert sum(profiles[0].c) == 45280509
    assert profiles[0].c[:4] == (0, 30, 49, 118)
    assert all(item.passed for item in check_coefficient_identities(g, profiles[0]))


# -- report checks ---------------------------------------------------------------

def test_identities_k4():
    g = make_family(fam("complete", 4))
    items = check_coefficient_identities(g, count_connected_sets(g))
    assert all(i.passed for i in items)
    c3 = next(i for i in items if i.label == "c3_wedges_minus_triangles")
    assert c3.lhs == c3.rhs == 4  # 4*C(3,2) - 2*4


def test_identities_p6_penultimate():
    g = make_family(fam("path", 6))
    items = check_coefficient_identities(g, count_connected_sets(g))
    item = next(i for i in items if i.label == "penultimate_noncut")
    assert item.lhs == item.rhs == 2  # n - t = 6 - 4


def test_identities_not_applicable_when_disconnected():
    g = make_family(fam("empty", 4))
    items = check_coefficient_identities(g, count_connected_sets(g))
    labels = {i.label: i for i in items}
    assert not labels["penultimate_noncut"].applicable
    assert not labels["full_set_connected"].applicable
    assert all(i.passed for i in items)


def test_identities_detect_corruption():
    g = make_family(fam("path", 4))
    items = check_coefficient_identities(g, ConnSetProfile(4, (0, 4, 9, 2, 1)))
    assert not all(i.passed for i in items)


def test_bounds_pass_on_small_census(graphs6):
    for g in graphs6:
        assert first_bound_violation(count_connected_sets(g)) is None


def test_bounds_complete_equality_pattern():
    # consecutive bound is tight exactly at k=2 for complete graphs
    profile = family_profile(fam("complete", 5))
    n, c = profile.n, profile.c
    assert 2 * c[2] == (n - 1) * c[1]
    for k in range(3, n + 1):
        assert 2 * c[k] < (n - k + 1) * c[k - 1]
    assert first_bound_violation(profile) is None


def test_bounds_violation_reported():
    # 2 c_3 = 80 > (4 - 3 + 1) c_2 = 12
    assert first_bound_violation(ConnSetProfile(4, (0, 4, 6, 40, 1))) == (3, 2)
    # every consecutive bound holds, with equality at k = 2 and 3, but the
    # general form fails: (3 - 1 + 1) c_3 = 18 > C(3, 2) c_1 = 12
    assert first_bound_violation(ConnSetProfile(4, (0, 4, 6, 6, 1))) == (3, 1)


def test_f_coefficients_reverse_profile():
    profile = count_connected_sets(make_family(fam("path", 6)))
    assert f_coefficients(profile) == (1, 2, 3, 4, 5, 6, 0)


def test_sperner_complete_graphs_never_fail():
    for n in range(1, 9):
        assert first_sperner_violation(family_profile(fam("complete", n))) is None


def test_sperner_p6():
    profile = count_connected_sets(make_family(fam("path", 6)))
    assert first_sperner_violation(profile) == 3
    # the guaranteed violation for non-complete graphs sits at k = n-2
    f = f_coefficients(profile)
    n = 6
    assert (n - 1) * f[n - 1] > 2 * f[n - 2]


def test_sperner_failure_iff_not_complete(graphs6):
    for g in graphs6:
        assert (first_sperner_violation(count_connected_sets(g)) is None) == is_complete(g)


def test_profile_validation():
    with pytest.raises(ValueError):
        ConnSetProfile(3, (0, 3, 3))
    with pytest.raises(ValueError):
        ConnSetProfile(2, (0, -1, 1))


@pytest.mark.parametrize("n, c", [(0, (0,)), (-1, ())])
def test_profile_needs_order_one(n, c):
    # every graph and family has order >= 1; n = 0 used to fail inside analysis
    with pytest.raises(ValueError, match="order n >= 1"):
        ConnSetProfile(n, c)
