import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import automorphisms, count_calls, isomorphisms, relabel
from relshape import census, cli
from relshape.census import (
    _attach,
    _orbit_masks,
    _rejected,
    _unranked,
    census_document,
    generate_connected,
    generate_trees,
    run_census,
    shape_counts,
    stream_graph6,
)
from relshape.connsets import ConnSetProfile, count_connected_sets
from relshape.graphs import (
    Graph,
    Graph6ParseError,
    canonical_form,
    canonical_graph,
    cut_vertices,
    is_connected,
    parse_graph6,
    to_graph6,
)
from relshape.shape import analyze_profile
from relshape.sturm import InternalCheckError

KNOWN_CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TOLS = (Fraction(1), Fraction(1, 7), Fraction(1, 10**9))


def brute_force_connected_classes(n):
    """Oracle: enumerate every labeled graph, filter connected, dedupe by
    canonical key."""
    keys = set()
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        g = Graph(n, tuple(adj))
        if is_connected(g):
            keys.add(to_graph6(canonical_graph(g)))
    return len(keys)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_counts_match_labeled_oracle(n):
    assert sum(1 for _ in generate_connected(n)) == brute_force_connected_classes(n)
    assert brute_force_connected_classes(n) == KNOWN_CONNECTED_COUNTS[n]


def test_order6_count(graphs6):
    assert len(graphs6) == 112


def test_order7_count(graphs7):
    assert len(graphs7) == 853


# sha256 of the sorted graph6 tags of all connected graphs of one order, one
# tag per line with a trailing newline
CENSUS_CHECKSUMS = {
    7: "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93",
    8: "370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145",
}


@pytest.mark.parametrize("n", [7, pytest.param(8, marks=pytest.mark.slow)])
def test_census_checksum(n):
    tags = sorted(to_graph6(g) for g in generate_connected(n))
    listing = "".join(tag + "\n" for tag in tags)
    assert hashlib.sha256(listing.encode("ascii")).hexdigest() == CENSUS_CHECKSUMS[n]


def test_generated_graphs_connected_and_distinct(graphs6):
    keys = {to_graph6(canonical_graph(g)) for g in graphs6}
    assert len(keys) == len(graphs6)
    assert all(is_connected(g) for g in graphs6)


def test_generator_emits_canonical_sorted(graphs6):
    tags = [to_graph6(g) for g in graphs6]
    assert tags == sorted(tags)


def test_generator_order_range():
    with pytest.raises(ValueError):
        list(generate_connected(1))
    with pytest.raises(ValueError):
        list(generate_connected(9))
    with pytest.raises(ValueError):
        list(generate_trees(11))


def test_tree_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    for n, count in expected.items():
        assert sum(1 for _ in generate_trees(n)) == count


def test_trees_match_census_filter(graphs7):
    from_census = {to_graph6(g) for g in graphs7 if g.m == g.n - 1}
    from_generator = {to_graph6(t) for t in generate_trees(7)}
    assert from_census == from_generator


# -- streaming ----------------------------------------------------------------------

def test_stream_fixture(fixtures_dir):
    graphs = list(stream_graph6(fixtures_dir / "connected_order6.g6"))
    assert len(graphs) == 112
    assert all(g.n == 6 for g in graphs)


def test_stream_empty(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    assert list(stream_graph6(path)) == []


def test_stream_corrupt_line_names_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("E?Bw\nE?~~~\nE?Fg\n")
    with pytest.raises(Graph6ParseError) as err:
        list(stream_graph6(path))
    assert "line 2" in str(err.value)


def test_stream_round_trip(fixtures_dir):
    lines = (fixtures_dir / "connected_upto7.g6").read_text().splitlines()
    for line, g in zip(lines, stream_graph6(fixtures_dir / "connected_upto7.g6")):
        assert to_graph6(g) == line


# -- aggregation ---------------------------------------------------------------------

def test_census_counts_order6(vcache):
    summary, _elapsed = vcache.summary(6)
    assert summary.total_connected == 112
    assert summary.with_decrease == 37


def test_histograms_total_to_census_size(vcache):
    summary, _ = vcache.summary(6)
    for histogram in (summary.inflection_histogram, summary.fixed_point_histogram,
                      summary.class_histogram):
        assert sum(histogram.values()) == summary.total_connected


def test_order_independence(graphs6):
    base = run_census(graphs6)
    shuffled = list(graphs6)
    random.Random(17).shuffle(shuffled)
    assert run_census(shuffled) == base
    assert run_census(reversed(list(graphs6))) == base


def test_census_runs_in_one_process(graphs6, capsys):
    assert run_census(graphs6, jobs=1) == run_census(graphs6)
    with pytest.raises(ValueError, match="jobs must be 1, got 2"):
        run_census(graphs6, jobs=2)
    with pytest.raises(SystemExit) as exited:
        cli.main(["census", "--n", "4", "--jobs", "2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_one_job_census_analyzes_each_graph_before_pulling_the_next(monkeypatch):
    # the census-n7 benchmark times one graph's analysis as the gap between
    # two pulls of the source
    graphs = list(generate_connected(5))
    events = []

    def source():
        for g in graphs:
            events.append(("pull", g))
            yield g

    def log(kind, fn):
        def logged(*args):
            events.append((kind, args[0] if kind == "count" else args[1]))
            return fn(*args)
        return logged

    monkeypatch.setattr(census, "count_connected_sets", log("count", count_connected_sets))
    monkeypatch.setattr(census, "shape_counts", log("analyze", shape_counts))
    run_census(source(), jobs=1)
    # generation gave each graph its profile, so none is counted
    expected, seen = [], set()
    for g in graphs:
        c = count_connected_sets(g).c
        expected += [("pull", g)] + [("analyze", g)] * (c not in seen)
        seen.add(c)
    assert events == expected


def test_census_analyzes_each_distinct_profile_once(monkeypatch):
    graphs = list(generate_connected(7))
    analyzed = count_calls(monkeypatch, [census], "analyze_profile")
    run_census(graphs)
    assert len(analyzed) == len({p.c for p in analyzed}) == 477


@pytest.mark.parametrize("n", [7, pytest.param(8, marks=pytest.mark.slow)])
def test_census_has_no_tangential_fixed_point(n):
    # census fixed-point counts take only crossings, as inflections do; no
    # census graph has a tangential fixed point, so counting them too would
    # move no census count
    profiles = {p.c: p for p in map(count_connected_sets, generate_connected(n))}
    tangential = sum(not r.sign_change for p in profiles.values()
                     for r in analyze_profile(p).fixed_points)
    assert tangential == 0


def test_shape_counts_do_not_depend_on_the_tolerance():
    # the census and the verify sweeps read only these fields, so they
    # analyze at the default tolerance alone
    profiles = {p.c: p for n in range(2, 8) for p in map(count_connected_sets, generate_connected(n))}
    assert len(profiles) == 588
    for profile in profiles.values():
        fields = {(len(r.decrease_intervals), len(r.inflections), len(r.crossing_fixed_points),
                   r.shape_class, r.concavity_near_1, r.f1)
                  for r in (analyze_profile(profile, tol) for tol in TOLS)}
        assert fields == {tuple(shape_counts(profile))}


def test_census_counts_only_crossing_fixed_points():
    # f(p) - p = p (1-p) (2p-1)^2 touches zero at 1/2 without crossing
    profile = ConnSetProfile(4, (0, 2, 1, 4, 1))
    assert [r.sign_change for r in analyze_profile(profile).fixed_points] == [False]
    counts = shape_counts(profile)
    assert counts.fixed_points == 0
    assert counts.shape_class == "monotone-no-interior-fixed-point"


def test_exemplar_cap_and_determinism(graphs6):
    summary = run_census(graphs6, exemplar_cap=3)
    for tags in summary.exemplars.values():
        assert len(tags) <= 3
        assert list(tags) == sorted(tags)


def test_exemplars_are_lexicographically_smallest(graphs6):
    full = run_census(graphs6, exemplar_cap=10**6)
    capped = run_census(graphs6, exemplar_cap=2)
    for key, tags in capped.exemplars.items():
        assert list(tags) == list(full.exemplars[key][:2])


def test_mixed_orders_rejected(graphs6):
    mixed = [graphs6[0], next(iter(generate_connected(5)))]
    with pytest.raises(ValueError):
        run_census(mixed)


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        run_census([])


def test_census_from_stream_matches_generator(fixtures_dir, vcache):
    streamed = run_census(stream_graph6(fixtures_dir / "connected_order6.g6"))
    generated, _ = vcache.summary(6)
    assert streamed == generated


# -- canonical augmentation ----------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_generators_emit_canonical_forms(n):
    graphs = list(generate_trees(n))
    if 2 <= n <= 7:
        graphs += generate_connected(n)
    assert all(canonical_graph(g) == g for g in graphs)


@pytest.mark.parametrize("n,count", [(9, 47), (10, 106)])
def test_tree_counts_orders_9_and_10(n, count):
    # OEIS A000055
    assert sum(1 for _ in generate_trees(n)) == count


# sha256 of the sorted graph6 tags of all trees of orders 1..10, in the
# format of CENSUS_CHECKSUMS
TREE_CHECKSUM = "e68dec031e08c50d42558c82919184644bfa8934df2ed3935cbcb2fd29a2ef92"


def test_tree_checksum():
    tags = sorted(to_graph6(g) for n in range(1, 11) for g in generate_trees(n))
    assert len(tags) == 201  # OEIS A000055, orders 1..10
    listing = "".join(tag + "\n" for tag in tags)
    assert hashlib.sha256(listing.encode("ascii")).hexdigest() == TREE_CHECKSUM


def _invariant(g, v):
    return g.degree(v), sorted(g.degree(u) for u in range(g.n) if g.adj[u] >> v & 1)


def _random_connected(rng, n):
    adj = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    density = rng.choice((0.1, 0.3, 0.6))
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, tuple(adj)), perm)


def mask_image(p, mask):
    return sum(1 << p[v] for v in range(len(p)) if mask >> v & 1)


def test_rejection_keeps_max_invariant_deletion():
    """Delete a non-cut vertex of maximum invariant, attach it back to the
    canonical parent, and the child must survive the rejection test."""
    rng = random.Random(2024)
    for _ in range(400):
        g = _random_connected(rng, rng.randint(2, 8))
        cuts = set(cut_vertices(g))
        top = max(_invariant(g, v) for v in range(g.n) if v not in cuts)
        v = rng.choice([u for u in range(g.n)
                        if u not in cuts and _invariant(g, u) == top])
        rest = [u for u in range(g.n) if u != v]
        parent = Graph(g.n - 1, tuple(
            sum(1 << i for i, w in enumerate(rest) if g.adj[u] >> w & 1) for u in rest))
        key, generators = canonical_form(parent.adj)
        canon = parse_graph6(key)
        iso = next(isomorphisms(parent, canon))
        mask = sum(1 << iso[old] for old, u in enumerate(rest) if g.adj[u] >> v & 1)
        child = _attach(canon.adj, mask)
        assert to_graph6(canonical_graph(Graph(g.n, child))) == to_graph6(canonical_graph(g))
        assert not _rejected(child), to_graph6(g)
        # the least mask of the orbit stands for the whole orbit
        orbit = {mask_image(p, mask) for p in automorphisms(canon)}
        assert [m for m in _orbit_masks(canon, generators, False) if m in orbit] == [min(orbit)]
        child = _attach(canon.adj, min(orbit))
        assert not _rejected(child), to_graph6(g)
        assert to_graph6(canonical_graph(Graph(g.n, child))) == to_graph6(canonical_graph(g))


@pytest.mark.parametrize("trees", [False, True])
def test_orbit_masks_one_per_orbit(trees):
    """Oracle: the orbits of Aut(parent), found by trying every permutation,
    on the attachment masks of every parent of order <= 5."""
    for n in range(1, 6):
        for parent, generators in zip(*census._augment(n, trees)):
            group = [p for p in permutations(range(n)) if relabel(parent, p) == parent]
            masks = [1 << v for v in range(n)] if trees else range(1, 1 << n)
            least = sorted({min(mask_image(p, m) for p in group) for m in masks})
            assert _orbit_masks(parent, generators, trees) == least, to_graph6(parent)


def test_orbit_masks_rejects_a_non_automorphism():
    path = Graph(3, (0b100, 0b100, 0b011))  # 0 - 2 - 1
    with pytest.raises(InternalCheckError,
                       match=rf"graph {to_graph6(path)}: generation: \[2, 1, 0\] is not"):
        _orbit_masks(path, [(1, 0, 2), (2, 1, 0)], False)


def test_cold_generation_canonizes_few_children(monkeypatch):
    """Orders 2..7 generated from an empty cache run at most 1,100 canonical
    searches, one per attached mask orbit that passes the rejection test:
    the masks of a parent come from the group of the search that found it,
    so no parent is searched again."""
    census._augment.cache_clear()
    try:
        calls = count_calls(monkeypatch, [census], "canonical_form")
        assert [sum(1 for _ in generate_connected(n)) for n in range(2, 8)] == \
            [KNOWN_CONNECTED_COUNTS[n] for n in range(2, 8)]
        assert len(calls) <= 1100
    finally:
        census._augment.cache_clear()


def test_unranked_drops_only_children_that_are_rejected():
    """Every orbit mask of every parent of orders 1..7 that ``_unranked``
    drops gives a child that ``_rejected`` rejects: 45,134 of the 71,300
    masks attached through order 8."""
    dropped = 0
    for n in range(1, 8):
        for parent, generators in zip(*census._augment(n, False)):
            masks = _orbit_masks(parent, generators, False)
            kept = set(_unranked(parent, masks))
            assert kept <= set(masks)
            for mask in masks:
                if mask not in kept:
                    dropped += 1
                    assert _rejected(_attach(parent.adj, mask)), (to_graph6(parent), mask)
    assert dropped == 71300 - 26166


@pytest.mark.parametrize("n", [*range(2, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_generation_profiles_equal_counted_ones(n):
    # read from the table itself: graph_profile would count a missing one
    graphs = list(generate_connected(n))
    profiles = [census._PROFILES[g] for g in graphs]
    assert profiles == list(map(count_connected_sets, graphs))
    # one instance per distinct profile
    assert len({id(p) for p in profiles}) == len({p.c for p in profiles})


def test_generation_profiles_of_trees_equal_counted_ones():
    trees = [t for n in range(1, 11) for t in generate_trees(n)]
    assert len(trees) == 201
    assert [census._PROFILES[t] for t in trees] == list(map(count_connected_sets, trees))


def test_graph_profile_counts_a_graph_generation_did_not_build():
    path = Graph(3, (0b010, 0b101, 0b010))  # 0 - 1 - 2, not canonical
    assert path not in census._PROFILES
    assert census.graph_profile(path) == ConnSetProfile(3, (0, 3, 2, 1))


def test_census_of_relabelled_stream_matches_generated(fixtures_dir):
    lines = (fixtures_dir / "connected_order6.g6").read_text().split()
    rng = random.Random(6)
    relabelled = []
    for line in lines:
        perm = list(range(6))
        rng.shuffle(perm)
        relabelled.append(to_graph6(relabel(parse_graph6(line), perm)))
    assert sum(a != b for a, b in zip(lines, relabelled)) > 50
    doc = json.dumps(census_document(run_census(stream_graph6(relabelled))),
                     indent=2, sort_keys=True) + "\n"
    assert doc == (fixtures_dir / "golden" / "census_n6.json").read_text()
