"""Exhaustive censuses of small graphs and streaming shape aggregation.

Connected graphs and trees are generated by canonical augmentation (McKay,
J. Algorithms 26, 1998): every class of order n-1 gets one new vertex, and
only the children that pass a cheap invariant test are canonized and
deduplicated.  One search per child (``graphs.canonical_form``) gives
both its key and its automorphism group, and the group of a class picks the
masks attached to it as a parent.  A new class's profile is its parent's
plus the connected sets through the new vertex, so generated graphs are
never counted whole (``graph_profile``).  Aggregation over a stream of
graphs does not depend on the order of the stream.  ``CensusCache`` holds
the census that ``census`` and ``verify`` share, in one process: each
graph that generation did not build counted once, each distinct profile
analyzed once.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .connsets import ConnSetProfile, count_connected_sets, extend_profile
from .graphs import (CANONICAL_MAX_ORDER, Graph, Graph6ParseError, canonical_form,
                     canonical_graph, mask_is_connected, parse_graph6, to_graph6)
from .shape import analyze_profile
from .sturm import InternalCheckError

GENERATE_MIN = 2
GENERATE_MAX = 8
TREE_MAX = 10


def _attach(parent: tuple[int, ...], mask: int) -> tuple[int, ...]:
    n = len(parent)
    return (*(a | (mask >> v & 1) << n for v, a in enumerate(parent)), mask)


def _rejected(adj: tuple[int, ...]) -> bool:
    """Whether some non-cut vertex has a strictly larger (degree, sorted
    neighbour degrees) invariant than the last vertex, which joins a
    connected parent and so never cuts.  A larger degree outranks at once;
    the neighbour degrees are listed only on a tie.  Only an outranking
    vertex gets the cut test: one connectivity check of the graph without
    it."""
    n = len(adj)
    degs = [a.bit_count() for a in adj]

    def neighbour_degrees(v):
        w, nbr = adj[v], []
        while w:
            nbr.append(degs[(w & -w).bit_length() - 1])
            w &= w - 1
        return sorted(nbr)

    top, full, new = degs[-1], (1 << n) - 1, None
    for v in range(n - 1):
        if degs[v] < top:
            continue
        if degs[v] == top:
            if new is None:
                new = neighbour_degrees(n - 1)
            if neighbour_degrees(v) <= new:
                continue
        if mask_is_connected(adj, full & ~(1 << v)):
            return True
    return False


def _orbit_masks(parent: Graph, generators, trees: bool) -> list[int]:
    """The least attachment mask of each orbit of Aut(parent) on the nonempty
    masks (on the one-bit masks for trees), ascending; ``generators``
    generate Aut(parent), as ``canonical_form`` returns them.

    Each generator's image table is built incrementally and also checks
    that the generator maps the parent's adjacency onto itself."""
    n = parent.n
    tables = []
    for p in generators:
        img = [0]  # img[m] is the image of mask m, built one bit at a time
        for v in range(n):
            bit = 1 << p[v]
            img += [m | bit for m in img]
        if any(img[a] != parent.adj[p[v]] for v, a in enumerate(parent.adj)):
            raise InternalCheckError(f"graph {to_graph6(parent)}: generation: "
                                     f"{list(p)} is not an automorphism")
        tables.append(img)
    seen = bytearray(1 << n)
    least = []
    for mask in [1 << v for v in range(n)] if trees else range(1, 1 << n):
        if seen[mask]:
            continue
        least.append(mask)
        seen[mask] = 1
        orbit = [mask]
        while orbit:
            m = orbit.pop()
            for img in tables:
                if not seen[img[m]]:
                    seen[img[m]] = 1
                    orbit.append(img[m])
    return least


def _unranked(parent: Graph, masks: list[int]) -> list[int]:
    """The masks of ``masks`` whose child no non-cut vertex of the parent
    outranks on degree alone; ``_rejected`` rejects the children of the
    others, so they are not built.

    Let u be a non-cut vertex of the parent and M a mask of s >= 2
    vertices.  u stays non-cut in the child, since the new vertex keeps a
    neighbour other than u, and it has degree deg(u) + [u in M] there
    against the new vertex's s.  So with top the largest degree of a
    non-cut vertex, M is dropped when s < top, or s == top and M holds a
    non-cut vertex of degree top."""
    adj, full = parent.adj, (1 << parent.n) - 1
    degs = [a.bit_count() for a in adj]
    top = tops = 0
    for u in sorted(range(parent.n), key=degs.__getitem__, reverse=True):
        if degs[u] < top:
            break
        if mask_is_connected(adj, full & ~(1 << u)):  # u is non-cut
            top, tops = degs[u], tops | 1 << u
    return [m for m in masks
            if (s := m.bit_count()) < 2 or s > top or s == top and not m & tops]


# the profile of each class that ``_augment`` has built, by its canonical
# representative; every graph with one profile shares one instance
_PROFILES: dict[Graph, ConnSetProfile] = {Graph(1, (0,)): ConnSetProfile(1, (0, 1))}


@lru_cache(maxsize=None)
def _augment(n: int, trees: bool):
    """Canonical representatives of the connected graphs (trees when
    ``trees``) of order n, sorted by graph6 string, and a parallel tuple of
    generators of each one's automorphism group.  Each class's profile goes
    to ``_PROFILES``.

    A connected parent plus a vertex attached by a nonempty mask (one bit
    for trees) is a connected child; it is canonized unless ``_rejected``.
    No class is lost: let v be a non-cut vertex of maximum invariant in a
    connected G of order n (a tree's non-cut vertices are its leaves).  G - v
    is connected, so it maps isomorphically onto a canonical parent, and the
    image of N(v) as mask gives a child isomorphic to G with the new vertex
    in v's place.  Invariant and cut property are kept by isomorphism, so no
    non-cut vertex outranks the new vertex and the child is accepted.  A
    child that a non-cut vertex outranks on degree alone is not even built
    (``_unranked``).

    Only the least mask of each Aut(parent) orbit is attached
    (``_orbit_masks``).  An automorphism a of the parent that maps mask M to
    a(M), extended by fixing the new vertex, maps the child of M onto the
    child of a(M).  So the children of one orbit are isomorphic with the new
    vertex fixed, ``_rejected`` gives each of them the same answer, and the
    least mask stands for all of them: no class is lost.

    Children are deduplicated on the key of ``canonical_form``.  A class
    keeps the generators from the search that found it first, and is
    decoded into a ``Graph`` once.  Its profile is the parent's plus the
    connected sets through the new vertex of that first child
    (``extend_profile``).  Equal generators, generator sets and profiles
    are stored once: order 8 has 705 distinct generator sets and 4,065
    profiles for its 11,117 classes.
    """
    if n == 1:
        return (Graph(1, (0,)),), ((),)
    found: dict[str, tuple[tuple[bytes, ...], ConnSetProfile]] = {}
    interned: dict = {}  # one copy of each generator and generator set
    profiles: dict[tuple[int, ...], ConnSetProfile] = {}
    for parent, generators in zip(*_augment(n - 1, trees)):
        base = _PROFILES[parent]
        for mask in _unranked(parent, _orbit_masks(parent, generators, trees)):
            child = _attach(parent.adj, mask)
            if not _rejected(child):
                key, group = canonical_form(child)
                if key not in found:
                    group = tuple(interned.setdefault(p, p) for p in group)
                    profile = extend_profile(base, child)
                    found[key] = (interned.setdefault(group, group),
                                  profiles.setdefault(profile.c, profile))
    keys = sorted(found)
    graphs = tuple(map(parse_graph6, keys))
    _PROFILES.update(zip(graphs, (found[key][1] for key in keys)))
    return graphs, tuple(found[key][0] for key in keys)


def generate_connected(n: int):
    """Yield each isomorphism class of connected graphs of order n exactly
    once, as canonical representatives in sorted graph6 order."""
    if not GENERATE_MIN <= n <= GENERATE_MAX:
        raise ValueError(f"connected-graph generation supports orders "
                         f"{GENERATE_MIN}..{GENERATE_MAX}, got {n}")
    yield from _augment(n, False)[0]


def generate_trees(n: int):
    """Yield each isomorphism class of trees of order n, canonical and in
    sorted graph6 order; supports the inflection sweep without a census."""
    if not 1 <= n <= TREE_MAX:
        raise ValueError(f"tree generation supports orders 1..{TREE_MAX}")
    yield from _augment(n, True)[0]


def stream_graph6(source):
    """Lazily parse a graph6 file (path or iterable of lines), canonical up to
    CANONICAL_MAX_ORDER; parse errors abort with the offending line number."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="ascii") as handle:
            yield from stream_graph6(handle)
        return
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            g = parse_graph6(stripped)
        except Graph6ParseError as exc:
            raise Graph6ParseError(f"line {lineno}: {exc}") from exc
        yield canonical_graph(g) if g.n <= CANONICAL_MAX_ORDER else g


@dataclass(frozen=True)
class CensusSummary:
    """Order-independent aggregate over a stream of same-order graphs."""

    order: int
    total_connected: int
    with_decrease: int
    inflection_histogram: dict[int, int]
    fixed_point_histogram: dict[int, int]
    class_histogram: dict[str, int]
    exemplars: dict[str, tuple[str, ...]]


def census_document(summary: CensusSummary) -> dict:
    """The JSON document of one census summary (``census --json``)."""
    return {
        "order": summary.order,
        "total_connected": summary.total_connected,
        "with_decrease": summary.with_decrease,
        "inflection_histogram": {str(k): v for k, v in summary.inflection_histogram.items()},
        "fixed_point_histogram": {str(k): v for k, v in summary.fixed_point_histogram.items()},
        "class_histogram": dict(summary.class_histogram),
        "exemplars": {k: list(v) for k, v in summary.exemplars.items()},
    }


class ShapeCounts(NamedTuple):
    """The fields of a shape report that the census and the verify sweeps
    read: a few counts, the class, the concavity sign near 1 and the
    report's f' coefficients (the same tuple, not a copy).  Like
    inflections, fixed points count only crossings of the identity.  Every
    graph with one profile shares one instance."""

    decreases: int
    inflections: int
    fixed_points: int
    shape_class: str
    concavity_near_1: int
    f1: tuple[int, ...]


def shape_counts(profile: ConnSetProfile, g: Graph | None = None) -> ShapeCounts:
    """Analyze a profile and keep only its ShapeCounts; a failed internal
    check names ``g`` when given.  Exact arithmetic decides every field
    whatever the bracket width, so the default tolerance serves."""
    try:
        report = analyze_profile(profile)
    except InternalCheckError as exc:
        if g is None:
            raise
        raise InternalCheckError(f"graph {to_graph6(g)}: {exc}") from exc
    return ShapeCounts(len(report.decrease_intervals), len(report.inflections),
                       len(report.crossing_fixed_points), report.shape_class,
                       report.concavity_near_1, report.f1)


def summarize(items, exemplar_cap: int = 10) -> CensusSummary:
    """Aggregate ``(graph, counts)`` pairs of one order into a summary.

    Graphs are tagged by their graph6 string as given, so they must be
    canonical representatives.  The result does not depend on the order of
    the pairs.
    """
    order = None
    total = with_decrease = 0
    inflections: dict[int, int] = {}
    fixed_points: dict[int, int] = {}
    classes: dict[str, int] = {}
    exemplars: dict[str, list[str]] = {}
    for g, counts in items:
        if order is None:
            order = g.n
        elif g.n != order:
            raise ValueError(f"mixed orders in census stream: {order} and {g.n}")
        total += 1
        with_decrease += counts.decreases > 0
        inflections[counts.inflections] = inflections.get(counts.inflections, 0) + 1
        fixed_points[counts.fixed_points] = fixed_points.get(counts.fixed_points, 0) + 1
        classes[counts.shape_class] = classes.get(counts.shape_class, 0) + 1
        keys = [f"inflections={counts.inflections}", f"fixed_points={counts.fixed_points}",
                f"class={counts.shape_class}"]
        if counts.decreases:
            keys.append("decrease")
        tag = to_graph6(g)
        for key in keys:
            kept = exemplars.setdefault(key, [])
            if tag not in kept:
                bisect.insort(kept, tag)
                del kept[exemplar_cap:]
    if order is None:
        raise ValueError("census stream was empty")
    return CensusSummary(
        order=order,
        total_connected=total,
        with_decrease=with_decrease,
        inflection_histogram=dict(sorted(inflections.items())),
        fixed_point_histogram=dict(sorted(fixed_points.items())),
        class_histogram=dict(sorted(classes.items())),
        exemplars={k: tuple(v) for k, v in sorted(exemplars.items())},
    )


def graph_profile(g: Graph) -> ConnSetProfile:
    """g's profile: generation's when generation has built g's class in this
    process (g its canonical representative), else counted."""
    return _PROFILES.get(g) or count_connected_sets(g)


class CensusCache:
    """The one census object of ``census`` and ``verify``: one profile per
    graph and one ShapeCounts per distinct profile.  The graphs themselves
    are generation's, which keeps one copy of each order per process, and
    so are their profiles.

    Within one cache every graph generation did not build is counted once
    (``profile``) and every distinct profile analyzed once (``shape``),
    however many checks read it.
    """

    def __init__(self):
        self._profiles: dict[Graph, ConnSetProfile] = {}
        self._shapes: dict[tuple[int, ...], ShapeCounts] = {}

    def profile(self, g: Graph) -> ConnSetProfile:
        profile = _PROFILES.get(g) or self._profiles.get(g)
        if profile is None:
            profile = self._profiles[g] = count_connected_sets(g)
        return profile

    def shape(self, profile: ConnSetProfile, g: Graph | None = None) -> ShapeCounts:
        shape = self._shapes.get(profile.c)
        if shape is None:
            shape = self._shapes[profile.c] = shape_counts(profile, g)
        return shape

    def summary(self, n: int) -> tuple[CensusSummary, float]:
        """(summary, elapsed seconds including generation)."""
        start = time.monotonic()
        summary = summarize((g, self.shape(self.profile(g), g)) for g in generate_connected(n))
        return summary, time.monotonic() - start


def run_census(source, jobs: int = 1, exemplar_cap: int = 10) -> CensusSummary:
    """Analyze every graph in the stream and aggregate shape statistics.

    Graphs are tagged by their graph6 string as given: the source must yield
    canonical representatives, as the generators and ``stream_graph6`` do.
    A graph takes its profile from generation where generation built it
    (``graph_profile``), and each distinct profile is analyzed once
    (``CensusCache.shape``).  The stream is consumed lazily, in this
    process, and no profile is kept per graph.
    """
    if jobs != 1:  # the keyword stays for perfbench/rep.py, which passes jobs=1
        raise ValueError(f"run_census runs in one process: jobs must be 1, got {jobs}")
    cache = CensusCache()
    return summarize(((g, cache.shape(graph_profile(g), g)) for g in source), exemplar_cap)
