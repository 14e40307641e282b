"""Exhaustive censuses of small graphs and streaming shape aggregation.

Connected graphs and trees are generated by canonical augmentation (McKay,
J. Algorithms 26, 1998): every class of order n-1 gets one new vertex, and
only the children that pass a cheap invariant test are canonized and
deduplicated.  Aggregation over a stream of graphs is associative and
commutative, so censuses can be parallelized and merged.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from multiprocessing import Pool
from pathlib import Path

from .connsets import count_connected_sets
from .graphs import (CANONICAL_MAX_ORDER, Graph, Graph6ParseError, canonical_graph,
                     mask_is_connected, parse_graph6, to_graph6)
from .shape import DEFAULT_TOL, analyze_profile
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
    connected parent and so never cuts.  Only an outranking vertex gets the
    cut test: one connectivity check of the graph without it."""
    n = len(adj)
    degs = [a.bit_count() for a in adj]

    def invariant(v):
        w, nbr = adj[v], []
        while w:
            nbr.append(degs[(w & -w).bit_length() - 1])
            w &= w - 1
        return degs[v], sorted(nbr)

    new, full = invariant(n - 1), (1 << n) - 1
    return any(degs[v] >= new[0] and invariant(v) > new
               and mask_is_connected(adj, full & ~(1 << v)) for v in range(n - 1))


@lru_cache(maxsize=None)
def _augment(n: int, trees: bool) -> tuple[Graph, ...]:
    """Canonical representatives of the connected graphs (trees when
    ``trees``) of order n, sorted by graph6 string.

    A connected parent plus a vertex attached by a nonempty mask (one bit
    for trees) is a connected child; it is canonized unless ``_rejected``.
    No class is lost: let v be a non-cut vertex of maximum invariant in a
    connected G of order n (a tree's non-cut vertices are its leaves).  G - v
    is connected, so it maps isomorphically onto a canonical parent, and the
    image of N(v) as mask gives a child isomorphic to G with the new vertex
    in v's place.  Invariant and cut property are kept by isomorphism, so no
    non-cut vertex outranks the new vertex and the child is accepted.
    """
    if n == 1:
        return (Graph(1, (0,)),)
    masks = [1 << v for v in range(n - 1)] if trees else range(1, 1 << (n - 1))
    seen: dict[str, Graph] = {}
    for parent in _augment(n - 1, trees):
        for mask in masks:
            child = _attach(parent.adj, mask)
            if not _rejected(child):
                canon = canonical_graph(Graph(n, child))
                seen.setdefault(to_graph6(canon), canon)
    return tuple(seen[key] for key in sorted(seen))


def generate_connected(n: int):
    """Yield each isomorphism class of connected graphs of order n exactly
    once, as canonical representatives in sorted graph6 order."""
    if not GENERATE_MIN <= n <= GENERATE_MAX:
        raise ValueError(f"connected-graph generation supports orders "
                         f"{GENERATE_MIN}..{GENERATE_MAX}, got {n}")
    yield from _augment(n, False)


def generate_trees(n: int):
    """Yield each isomorphism class of trees of order n, canonical and in
    sorted graph6 order; supports the inflection sweep without a census."""
    if not 1 <= n <= TREE_MAX:
        raise ValueError(f"tree generation supports orders 1..{TREE_MAX}")
    yield from _augment(n, True)


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


@dataclass
class _Aggregator:
    order: int | None = None
    total: int = 0
    with_decrease: int = 0
    inflections: dict[int, int] = field(default_factory=dict)
    fixed_points: dict[int, int] = field(default_factory=dict)
    classes: dict[str, int] = field(default_factory=dict)
    exemplars: dict[str, list[str]] = field(default_factory=dict)
    cap: int = 10

    def add(self, record):
        order, tag, n_decrease, n_inflections, n_fixed, shape_class = record
        if self.order is None:
            self.order = order
        elif order != self.order:
            raise ValueError(f"mixed orders in census stream: {self.order} and {order}")
        self.total += 1
        if n_decrease:
            self.with_decrease += 1
        self.inflections[n_inflections] = self.inflections.get(n_inflections, 0) + 1
        self.fixed_points[n_fixed] = self.fixed_points.get(n_fixed, 0) + 1
        self.classes[shape_class] = self.classes.get(shape_class, 0) + 1
        keys = [f"inflections={n_inflections}", f"fixed_points={n_fixed}",
                f"class={shape_class}"]
        if n_decrease:
            keys.append("decrease")
        for key in keys:
            kept = self.exemplars.setdefault(key, [])
            if tag not in kept:
                bisect.insort(kept, tag)
                del kept[self.cap:]

    def summary(self) -> CensusSummary:
        if self.order is None:
            raise ValueError("census stream was empty")
        return CensusSummary(
            order=self.order,
            total_connected=self.total,
            with_decrease=self.with_decrease,
            inflection_histogram=dict(sorted(self.inflections.items())),
            fixed_point_histogram=dict(sorted(self.fixed_points.items())),
            class_histogram=dict(sorted(self.classes.items())),
            exemplars={k: tuple(v) for k, v in sorted(self.exemplars.items())},
        )


def _census_record(g: Graph, tol: Fraction):
    try:
        report = analyze_profile(count_connected_sets(g), tol)
    except InternalCheckError as exc:
        raise InternalCheckError(f"graph {to_graph6(g)}: {exc}") from exc
    return (g.n, to_graph6(g), len(report.decrease_intervals), len(report.inflections),
            len(report.fixed_points), report.shape_class)


def run_census(source, tol: Fraction = DEFAULT_TOL, jobs: int = 1,
               exemplar_cap: int = 10) -> CensusSummary:
    """Analyze every graph in the stream and aggregate shape statistics.

    Graphs are tagged by their graph6 string as given: the source must yield
    canonical representatives, as the generators and ``stream_graph6`` do.

    ``jobs`` > 1 distributes the per-graph analysis over worker processes;
    the aggregation is order-independent, so the result is identical.
    """
    agg = _Aggregator(cap=exemplar_cap)
    if jobs <= 1:
        for g in source:
            agg.add(_census_record(g, tol))
    else:
        graphs = list(source)
        with Pool(jobs) as pool:
            chunk = max(1, len(graphs) // (jobs * 8))
            for record in pool.imap_unordered(
                    partial(_census_record, tol=tol), graphs, chunksize=chunk):
                agg.add(record)
    return agg.summary()

