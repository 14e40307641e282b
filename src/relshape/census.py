"""Exhaustive censuses of small graphs and streaming shape aggregation.

Non-isomorphic connected graphs of a given order are generated by extension:
every graph of order n-1 (disconnected parents included, since deleting a
vertex of a connected graph can disconnect the remainder) gets a new vertex
attached with every nonempty neighborhood, and the connected results are
deduplicated by canonical form.  Aggregation over a stream of graphs is
associative and commutative, so censuses can be parallelized and merged.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from multiprocessing import Pool
from pathlib import Path

from .connsets import count_connected_sets
from .graphs import Graph, Graph6ParseError, canonical_graph, is_connected, parse_graph6, to_graph6
from .shape import DEFAULT_TOL, analyze_profile
from .sturm import InternalCheckError

GENERATE_MIN = 2
GENERATE_MAX = 8
TREE_MAX = 10


def _attach(parent: Graph, mask: int) -> Graph:
    adj = [a | ((mask >> v & 1) << parent.n) for v, a in enumerate(parent.adj)]
    adj.append(mask)
    return Graph(parent.n + 1, tuple(adj))


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of every isomorphism class of order n
    (connected or not), sorted by canonical graph6 string."""
    if n == 1:
        return (Graph(1, (0,)),)
    seen: dict[str, Graph] = {}
    for parent in _all_graphs(n - 1):
        for mask in range(1 << (n - 1)):
            canon = canonical_graph(_attach(parent, mask))
            seen.setdefault(to_graph6(canon), canon)
    return tuple(seen[key] for key in sorted(seen))


def generate_connected(n: int):
    """Yield each isomorphism class of connected graphs of order n exactly
    once, as canonical representatives in sorted graph6 order."""
    if not GENERATE_MIN <= n <= GENERATE_MAX:
        raise ValueError(f"connected-graph generation supports orders "
                         f"{GENERATE_MIN}..{GENERATE_MAX}, got {n}")
    seen: dict[str, Graph] = {}
    for parent in _all_graphs(n - 1):
        for mask in range(1, 1 << (n - 1)):
            child = _attach(parent, mask)
            if not is_connected(child):
                continue
            canon = canonical_graph(child)
            seen.setdefault(to_graph6(canon), canon)
    for key in sorted(seen):
        yield seen[key]


def generate_trees(n: int):
    """Yield each isomorphism class of trees of order n (leaf extension with
    canonical dedup); supports the inflection sweep without a full census."""
    if not 1 <= n <= TREE_MAX:
        raise ValueError(f"tree generation supports orders 1..{TREE_MAX}")
    level: dict[str, Graph] = {"@": Graph(1, (0,))}
    for _size in range(2, n + 1):
        nxt: dict[str, Graph] = {}
        for tree in level.values():
            for v in range(tree.n):
                canon = canonical_graph(_attach(tree, 1 << v))
                nxt.setdefault(to_graph6(canon), canon)
        level = nxt
    for key in sorted(level):
        yield level[key]


def stream_graph6(source):
    """Lazily parse a graph6 file (path or iterable of lines); parse errors
    abort with the offending line number."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="ascii") as handle:
            yield from stream_graph6(handle)
        return
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield parse_graph6(stripped)
        except Graph6ParseError as exc:
            raise Graph6ParseError(f"line {lineno}: {exc}") from exc


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
    tag = to_graph6(canonical_graph(g)) if g.n <= 10 else to_graph6(g)
    return (g.n, tag, len(report.decrease_intervals), len(report.inflections),
            len(report.fixed_points), report.shape_class)


def run_census(source, tol: Fraction = DEFAULT_TOL, jobs: int = 1,
               exemplar_cap: int = 10) -> CensusSummary:
    """Analyze every graph in the stream and aggregate shape statistics.

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
                    _CensusWorker(tol), graphs, chunksize=chunk):
                agg.add(record)
    return agg.summary()


class _CensusWorker:
    """Picklable per-graph analysis callable for worker pools."""

    def __init__(self, tol: Fraction):
        self.tol = tol

    def __call__(self, g: Graph):
        return _census_record(g, self.tol)
