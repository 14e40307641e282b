"""Counting connected induced vertex subsets by cardinality.

The profile ``c_0..c_n`` of a graph (``c_k`` = number of k-vertex subsets
whose induced subgraph is connected) is the raw material for every
reliability polynomial in this package.  Two exact counters produce it:

* rooted extension visits each connected set once, so its cost grows with
  their number (about 3x per added vertex on sparse graphs);
* a frontier dynamic program over a vertex order (Kawahara, Inoue,
  Iwashita and Minato, IEICE Trans. Fundamentals E100-A(9), 2017; Knuth,
  TAOCP 4A 7.1.4) tracks how the selected vertices on the frontier are
  connected, so its cost grows with the number of such states, at most
  ``Bell(w + 1)`` for a frontier of width ``w``.  Its greedy vertex order
  scores only the boundary of the processed vertices at each step.  States
  are interned as small ints, and each transition is worked out once per
  process and then looked up, up to ``FRONTIER_MEMO_CAP`` stored
  transitions.

``count_connected_sets`` picks between them from the graph alone: below
order ``FRONTIER_MIN_ORDER`` enumeration is always cheaper in practice, and
from there on the frontier program runs when its state bound
``sum_i Bell(w_i + 1)`` lies below ``2^n``, the bound on connected sets.  So
sparse graphs of order 16 and more go through the frontier program, while
small and dense graphs (the censuses, trees, K_18, G(20, 1/2)) are
enumerated.  ``extend_profile`` gives the profile of a graph one vertex
larger than one of known profile, by rooted extension from the new vertex
alone; census generation builds every profile that way.  ``family_profile`` gives the closed-form profile of every named
family.  The coefficient checks return plain values: the identities the
counts are known to satisfy as one item each, and the first violation of
the growth bounds or of the Sperner bounds, or None.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import (
    FamilySpec,
    Graph,
    cut_vertices,
    triangle_count,
)

DEFAULT_COUNT_CAP = 30
FRONTIER_MIN_ORDER = 16


@dataclass(frozen=True, slots=True)
class ConnSetProfile:
    """Exact counts ``c[k]`` of connected induced k-subsets, ``k = 0..n``."""

    n: int
    c: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("profile needs order n >= 1")
        if len(self.c) != self.n + 1:
            raise ValueError("profile needs n+1 entries")
        if any(x < 0 for x in self.c):
            raise ValueError("connected-set counts cannot be negative")

    @property
    def connected(self) -> bool:
        return self.c[self.n] == 1


def count_connected_sets(g: Graph) -> ConnSetProfile:
    """Count connected sets with whichever exact counter is cheaper for g.

    The frontier program runs when :func:`frontier_plan` returns an order,
    rooted extension otherwise; both give the same profile.  The cap guards
    order, not density; use a closed-form profile for large families.
    """
    n = g.n
    if n > DEFAULT_COUNT_CAP:
        raise ValueError(f"order {n} above counting cap {DEFAULT_COUNT_CAP}; "
                         f"use a closed-form profile")
    order = frontier_plan(g)
    if order is not None:
        return _frontier_profile(g, order)
    return count_connected_sets_by_extension(g)


def count_connected_sets_by_extension(g: Graph) -> ConnSetProfile:
    """Count connected sets by rooted extension.

    Every connected set is visited exactly once: it is grown from its minimum
    vertex, extending by frontier vertices with already-tried extensions
    banned on the remaining branches.  Cost is proportional to the number of
    connected sets.
    """
    n = g.n
    counts = [0] * (n + 1)
    for root in range(n):
        _extend(g.adj, counts, root, ~((2 << root) - 1))
    return ConnSetProfile(n, tuple(counts))


def extend_profile(profile: ConnSetProfile, adj: tuple[int, ...]) -> ConnSetProfile:
    """The profile of the graph ``adj`` whose vertices other than the last
    induce a graph with ``profile``.

    A connected set without the last vertex is one of that graph's, so only
    the sets through the last vertex are counted, by rooted extension from
    it; their cost is proportional to their number.
    """
    n = len(adj)
    counts = [*profile.c, 0]
    _extend(adj, counts, n - 1, (1 << (n - 1)) - 1)
    return ConnSetProfile(n, tuple(counts))


def _extend(adj, counts: list[int], root: int, allowed: int) -> None:
    """Add to ``counts[k]`` the connected k-sets that hold ``root`` and
    otherwise only vertices of ``allowed``, each visited once: a set grows by
    frontier vertices, and a vertex tried on one branch is banned on the
    branches after it."""

    def grow(sub, size, frontier, allowed):
        counts[size] += 1
        while frontier:
            low = frontier & -frontier
            frontier &= frontier - 1
            v = low.bit_length() - 1
            # vertices popped earlier stay banned below: they are no longer
            # in `frontier`, and `allowed` drops them for the whole branch
            branch_allowed = allowed & ~low
            grow(
                sub | low,
                size + 1,
                (frontier | (adj[v] & branch_allowed & ~sub)),
                branch_allowed,
            )
            allowed = branch_allowed

    grow(1 << root, 1, adj[root] & allowed, allowed)


# ---------------------------------------------------------------------------
# frontier dynamic program

def frontier_order(g: Graph) -> tuple[list[int], list[int]]:
    """Greedy vertex order for the frontier program and the frontier width
    after each step.

    The frontier is the set of processed vertices with an unprocessed
    neighbour.  Each step takes the unprocessed vertex that leaves the
    smallest frontier, then the one with more processed neighbours, then the
    lowest index.  Only the boundary, the unprocessed neighbours of processed
    vertices, is scored, and every unprocessed vertex only when the boundary
    is empty: a vertex off it scores width |F| + 1 with no processed
    neighbour when it has a neighbour, and a boundary vertex width at most
    |F| + 1 with at least one, so the boundary wins; degree-0 vertices score
    |F| and all go first, while the boundary is still empty.  ``ones`` holds
    the processed vertices with exactly one unprocessed neighbour, so a
    candidate is scored with two popcounts.
    """
    n, adj = g.n, g.adj
    unprocessed = (1 << n) - 1
    processed = frontier = ones = boundary = 0
    order: list[int] = []
    widths: list[int] = []
    for _ in range(n):
        best = None
        rest = boundary or unprocessed
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            width = (frontier.bit_count() - (adj[u] & ones).bit_count()
                     + bool(adj[u] & unprocessed & ~bit))
            key = (width, -(adj[u] & processed).bit_count(), u)
            if best is None or key < best:
                best = key
        width, _, u = best
        bit = 1 << u
        unprocessed ^= bit
        processed |= bit
        boundary = (boundary | adj[u]) & unprocessed
        touched = adj[u] & processed | bit
        while touched:
            low = touched & -touched
            touched ^= low
            left = (adj[low.bit_length() - 1] & unprocessed).bit_count()
            frontier = frontier | low if left else frontier & ~low
            ones = ones | low if left == 1 else ones & ~low
        order.append(u)
        widths.append(width)
    return order, widths


def _bell_numbers(count: int) -> list[int]:
    """Bell(0..count-1) from the Bell triangle."""
    bells = [1]
    row = [1]
    while len(bells) < count:
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[0])
    return bells


def frontier_plan(g: Graph) -> list[int] | None:
    """The vertex order to count g by the frontier program, or None when
    rooted extension is the cheaper counter.

    A step with frontier width w has at most Bell(w + 1) states (set
    partitions of the frontier plus an unselected block), and there are at
    most 2^n connected sets; the program is chosen when the first bound is
    the smaller, from order ``FRONTIER_MIN_ORDER`` on.
    """
    if g.n < FRONTIER_MIN_ORDER:
        return None
    order, widths = frontier_order(g)
    bell = _bell_numbers(max(widths) + 2)
    if sum(bell[w + 1] for w in widths) >= 1 << g.n:
        return None
    return order


# The transitions of the frontier program, kept for the whole process.  A
# state is a small-int id into ``_STATE_IDS``/``_STATES``; ``_STEPS`` maps a
# step signature ``(joins, keep)`` to a table from state id to the outcomes of
# leaving the new vertex out and of selecting it, each a state id, ``_CLOSES``
# or ``_DIES``; equal outcome pairs share one tuple (``_OUTCOMES``), since a
# few hundred pairs recur across thousands of entries.  Nothing new is stored
# once ``FRONTIER_MEMO_CAP`` transitions are held, and a full memo is cleared
# at the start of the next count.  With its share of states and pairs, a
# stored transition costs about 70 bytes on sparse graphs and 120-180 on
# order-24 graphs of frontier width 10-11, so a full memo stays below about
# 6 MB; counting the 200-graph sparse benchmark pool stores 5,416 of them,
# the 11,117 order-8 census graphs 10,097.
FRONTIER_MEMO_CAP = 1 << 15
_CLOSES, _DIES = -1, -2
_STATE_IDS: dict[tuple[int, ...], int] = {(): 0}
_STATES: list[tuple[int, ...]] = [()]
_STEPS: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, tuple[int, int]]] = {}
_OUTCOMES: dict[tuple[int, int], tuple[int, int]] = {}


def frontier_memo_size() -> int:
    """Number of frontier-program transitions held in the process memo."""
    return sum(map(len, _STEPS.values()))


def clear_frontier_memo() -> None:
    """Drop every memoized transition and interned state."""
    _STEPS.clear()
    _OUTCOMES.clear()
    del _STATES[1:]
    _STATE_IDS.clear()
    _STATE_IDS[()] = 0


def _frontier_profile(g: Graph, order: list[int]) -> ConnSetProfile:
    """Process the vertices in ``order``, each either left out or selected.

    A state labels the frontier vertices with their component among the
    selected vertices (0 = not selected; labels numbered by first
    appearance).  Its value is the polynomial sum count * x^size packed into
    one int, ``n + 1`` bits per coefficient (every count is below 2^n), so
    adding values is one ``+`` and selecting a vertex one shift.  When a
    selected vertex leaves the frontier and takes the last vertex of its
    label with it, the selection is finished: it counts if no other label
    remains and dies otherwise.  Finished selections accumulate in
    ``closed``, which no later vertex may join, so once every vertex has
    left the frontier ``closed`` is the whole profile (c_0 = 0 included).

    A state's successors depend only on the state and on which frontier
    positions the new vertex joins (``joins``) and which positions stay on
    the frontier (``keep``; the others leave, and the width is the state's
    length).  So states are interned ids and each (signature, state) pair is
    worked out once per process by :func:`_transition`; the loop below only
    looks outcomes up and adds values.
    """
    n, adj = g.n, g.adj
    shift = n + 1
    room = FRONTIER_MEMO_CAP - frontier_memo_size()
    if room <= 0:
        clear_frontier_memo()
        room = FRONTIER_MEMO_CAP
    unprocessed = (1 << n) - 1
    frontier: list[int] = []
    states = {0: 1}
    closed = 0
    for v in order:
        unprocessed &= ~(1 << v)
        near = adj[v]
        joins = tuple([i for i, u in enumerate(frontier) if near >> u & 1])
        frontier.append(v)
        keep = tuple([i for i, u in enumerate(frontier) if adj[u] & unprocessed])
        if len(keep) < len(frontier):
            frontier = [frontier[i] for i in keep]
        table = _STEPS.get((joins, keep))
        if table is None:
            table = {}
            if room > 0:
                _STEPS[joins, keep] = table
        step: dict[int, int] = {}
        for sid, value in states.items():
            outcome = table.get(sid)
            if outcome is None:
                outcome = _transition(_STATES[sid], joins, keep)
                if room > 0:
                    table[sid] = _OUTCOMES.setdefault(outcome, outcome)
                    room -= 1
            left_out, selected = outcome
            if left_out >= 0:
                step[left_out] = step.get(left_out, 0) + value
            elif left_out == _CLOSES:
                closed += value
            if selected >= 0:
                step[selected] = step.get(selected, 0) + (value << shift)
            elif selected == _CLOSES:
                closed += value << shift
        states = step
    mask = (1 << shift) - 1
    return ConnSetProfile(n, tuple(closed >> (k * shift) & mask for k in range(n + 1)))


def _transition(state: tuple[int, ...], joins: tuple[int, ...],
                keep: tuple[int, ...]) -> tuple[int, int]:
    """The outcomes of leaving out and of selecting the vertex that joins
    the frontier positions ``joins`` of ``state``, after which the
    positions ``keep`` of the extended frontier stay on it.  A label ends
    when no kept position holds it; none can end when every position
    stays."""
    fresh = len(state) + 1
    merged = {state[i] for i in joins} - {0}
    if merged:
        target = min(merged)
        taken = (*[target if x in merged else x for x in state], target)
    else:
        taken = (*state, fresh)
    every_stays = len(keep) == fresh
    outcomes = []
    for labels in ((*state, 0), taken):
        kept = [labels[i] for i in keep]
        if not every_stays:
            ending = set(labels).difference(kept, (0,))
            if ending:
                outcomes.append(_CLOSES if len(ending) == 1 and not any(kept) else _DIES)
                continue
        relabel = {0: 0}
        key = tuple([relabel.setdefault(x, len(relabel)) for x in kept])
        sid = _STATE_IDS.get(key)
        if sid is None:
            sid = _STATE_IDS[key] = len(_STATES)
            _STATES.append(key)
        outcomes.append(sid)
    return tuple(outcomes)


# c_k for k >= 2 of each named family of order n (c_0 = 0 and c_1 = n for all)
_CLOSED_FORMS = {
    "complete": lambda n, params, k: comb(n, k),
    "empty": lambda n, params, k: 0,
    "path": lambda n, params, k: n - k + 1,
    "cycle": lambda n, params, k: n if k < n else 1,
    "star": lambda n, params, k: comb(n - 1, k - 1),
    "complete-bipartite":
        lambda n, params, k: comb(n, k) - comb(params[0], k) - comb(params[1], k),
    "bonded-complete-leaf": lambda n, params, k: comb(n - 1, k) + comb(n - 2, k - 2),
}


def family_profile(spec: FamilySpec) -> ConnSetProfile:
    """Closed-form profile of a named family instance, unions included."""
    if spec.kind == "disjoint-union":
        return profile_disjoint_union(*map(family_profile, spec.parts))
    n, c_k = spec.order, _CLOSED_FORMS[spec.kind]
    return ConnSetProfile(n, (0, n, *(c_k(n, spec.params, k) for k in range(2, n + 1))))


def profile_disjoint_union(a: ConnSetProfile, b: ConnSetProfile) -> ConnSetProfile:
    """Profile of a disjoint union: a nonempty connected set lives entirely in
    one component, so counts add (on the combined order)."""
    n = a.n + b.n
    c = [0] * (n + 1)
    for k in range(1, a.n + 1):
        c[k] += a.c[k]
    for k in range(1, b.n + 1):
        c[k] += b.c[k]
    return ConnSetProfile(n, tuple(c))


# ---------------------------------------------------------------------------
# report-style checks

@dataclass(frozen=True)
class IdentityItem:
    label: str
    applicable: bool
    lhs: int | None
    rhs: int | None

    @property
    def passed(self) -> bool:
        return not self.applicable or self.lhs == self.rhs


def check_coefficient_identities(g: Graph, profile: ConnSetProfile) -> tuple[IdentityItem, ...]:
    """Verify the directly computable profile entries.

    c_0 = 0, c_1 = n, c_2 = m, c_3 = sum_v C(deg v, 2) - 2*triangles, and for
    connected graphs of order >= 2 also c_{n-1} = n - t (t = cut vertices)
    and c_n = 1.  Report-only: one item per identity, carrying both sides.
    """
    n, c = profile.n, profile.c
    connected = profile.connected
    items = [
        IdentityItem("c0_zero", True, c[0], 0),
        IdentityItem("c1_order", True, c[1], n),
        IdentityItem("c2_size", n >= 2, c[2] if n >= 2 else None, g.m),
    ]
    if n >= 3:
        rhs = sum(comb(g.degree(v), 2) for v in range(n)) - 2 * triangle_count(g)
        items.append(IdentityItem("c3_wedges_minus_triangles", True, c[3], rhs))
    else:
        items.append(IdentityItem("c3_wedges_minus_triangles", False, None, None))
    if connected and n >= 2:
        t = len(cut_vertices(g))
        items.append(IdentityItem("penultimate_noncut", True, c[n - 1], n - t))
        items.append(IdentityItem("full_set_connected", True, c[n], 1))
    else:
        items.append(IdentityItem("penultimate_noncut", False, None, None))
        items.append(IdentityItem("full_set_connected", False, None, None))
    return tuple(items)


def first_bound_violation(profile: ConnSetProfile) -> tuple[int, int] | None:
    """First (k, t) at which the count growth bounds fail, or None.

    Consecutive form, reported as (k, k-1): 2*c_k <= (n-k+1)*c_{k-1} for
    k = 2..n.  General form, tried next: (k-t+1)*c_k <= C(n-t, k-t)*c_t for
    2 <= k <= n, 1 <= t < k.
    """
    n, c = profile.n, profile.c
    for k in range(2, n + 1):
        if 2 * c[k] > (n - k + 1) * c[k - 1]:
            return k, k - 1
    for k in range(2, n + 1):
        lhs = k * c[k]  # (k - t + 1) * c_k, from t = 1 on
        for t in range(1, k):
            if lhs > comb(n - t, k - t) * c[t]:
                return k, t
            lhs -= c[k]
    return None


def f_coefficients(profile: ConnSetProfile) -> tuple[int, ...]:
    """F_k = c_{n-k}: the number of k-subsets whose failure leaves the
    operating vertices connected."""
    return tuple(reversed(profile.c))


def first_sperner_violation(profile: ConnSetProfile) -> int | None:
    """Smallest k with (k+1)*F_{k+1} > (n-k)*F_k, or None.

    Simplicial complexes satisfy these bounds; connected-set systems violate
    them for every non-complete graph, which is what separates node
    reliability from coherent reliability.
    """
    n = profile.n
    f = f_coefficients(profile)
    for k in range(n):
        if (k + 1) * f[k + 1] > (n - k) * f[k]:
            return k
    return None
