"""Independent references for the connected-set counters, for the tests.

The package counts connected sets by rooted extension or by the frontier
program.  ``count_connected_sets_bruteforce`` tests every one of the 2^n
vertex subsets for connectivity instead, so agreement between the two is
evidence for both.

``frontier_order_full_scan`` and ``transition_reference`` are the frontier
program's greedy order and transition written the plain way: the order
scores every unprocessed vertex at each step (or the vertices another
candidate rule offers), and the transition lists the leaving positions and
returns states as label tuples rather than interned ids.  The package's
versions must agree with them exactly.
"""

from relshape.connsets import _CLOSES, _DIES, ConnSetProfile
from relshape.graphs import mask_is_connected

BRUTEFORCE_CAP = 20


def count_connected_sets_bruteforce(g):
    """The connected-set profile of g by a scan of all 2^n vertex subsets;
    ValueError above order ``BRUTEFORCE_CAP``."""
    n = g.n
    if n > BRUTEFORCE_CAP:
        raise ValueError(f"order {n} above brute-force cap {BRUTEFORCE_CAP}")
    counts = [0] * (n + 1)
    for mask in range(1, 1 << n):
        if mask_is_connected(g.adj, mask):
            counts[mask.bit_count()] += 1
    return ConnSetProfile(n, tuple(counts))


def every_unprocessed(unprocessed, boundary):
    """The candidates of the full scan: every unprocessed vertex."""
    return unprocessed


def frontier_order_full_scan(g, candidates=every_unprocessed):
    """The greedy order of ``connsets.frontier_order`` and its widths: at
    every step the vertex of ``candidates(unprocessed, boundary)`` (bit
    masks; the boundary is the unprocessed neighbours of processed vertices)
    that leaves the least frontier width, then has most processed
    neighbours, then the lowest index.  The default scores every unprocessed
    vertex.  A rule that offers no vertex ends the order early."""
    n, adj = g.n, g.adj
    unprocessed = (1 << n) - 1
    processed = frontier = ones = boundary = 0
    order, widths = [], []
    for _ in range(n):
        best = None
        rest = candidates(unprocessed, boundary)
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            width = (frontier.bit_count() - (adj[u] & ones).bit_count()
                     + bool(adj[u] & unprocessed & ~bit))
            key = (width, -(adj[u] & processed).bit_count(), u)
            if best is None or key < best:
                best = key
        if best is None:
            break
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


def transition_reference(state, joins, keep):
    """The outcomes of leaving out and of selecting the vertex that joins
    the positions ``joins`` of the frontier labelling ``state``, after which
    the positions ``keep`` of the extended frontier stay on it: each a label
    tuple (renumbered by first appearance), ``_CLOSES`` or ``_DIES``."""
    fresh = len(state) + 1
    leave = [i for i in range(fresh) if i not in keep]
    merged = {state[i] for i in joins} - {0}
    if merged:
        target = min(merged)
        taken = tuple(target if x in merged else x for x in state) + (target,)
    else:
        taken = state + (fresh,)
    outcomes = []
    for labels in (state + (0,), taken):
        kept = [labels[i] for i in keep]
        ending = {labels[i] for i in leave} - {0} - set(kept)
        if ending:
            outcomes.append(_CLOSES if len(ending) == 1 and not any(kept) else _DIES)
            continue
        relabel = {}
        outcomes.append(tuple(relabel.setdefault(x, len(relabel) + 1) if x else 0
                              for x in kept))
    return tuple(outcomes)
