"""Simple undirected graphs as per-vertex bit masks.

Vertices are 0-based integers below the order ``n``; adjacency is a tuple of
``n`` bit masks, so the whole graph fits in a handful of machine words for
orders up to 62 (the largest order a single-byte graph6 header can carry).
The module covers parsing/serialization (graph6 and plain edge lists), the
named graph families used throughout the package, structural predicates
(connectivity, cut vertices, vertex cuts), and an exact canonical form of
small graphs: one search gives a graph6 key that is equal exactly for
isomorphic graphs and generators of the automorphism group.

The passes every input graph goes through work a word at a time, not a bit
or an edge at a time: the adjacency matrix packs into one integer
(``_RowMatrix``) for validation, graph6 decoding and triangle counting;
graph6 strings are base64 in another alphabet; and the depth-first search
for cut vertices steps a vertex at a time.
"""

from __future__ import annotations

import sys
from array import array
from binascii import a2b_base64, b2a_base64
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

MAX_ORDER = 62

CANONICAL_MAX_ORDER = 10


def _repeat(pattern: int, width: int, total: int) -> int:
    """``pattern`` (below 2^width) repeated every ``width`` bits over
    ``total`` bits, a multiple of ``width``."""
    return pattern * (((1 << total) - 1) // ((1 << width) - 1))


class _RowMatrix:
    """The adjacency matrix of a graph of order up to ``size`` as one
    integer: row v, the mask adj[v], at bits v size .. v size + size - 1.

    ``code`` is the ``array`` type code of a ``size``-bit word, so packing
    the rows is one C call; ``ones`` has bit 0 of every row set and
    ``diagonal`` the bits (v, v).  ``swaps`` are the (shift, mask) delta
    swaps of the recursive block transpose (Warren, Hacker's Delight,
    7-3): for b = size/2, ..., 1 the upper-right b x b block of every
    2b x 2b block, the entries (r, c) with r & b == 0 and c & b != 0, is
    exchanged with the lower-left one, b (size - 1) bits higher.
    """

    def __init__(self, size: int):
        self.size = size
        self.code = next(c for c in "BHILQ" if array(c).itemsize * 8 == size)
        area = size * size
        self.ones = _repeat(1, size, area)
        self.diagonal = _repeat(1, size + 1, size * (size + 1))
        self.swaps = []
        b = size // 2
        while b:
            columns = _repeat(((1 << b) - 1) << b, 2 * b, size)
            rows = _repeat(_repeat(1, size, b * size), 2 * b * size, area)
            self.swaps.append((b * (size - 1), columns * rows))
            b //= 2

    def pack(self, adj) -> int:
        """The rows of ``adj``, each a mask in 0 .. 2^size - 1."""
        return int.from_bytes(array(self.code, adj), sys.byteorder)

    def transpose(self, rows: int) -> int:
        for shift, mask in self.swaps:
            t = (rows ^ rows >> shift) & mask
            rows ^= t ^ t << shift
        return rows


_MATRICES = {size: _RowMatrix(size) for size in (8, 16, 32, 64)}
# the matrix for each order 0..MAX_ORDER: the least word size that holds it
_MATRIX_OF_ORDER = tuple(_MATRICES[max(8, 1 << (n - 1).bit_length())]
                         for n in range(MAX_ORDER + 1))


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the 0-based byte position."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EdgeListParseError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` holds the neighbor set of ``v`` as a bit mask.  Construction
    validates symmetry, the absence of loops, and that every set bit names a
    vertex, so downstream code can rely on those invariants.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"graph order must be in 1..{MAX_ORDER}, got {n}")
        if len(adj) != n:
            raise ValueError("adjacency length does not match order")
        # word at a time: the rows packed into one integer (``_RowMatrix``),
        # a loop is a diagonal bit and an asymmetric pair a bit of the rows
        # missing from their transpose
        full = (1 << n) - 1
        matrix = _MATRIX_OF_ORDER[n]
        in_range = min(adj) >= 0 and max(adj) <= full
        rows = matrix.pack(adj) if in_range else 0
        if not in_range or rows & matrix.diagonal:
            for v, mask in enumerate(adj):  # the first vertex at fault
                if mask & ~full:
                    raise ValueError(f"vertex {v} has a neighbor bit outside 0..{n - 1}")
                if mask >> v & 1:
                    raise ValueError(f"vertex {v} has a loop")
        if asymmetric := rows & ~matrix.transpose(rows):
            # the least (v, u) with u in adj[v] and v not in adj[u]
            at = (asymmetric & -asymmetric).bit_length() - 1
            raise ValueError(f"asymmetric adjacency between {at // matrix.size} "
                             f"and {at % matrix.size}")

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(int.bit_count, self.adj)) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.adj))

    def edges(self):
        """Yield edges as (u, v) pairs with u < v."""
        for v in range(self.n):
            w = self.adj[v] >> (v + 1) << (v + 1)
            while w:
                u = (w & -w).bit_length() - 1
                w &= w - 1
                yield (v, u)

    @cached_property
    def _connected(self) -> bool:
        # computed once per graph, as the cut vertices: one analysis asks
        # for both several times
        return mask_is_connected(self.adj, (1 << self.n) - 1)

    @cached_property
    def _cut_vertices(self) -> tuple[int, ...]:
        return _articulation_points(self.adj)


def graph_from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    n = a.n + b.n
    if n > MAX_ORDER:
        raise ValueError(f"union order {n} exceeds {MAX_ORDER}")
    adj = list(a.adj) + [mask << a.n for mask in b.adj]
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 interchange format (single size byte, order <= 62)

_G6_HEADER = ">>graph6<<"
# graph6 data characters are base64 digits in another alphabet: the 6-bit
# groups of the bit string, most significant first, each plus 63
_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = "".join(map(chr, range(63, 127)))
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64.encode(), _GRAPH6.encode())
_GRAPH6_TO_BASE64 = str.maketrans(_GRAPH6, _BASE64)
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line.

    The optional ``>>graph6<<`` header is tolerated.  Upper-triangle bits are
    packed column-major (x01, x02, x12, x03, ...), six per character, each
    character value being the byte minus 63.  Extended size encodings (order
    above 62) are rejected.
    """
    line = text.rstrip("\r\n")
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise Graph6ParseError("empty graph6 string")
    first = ord(line[0])
    if first == 126:
        raise Graph6ParseError("extended size encoding (order > 62) unsupported", 0)
    if not 63 <= first <= 63 + MAX_ORDER:
        raise Graph6ParseError(f"size byte {first} outside [63,125]", 0)
    n = first - 63
    if n == 0:
        raise Graph6ParseError("graph of order 0 unsupported", 0)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(line) - 1 < nchars:
        raise Graph6ParseError(
            f"need {nchars} data characters for order {n}, got {len(line) - 1}")
    if len(line) - 1 > nchars:
        raise Graph6ParseError("trailing garbage after graph6 data", 1 + nchars)
    data = line[1:]
    if data and not "?" <= min(data) <= max(data) <= "~":
        pos = next(pos for pos, ch in enumerate(data, start=1) if not "?" <= ch <= "~")
        raise Graph6ParseError(f"data byte {ord(data[pos - 1])} outside [63,126]", pos)
    # the 6-bit groups as base64, read into bit t of ``packed`` for bit t of
    # the string, as ``to_graph6`` packs it; padding bits lie in the last
    # character
    size = _graph6_bytes(n)
    stream = a2b_base64(data.translate(_GRAPH6_TO_BASE64) + "A" * (size // 3 * 4 - nchars))
    packed = int.from_bytes(stream.translate(_BIT_REVERSED), "little")
    if packed >> nbits:
        raise Graph6ParseError("nonzero padding bit", nchars)
    # column j holds adj[j] below bit j: the lower triangle, and its transpose
    matrix = _MATRIX_OF_ORDER[n]
    lower = 0
    for j in range(1, n):
        lower |= (packed >> (j * (j - 1) >> 1) & (1 << j) - 1) << j * matrix.size
    rows = lower | matrix.transpose(lower)
    return Graph(n, tuple(array(matrix.code, rows.to_bytes(n * matrix.size // 8,
                                                          sys.byteorder))))


def _graph6_bytes(n: int) -> int:
    """Bytes that hold the n(n-1)/2 upper-triangle bits of order n, rounded
    up to whole base64 groups of three."""
    return (n * (n - 1) // 2 + 23) // 24 * 3


def _graph6_line(n: int, data: bytes) -> str:
    """The graph6 line of order n whose upper-triangle bits, column-major,
    are ``data`` read from the most significant bit of its first byte."""
    chars = (n * (n - 1) // 2 + 5) // 6
    return chr(n + 63) + b2a_base64(data, newline=False)[:chars].translate(
        _BASE64_TO_GRAPH6).decode("ascii")


def _pack_graph6(n: int, bits: int) -> str:
    """The graph6 line of order n whose n(n-1)/2 upper-triangle bits,
    column-major, are ``bits`` read from its most significant end."""
    size = _graph6_bytes(n)
    return _graph6_line(n, (bits << 8 * size - n * (n - 1) // 2).to_bytes(size, "big"))


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header), the exact inverse of
    :func:`parse_graph6`.

    Column j of the upper triangle, the bits (i, j) for i < j, is adj[j]
    below bit j; packed at bit j(j-1)/2 onward, bit t of the result is bit t
    of the graph6 bit string, so reversing each byte of its little-endian
    bytes gives the string most significant bit first."""
    packed = 0
    for j, mask in enumerate(g.adj):
        packed |= (mask & (1 << j) - 1) << (j * (j - 1) >> 1)
    data = packed.to_bytes(_graph6_bytes(g.n), "little").translate(_BIT_REVERSED)
    return _graph6_line(g.n, data)


def parse_edge_list(text: str) -> Graph:
    """Parse ``n u1 v1 u2 v2 ...`` with 0-based endpoints; duplicate edges are
    ignored."""
    tokens = text.split()
    if not tokens:
        raise EdgeListParseError("empty edge list")
    try:
        n = int(tokens[0])
    except ValueError:
        raise EdgeListParseError(f"order token {tokens[0]!r} is not an integer") from None
    if not 1 <= n <= MAX_ORDER:
        raise EdgeListParseError(f"order must be in 1..{MAX_ORDER}, got {n}")
    rest = tokens[1:]
    if len(rest) % 2:
        raise EdgeListParseError("odd number of endpoint tokens")
    adj = [0] * n
    for a, b in zip(rest[::2], rest[1::2]):
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise EdgeListParseError(f"non-integer endpoint in pair {a!r} {b!r}") from None
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"edge {u} {v} out of range for order {n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# named families

FAMILY_KINDS = (
    "complete",
    "empty",
    "path",
    "cycle",
    "star",
    "complete-bipartite",
    "bonded-complete-leaf",
    "disjoint-union",
)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance.

    ``params`` are the integer parameters of the kind; ``parts`` carries the
    two sub-specs of a disjoint-union.
    """

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = ()

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "disjoint-union":
            if len(self.parts) != 2 or self.params:
                raise ValueError("disjoint-union takes exactly two sub-specs")
        else:
            if self.parts:
                raise ValueError(f"{self.kind} takes no sub-specs")
            want = 2 if self.kind == "complete-bipartite" else 1
            if len(self.params) != want:
                raise ValueError(f"{self.kind} takes {want} parameter(s)")
            if any(p <= 0 for p in self.params):
                raise ValueError(f"{self.kind} parameters must be positive")
            if self.kind == "cycle" and self.params[0] < 3:
                raise ValueError("cycle needs order >= 3")
            if self.kind == "bonded-complete-leaf" and self.params[0] < 2:
                raise ValueError("bonded-complete-leaf needs order >= 2")
        if self.order > MAX_ORDER:
            raise ValueError(f"family order {self.order} exceeds {MAX_ORDER}")

    @property
    def order(self) -> int:
        if self.kind == "disjoint-union":
            return sum(part.order for part in self.parts)
        if self.kind == "complete-bipartite":
            return self.params[0] + self.params[1]
        return self.params[0]

    def label(self) -> str:
        if self.kind == "disjoint-union":
            return f"union({self.parts[0].label()},{self.parts[1].label()})"
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def make_family(spec: FamilySpec) -> Graph:
    """Construct the named graph, a neighbour mask per vertex.

    ``bonded-complete-leaf(n)`` is the complete graph on ``n-1`` vertices with
    one pendant vertex attached to vertex 0 (order ``n``).
    """
    kind, params = spec.kind, spec.params
    if kind == "disjoint-union":
        return disjoint_union(make_family(spec.parts[0]), make_family(spec.parts[1]))
    n = spec.order
    full = (1 << n) - 1
    if kind == "complete":
        adj = [full ^ 1 << v for v in range(n)]
    elif kind == "empty":
        adj = [0] * n
    elif kind in ("path", "cycle"):
        adj = [(5 << v >> 1) & full for v in range(n)]  # v - 1 and v + 1
        if kind == "cycle":
            adj[0] |= 1 << n - 1
            adj[n - 1] |= 1
    elif kind == "star":
        adj = [full ^ 1] + [1] * (n - 1)
    elif kind == "complete-bipartite":
        a = params[0]
        side = (1 << a) - 1
        adj = [full ^ side] * a + [side] * (n - a)
    elif kind == "bonded-complete-leaf":
        clique = (1 << n - 1) - 1
        adj = [clique ^ 1 << v for v in range(n - 1)] + [1]
        adj[0] |= 1 << n - 1
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# structural predicates

def _component_mask(adj, start_bit, within):
    reached = start_bit
    frontier = start_bit
    while frontier:
        grown = 0
        w = frontier
        while w:
            v = (w & -w).bit_length() - 1
            w &= w - 1
            grown |= adj[v]
        frontier = grown & within & ~reached
        reached |= frontier
    return reached


def mask_is_connected(adj, mask) -> bool:
    """Whether the subgraph induced by the vertex set ``mask`` is connected
    (empty sets count as disconnected)."""
    if mask == 0:
        return False
    start = mask & -mask
    return _component_mask(adj, start, mask) == mask


def is_connected(g: Graph) -> bool:
    return g._connected


def cut_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices whose removal increases the number of connected components."""
    return g._cut_vertices


def _articulation_points(adj) -> tuple[int, ...]:
    """Hopcroft-Tarjan articulation points in one iterative depth-first pass,
    a vertex at a time.

    The next child of v is the least unvisited neighbour.  Its visited
    neighbours are then all its ancestors, so each vertex carries the mask
    of its ancestors and of the ancestors its subtree reaches by one edge.
    A non-root vertex v cuts when some DFS child's subtree reaches none of
    v's own ancestors; a root cuts when it has two or more DFS children.
    Linear in n.
    """
    unseen = (1 << len(adj)) - 1
    cuts = 0
    while unseen:
        root = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << root
        root_children = 0
        # vertex, its ancestors, the ancestors its subtree reaches by an edge
        stack = [[root, 0, 0]]
        while True:
            top = stack[-1]
            v, above, _ = top
            if rest := adj[v] & unseen:
                bit = rest & -rest
                unseen ^= bit
                u = bit.bit_length() - 1
                above |= 1 << v
                stack.append([u, above, adj[u] & above])
                continue
            stack.pop()
            if not stack:
                break
            parent = stack[-1]
            if parent[0] == root:
                root_children += 1
            elif not top[2] & parent[1]:
                cuts |= 1 << parent[0]
            parent[2] |= top[2]
        if root_children >= 2:
            cuts |= 1 << root
    return tuple(v for v in range(len(adj)) if cuts >> v & 1)


def is_two_connected(g: Graph) -> bool:
    return g.n >= 3 and is_connected(g) and not cut_vertices(g)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def min_vertex_cut(g: Graph) -> int | None:
    """Size of a smallest vertex set whose removal leaves a disconnected graph
    on at least two vertices, or None when no such set exists (complete
    graphs).

    Brute force over subsets in increasing size; exponential in the cut size,
    fine for the small orders this package analyzes.  A connected graph that
    is not complete has two non-adjacent vertices, and removing the other
    n - 2 separates them, so sizes up to n - 3 are searched.
    """
    if is_complete(g):
        return None
    if not is_connected(g):
        return 0
    for size in range(1, g.n - 2):
        for subset in combinations(range(g.n), size):
            removed = 0
            for v in subset:
                removed |= 1 << v
            if not mask_is_connected(g.adj, ((1 << g.n) - 1) & ~removed):
                return size
    return g.n - 2


def triangle_count(g: Graph) -> int:
    """Triangles of g, one word operation per vertex: with the adjacency rows
    packed into one integer (``_RowMatrix``), the rows u in N(v) (column v
    of the symmetric matrix, spread over each row) masked by adj[v] hold
    N(u) & N(v), and their bits, summed over v, count every triangle six
    times."""
    matrix = _MATRIX_OF_ORDER[g.n]
    rows, ones = matrix.pack(g.adj), matrix.ones
    spread = (1 << matrix.size) - 1
    total = 0
    for v, mask in enumerate(g.adj):
        total += (rows & mask * ones & (rows >> v & ones) * spread).bit_count()
    return total // 6


# ---------------------------------------------------------------------------
# canonical form (exact minimum over vertex orderings)

def _twin_classes(adj, n):
    # u,v are twins when swapping them is an automorphism; twin classes let
    # the canonical search try a single representative per class.
    cls = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if cls[v] != v:
                continue
            clear = ~((1 << u) | (1 << v))
            if adj[u] & clear == adj[v] & clear:
                cls[v] = cls[u]
    return cls


def _maximum_independent_sets(adj, n, same):
    """Every maximum independent set that meets each twin class (``same[v]``
    the mask of v's class) in its lowest members, each once, as a bit mask;
    a twin swap maps any other maximum independent set onto one of these.

    Branches on the lowest candidate vertex (take it, or leave it out with
    the rest of its twin class) and cuts a branch that cannot reach the
    largest size found so far.
    """
    found = []
    size = 0

    def grow(chosen, count, cand):
        nonlocal found, size
        if not cand:
            if count > size:
                found, size = [chosen], count
            elif count == size:
                found.append(chosen)
            return
        if count + cand.bit_count() < size:
            return
        bit = cand & -cand
        v = bit.bit_length() - 1
        grow(chosen | bit, count + 1, cand & ~adj[v] & ~bit)
        if cand & adj[v]:  # else every maximum extension takes v
            grow(chosen, count, cand & ~same[v])

    grow(0, 0, (1 << n) - 1)
    return found


def _leaf_order(cells) -> list[int]:
    order = []
    for cell in cells:
        while cell:
            order.append((cell & -cell).bit_length() - 1)
            cell &= cell - 1
    return order


def canonical_form(adj) -> tuple[str, tuple[bytes, ...]]:
    """The canonical key of the graph with adjacency ``adj`` (order <= 10)
    and generators of its automorphism group.

    The key is the graph6 string of the least column-major upper-triangle
    bit string over all vertex orderings, so two graphs are isomorphic
    exactly when their keys agree, and ``parse_graph6(key)`` is the
    canonical representative.  That bit order is graph6's own, so the
    search packs the least column of each position into the key as it
    goes.  Each generator p is an automorphism of the canonical
    representative, ``p[v]`` the image of vertex v, held as bytes: a
    census keeps one group per class.

    The search is exhaustive over orderings, but it does not try the
    orderings of the leading all-zero columns one by one:

    1. Columns 1..k-1 are all zero exactly when positions 0..k-1 hold an
       independent set, so every minimizing ordering starts with a maximum
       independent set S, and each such S is tried once, as a set.  Only
       the S that meet each twin class in its lowest members are tried: a
       twin swap maps the orderings that start with any other S onto
       orderings with the same string that start with one of these.
    2. Placed vertices are kept as an ordered partition into cells (sets on
       consecutive positions), starting with ``[S]``.  Every placed vertex
       is adjacent to all or none of each cell, so its column does not
       depend on the order inside the cells.  A candidate v gets the least
       column that any order inside the cells allows, cell by cell the
       |C - N(v)| non-neighbours as zeros before the |C & N(v)| neighbours as
       ones, and only the split of each cell into (C - N(v), C & N(v))
       reaches it.  Placing v makes that split, which changes no earlier
       column, and appends the cell {v}.  Column by column, a branch thus
       reaches the least string among the orderings that start with S, in
       any order, followed by its sequence of later vertices; the least of
       these over every S and every sequence is the least over all
       orderings.

    The branches grow one position at a time, all together: each tries the
    unplaced vertices, one per twin class (``_twin_classes``), and only the
    branches that reach the least column of that position go on, since a
    branch with a larger prefix cannot end at the least string.  At the
    end the vertices of each cell of a leaf are listed in ascending order
    (``_leaf_order``); vertices sharing a cell then are twins, so that
    order changes no bit, and the first leaf's order is the canonical
    labelling.

    The generators are the map from the first leaf to each other leaf,
    position by position, and the swap of each vertex with the least vertex
    of its twin class, both carried into canonical labels.  Every least
    ordering is an automorphism applied to the first leaf, and the search
    loses a least ordering only where it tries one maximum independent set
    per twin orbit, one vertex per twin class, or lists a cell of twins in
    ascending order; so each least ordering is a leaf up to twin swaps, and
    these permutations generate the whole group.
    """
    n = len(adj)
    if n > CANONICAL_MAX_ORDER:
        raise ValueError(f"canonical form unsupported beyond order {CANONICAL_MAX_ORDER}")
    twins = _twin_classes(adj, n)
    classes = [0] * n
    for v, t in enumerate(twins):
        classes[t] |= 1 << v
    same = [classes[t] for t in twins]  # same[v]: the mask of v's twin class
    # a branch: its cells as (mask, size) pairs, and the mask of placed vertices
    live = [([(s, s.bit_count())], s) for s in _maximum_independent_sets(adj, n, same)]
    placed = live[0][1].bit_count()
    bits = 0  # the columns of the independent set are all zero
    while placed < n:
        least = None
        chosen = []
        for cells, placed_mask in live:
            seen = placed_mask  # placed vertices and the twin classes tried
            for v in range(n):
                if seen >> v & 1:
                    continue
                seen |= same[v]
                nbrs = adj[v]
                col = 0
                for cell, size in cells:
                    col = col << size | (1 << (cell & nbrs).bit_count()) - 1
                if least is None or col < least:
                    least = col
                    chosen = [(cells, placed_mask, v)]
                elif col == least:
                    chosen.append((cells, placed_mask, v))
        live = []
        for cells, placed_mask, v in chosen:
            nbrs = adj[v]
            split = []
            for cell, size in cells:
                inside = cell & nbrs
                if inside and inside != cell:
                    k = inside.bit_count()
                    split += (cell ^ inside, size - k), (inside, k)
                else:
                    split.append((cell, size))
            split.append((1 << v, 1))
            live.append((split, placed_mask | 1 << v))
        bits = bits << placed | least
        placed += 1
    pos = [0] * n
    for i, v in enumerate(_leaf_order(cell for cell, _ in live[0][0])):
        pos[v] = i
    generators = [bytes(pos[v] for v in _leaf_order(cell for cell, _ in cells))
                  for cells, _ in live[1:]]
    for v, t in enumerate(twins):
        if t != v:
            p = bytearray(range(n))
            p[pos[v]], p[pos[t]] = pos[t], pos[v]
            generators.append(bytes(p))
    return _pack_graph6(n, bits), tuple(generators)


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class (order <= 10):
    the graph that ``canonical_form``'s key encodes."""
    return parse_graph6(canonical_form(g.adj)[0])
