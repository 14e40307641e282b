"""Per-bit and per-edge graph passes for the tests, the word-at-a-time
passes of ``relshape.graphs`` written the direct way.

``validate`` is the vertex-by-vertex and neighbour-by-neighbour check of
an adjacency tuple, ``to_graph6`` packs the upper triangle one bit at a
time and ``parse_graph6`` unpacks it so, ``articulation_points`` scans one edge per step of the depth-first
search, ``triangle_count`` sums over the edges, and ``make_family`` builds
each named graph from its edge list.  Agreement with the package's passes
is evidence for both.
"""

from itertools import combinations

from relshape.graphs import (
    MAX_ORDER,
    Graph,
    Graph6ParseError,
    _pack_graph6,
    disjoint_union,
    graph_from_edges,
)


def validate(n, adj):
    """Raise the ValueError ``Graph`` raises for an invalid adjacency tuple
    of order n (1..62, of length n); return None for a valid one."""
    full = (1 << n) - 1
    for v, mask in enumerate(adj):
        if mask & ~full:
            raise ValueError(f"vertex {v} has a neighbor bit outside 0..{n - 1}")
        if mask >> v & 1:
            raise ValueError(f"vertex {v} has a loop")
    for v, mask in enumerate(adj):
        w = mask
        while w:
            u = (w & -w).bit_length() - 1
            w &= w - 1
            if not adj[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {v} and {u}")


def to_graph6(g):
    bits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | (g.adj[i] >> j & 1)
    return _pack_graph6(g.n, bits)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line, a character and a bit at a time."""
    line = text.rstrip("\r\n")
    if line.startswith(">>graph6<<"):
        line = line[10:]
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
    adj = [0] * n
    bit_index = 0
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for pos, ch in enumerate(line[1:], start=1):
        byte = ord(ch)
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"data byte {byte} outside [63,126]", pos)
        value = byte - 63
        for k in range(5, -1, -1):
            bit = value >> k & 1
            if bit_index < nbits:
                if bit:
                    i, j = pairs[bit_index]
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            elif bit:
                raise Graph6ParseError("nonzero padding bit", pos)
            bit_index += 1
    return Graph(n, tuple(adj))


def articulation_points(adj):
    """Hopcroft-Tarjan articulation points in one iterative depth-first pass:
    a non-root vertex v cuts when some DFS child's subtree reaches no vertex
    discovered before v (``low[child] >= disc[v]``); a root cuts when it has
    two or more DFS children."""
    n = len(adj)
    disc = [0] * n  # discovery time from 1; 0 = not yet visited
    low = [0] * n
    time = 0
    cuts = 0
    for root in range(n):
        if disc[root]:
            continue
        time += 1
        disc[root] = low[root] = time
        root_children = 0
        stack = [[root, adj[root]]]  # vertex, neighbours not yet scanned
        while stack:
            top = stack[-1]
            v, rest = top
            if rest:
                bit = rest & -rest
                top[1] = rest ^ bit
                u = bit.bit_length() - 1
                if disc[u]:
                    # the edge back to the DFS parent lands here too; it only
                    # lowers low[v] to disc[parent], which keeps the test
                    low[v] = min(low[v], disc[u])
                else:
                    time += 1
                    disc[u] = low[u] = time
                    stack.append([u, adj[u]])
                continue
            stack.pop()
            if not stack:
                break
            parent = stack[-1][0]
            low[parent] = min(low[parent], low[v])
            if parent == root:
                root_children += 1
            elif low[v] >= disc[parent]:
                cuts |= 1 << parent
        if root_children >= 2:
            cuts |= 1 << root
    return tuple(v for v in range(n) if cuts >> v & 1)


def triangle_count(g):
    total = 0
    for u, v in g.edges():
        total += (g.adj[u] & g.adj[v]).bit_count()
    return total // 3


def make_family(spec):
    """The named graph of ``spec`` from its edge list."""
    kind, params = spec.kind, spec.params
    if kind == "disjoint-union":
        return disjoint_union(make_family(spec.parts[0]), make_family(spec.parts[1]))
    n = spec.order
    if kind == "complete":
        edges = combinations(range(n), 2)
    elif kind == "empty":
        edges = ()
    elif kind == "path":
        edges = ((i, i + 1) for i in range(n - 1))
    elif kind == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "star":
        edges = ((0, i) for i in range(1, n))
    elif kind == "complete-bipartite":
        a, b = params
        edges = ((i, a + j) for i in range(a) for j in range(b))
    else:  # bonded-complete-leaf
        edges = [*combinations(range(n - 1), 2), (0, n - 1)]
    return graph_from_edges(n, edges)
