"""Shared hypothesis strategies for random graphs."""

from hypothesis import strategies as st

from relshape.graphs import Graph


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


@st.composite
def sparse_graphs(draw, min_n=1, max_n=12):
    """Forests plus at most n/3 extra edges; a vertex starts a new tree with
    probability 1/(v+1), so disconnected graphs turn up too."""
    n = draw(st.integers(min_n, max_n))
    adj = [0] * n
    for v in range(1, n):
        u = draw(st.integers(0, v))
        if u < v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=n // 3)):
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))
