"""Shared hypothesis strategies for random graphs and for integer polynomials
with known rational roots."""

from fractions import Fraction

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


def mul(a, b):
    """Product of two coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# roots u/v with 0 < u/v < 1 or outside [0, 1]; distinct by value
rational_roots = st.lists(
    st.tuples(st.integers(-6, 14), st.integers(1, 7)).map(lambda t: Fraction(*t))
    .filter(lambda r: r not in (0, 1)),
    max_size=4, unique=True)


@st.composite
def polys_with_known_roots(draw):
    """(coefficients, distinct real roots, degree of the part without real
    roots): a positive or negative multiple of prod (v x - u)^m times a
    product of quadratics x^2 + s x + t with s^2 < 4t."""
    roots = draw(rational_roots)
    coeffs = [draw(st.sampled_from([-3, -1, 1, 2, 5]))]
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            coeffs = mul(coeffs, [-r.numerator, r.denominator])
    quadratics = draw(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(1, 9)).filter(lambda q: q[0] ** 2 < 4 * q[1]),
        max_size=2))
    for s, t in quadratics:
        coeffs = mul(coeffs, [t, s, 1])
    return coeffs, roots, 2 * len(set(quadratics))
