"""An independent root counter and isolation for the tests: Sturm sequences.

The package counts roots by Descartes' rule of signs alone.  A Sturm chain
counts them by a different theorem (sign variations of p, p', and the
negated remainders at the two ends), so agreement between the two is
evidence for both.  ``sturm_only_isolation`` isolates every root on such a
chain, with its own split loop and its own exact bisection, and so gives the
brackets ``isolate_roots`` must give.
"""

from fractions import Fraction

from relshape.sturm import (
    _rem_primitive,
    deflate_root,
    degree,
    diff_int,
    exact_div,
    primitive,
    to_primitive_int,
)


def sign_at_point(coeffs, x):
    """Sign of the polynomial at a rational point, by Horner's scheme on
    Fractions, apart from the package's integer evaluation."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return (value > 0) - (value < 0)


def sturm_chain(coeffs):
    """Sturm sequence of the square-free part of an integer polynomial, each
    element primitive; the first element is the square-free part itself."""
    chain = [to_primitive_int(coeffs)]
    d = primitive(diff_int(chain[0]))
    if d:
        chain.append(d)
    while degree(chain[-1]) >= 1:
        rem = _rem_primitive(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-x for x in rem])
    g = chain[-1]
    if degree(g) >= 1:
        chain = [exact_div(element, g) for element in chain]
    return chain


def variations(chain, point):
    """Sign changes along the chain at a point, zeros skipped."""
    signs = [s for s in (sign_at_point(element, point) for element in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots_open(chain, lo, hi):
    """Distinct real roots in the open interval (lo, hi) for a Sturm chain
    whose first element does not vanish at either end."""
    return variations(chain, lo) - variations(chain, hi)


def bisect(q, a, b, tol):
    """Bisect (a, b), which holds one simple root of q, until it is narrower
    than tol; a midpoint that is the root gets a bracket centred on it, as
    wide as the half it ends but at most tol.  Returns (lo, hi, approx)."""
    sa = sign_at_point(q, a)
    while b - a >= tol:
        mid = (a + b) / 2
        sm = sign_at_point(q, mid)
        if sm == 0:
            delta = min(mid - a, tol) / 2
            return mid - delta, mid + delta, mid
        if sm == sa:
            a = mid
        else:
            b = mid
    return a, b, (a + b) / 2


def sturm_only_isolation(coeffs, tol):
    """The (lo, hi, approx, sign_change) of each root of coeffs in (0, 1),
    every count taken on one Sturm chain: an end where the polynomial
    vanishes is pulled in by 2^-k of what is left, for the least k >= 2 that
    leaves no root in the gap; the interval is split at its midpoint, or
    when that is a root at a + (b - a) i / (d + 2) for the least i that is
    not, until each piece holds one root, which is bisected below tol."""
    p_int = to_primitive_int(coeffs)
    inner = p_int
    for end in (Fraction(0), Fraction(1)):
        while sign_at_point(inner, end) == 0:
            inner = deflate_root(inner, end)
    if degree(inner) < 1:
        return []
    chain = sturm_chain(inner)
    q = chain[0]
    lo, hi = Fraction(0), Fraction(1)
    if sign_at_point(p_int, lo) == 0:
        step = (hi - lo) / 4
        while sign_at_point(inner, lo + step) == 0 or count_roots_open(chain, lo, lo + step):
            step /= 2
        lo += step
    if sign_at_point(p_int, hi) == 0:
        step = (hi - lo) / 4
        while sign_at_point(inner, hi - step) == 0 or count_roots_open(chain, hi - step, hi):
            step /= 2
        hi -= step
    records = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        count = count_roots_open(chain, a, b)
        if count == 1:
            lo_r, hi_r, approx = bisect(q, a, b, tol)
            crossing = sign_at_point(p_int, lo_r) * sign_at_point(p_int, hi_r) < 0
            records.append((lo_r, hi_r, approx, crossing))
        elif count > 1:
            parts = degree(q) + 2
            mid = next(x for x in [(a + b) / 2] + [a + (b - a) * Fraction(i, parts)
                                                   for i in range(1, parts)]
                       if sign_at_point(q, x))
            stack += [(a, mid), (mid, b)]
    return sorted(records)
