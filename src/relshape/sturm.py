"""Exact real-root machinery for integer polynomials.

Coefficient lists are lowest degree first.  Rational input is scaled once
into a primitive integer polynomial; every later step is integer arithmetic,
down to evaluation at num/den by Horner's scheme on the homogenized form.
Remainder sequences are primitive PRS (W. S. Brown, JACM 18, 1971; Knuth,
TAOCP vol. 2, 4.6.1): integer pseudo-remainders by a divisor with positive
leading coefficient, content removed, hence positive multiples of the
rational remainders with the same signs.  The last nonzero one of p and p'
is gcd(p, p'), and dividing it out leaves the square-free part of p.

Roots in (0, 1) are counted by one rule, Descartes' rule of signs: the
sign changes of (1+t)^d p(1/(1+t)) bound them (Collins and Akritas, SYMSAC
1976; Rouillier and Zimmermann, JCAM 162, 2004), and on the square-free
part bisection brings every bound to the exact count.  Its integer helpers
are the Taylor shift p(x + 1), the scaling 2^(kd) p(m x / 2^k), the
reflection p(1 - x) and the sign-change count.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import ne


class ZeroPolynomialError(ValueError):
    """Raised where a root query on the identically zero polynomial has no
    sensible answer (the caller decides what an all-roots polynomial means)."""


class InternalCheckError(AssertionError):
    """A can't-happen algebraic identity failed; indicates a library bug."""


def to_primitive_int(coeffs) -> list[int]:
    """Scale a rational coefficient list by a positive rational into a
    primitive (content 1) integer list, trimming trailing zeros."""
    coeffs = list(coeffs)
    if not all(isinstance(c, int) for c in coeffs):
        fracs = [Fraction(c) for c in coeffs]
        denom_lcm = lcm(*(f.denominator for f in fracs))
        coeffs = [f.numerator * (denom_lcm // f.denominator) for f in fracs]
    return primitive(coeffs)


def primitive(coeffs: list[int]) -> list[int]:
    """Trim trailing zeros of an integer list in place and divide out its
    content."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    content = gcd(*coeffs)
    return coeffs if content <= 1 else [x // content for x in coeffs]


def degree(coeffs) -> int:
    return len(coeffs) - 1


def diff_int(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def horner_ratio(coeffs, num: int, den: int):
    """den^d p(num/den) for d = len(coeffs) - 1 and den > 0: Horner's scheme
    on the homogenized form, so an integer list and point stay integers."""
    acc, dp = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * dp
        dp *= den
    return acc


def sign_at(coeffs: list[int], num: int, den: int) -> int:
    """Sign of the polynomial at num/den for den > 0."""
    acc = horner_ratio(coeffs, num, den)
    return (acc > 0) - (acc < 0)


def taylor_shift(coeffs: list[int]) -> list[int]:
    """Coefficients of p(x + 1) by Horner's scheme: highest degree first,
    each of its d passes is one prefix ``accumulate``."""
    r = coeffs[::-1]
    for k in range(len(r), 1, -1):
        r[:k] = accumulate(r[:k])
    return r[::-1]


def scale(coeffs: list[int], num: int, k: int) -> list[int]:
    """Coefficients of 2^(kd) p(num x / 2^k)."""
    d = len(coeffs) - 1
    if num != 1:
        coeffs = [c * num ** i for i, c in enumerate(coeffs)]
    return [c << k * (d - i) for i, c in enumerate(coeffs)]


def reflect(coeffs: list[int]) -> list[int]:
    """Coefficients of p(1 - x), which maps (0, 1) onto itself backward."""
    return [-c if i % 2 else c for i, c in enumerate(taylor_shift(coeffs))]


def descartes_transform(coeffs: list[int]) -> list[int]:
    """Coefficients of (1+t)^d p(1/(1+t)), lowest degree first: the
    coefficient of t^(d-i) is C(d, i) b_i for the Bernstein coefficients
    b_i of p on (0, 1), and p(x) = x^d R(1/x - 1)."""
    return taylor_shift(coeffs[::-1])


def sign_changes(coeffs) -> int:
    """Sign changes of a coefficient list, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(map(ne, signs, signs[1:]))


def descartes_bound(coeffs: list[int]) -> int:
    """Descartes' bound on the roots of p in (0, 1): the sign changes of
    its ``descartes_transform``.  It is at least the number of roots
    counted with multiplicity, of the same parity when p(0) p(1) != 0, and
    equal to it when it is 0 or 1."""
    return sign_changes(descartes_transform(coeffs))


def _rem_primitive(a: list[int], b: list[int]) -> list[int]:
    """Primitive remainder of a by b: the pseudo-remainder by b with its
    leading coefficient made positive (which leaves the remainder as it is),
    content removed."""
    if b[-1] < 0:
        b = [-x for x in b]
    lead = b[-1]
    db = len(b) - 1
    r = list(a)
    while len(r) > db:
        top = r.pop()
        if not top:
            continue
        # r <- (lead/g) r - (top/g) x^shift b; the positive scale keeps signs
        g = gcd(top, lead)
        scale, factor = lead // g, top // g
        if scale != 1:
            r = [scale * x for x in r]
        shift = len(r) - db
        for i in range(db):
            r[shift + i] -= factor * b[i]
    return primitive(r)


def exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b by a primitive b (integral by Gauss's lemma)."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [0] * (len(a) - db)
    for shift in range(len(q) - 1, -1, -1):
        factor, rest = divmod(r.pop(), lead)
        if rest:
            raise InternalCheckError("polynomial division was not exact")
        q[shift] = factor
        for i in range(db):
            r[shift + i] -= factor * b[i]
    if any(r):
        raise InternalCheckError("polynomial division was not exact")
    return q


def deflate_root(coeffs: list[int], root: Fraction) -> list[int]:
    """Divide out a known rational root u/v exactly: synthetic division by
    the primitive factor v x - u, so a primitive input stays primitive."""
    if root == 1:  # by x - 1 the quotient is prefix sums from the top
        out = list(accumulate(reversed(coeffs)))
    else:
        u, v = root.numerator, root.denominator
        out = []
        acc = 0
        for c in reversed(coeffs):
            acc, rest = divmod(c + u * acc, v)
            if rest:
                raise InternalCheckError(f"{root} is not a root")
            out.append(acc)
    if out.pop():
        raise InternalCheckError(f"{root} is not a root")
    return out[::-1]


def square_free_part(coeffs: list[int]) -> list[int]:
    """p / gcd(p, p') for an integer p: the same distinct roots, each simple,
    and the leading sign of p.  The gcd is the last nonzero primitive
    remainder of p and p'."""
    a, b = coeffs, primitive(diff_int(coeffs))
    while b:
        a, b = b, _rem_primitive(a, b)
    if degree(a) < 1:
        return coeffs
    return exact_div(coeffs, a if a[-1] > 0 else [-x for x in a])


def count_roots(q: list[int], a: int, b: int, den: int) -> int:
    """Distinct roots of a square-free q in the open (a/den, b/den), a < b.

    q is mapped onto it as den^d q((a + (b - a) x) / den) by Horner's scheme
    on the homogenized form, and (0, 1) is bisected at midpoints until every
    cell's Descartes bound is 0 or 1, which it reaches on a polynomial
    without a multiple root (Vincent's theorem; Collins and Akritas, SYMSAC
    1976).  A root at a midpoint is counted once and divided out.
    """
    w = b - a
    p, dp = [], 1
    for c in reversed(q):
        p = [a * x + w * y for x, y in zip(p + [0], [0] + p)]
        p[0] += c * dp
        dp *= den
    count, stack = 0, [p]
    while stack:
        p = stack.pop()
        bound = descartes_bound(p)
        if bound <= 1:
            count += bound
            continue
        if not horner_ratio(p, 1, 2):
            count += 1
            p = deflate_root(p, Fraction(1, 2))
        left = scale(p, 1, 1)
        stack += [left, taylor_shift(left)]
    return count
