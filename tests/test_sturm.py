"""Integer root machinery against rational long division, known roots and
an independent Sturm-sequence counter."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relshape.sturm import (
    InternalCheckError,
    _rem_primitive,
    count_roots,
    deflate_root,
    degree,
    descartes_bound,
    descartes_transform,
    diff_int,
    exact_div,
    reflect,
    scale,
    sign_at,
    square_free_part,
    taylor_shift,
    to_primitive_int,
)
from strategies import mul, polys_with_known_roots
from sturm_oracle import count_roots_open, sign_at_point, sturm_chain

# -- oracle: rational long division, kept independent of the module ---------------


def frac_rem(a, b):
    """Remainder of a by b by rational long division (lowest degree first)."""
    r = [Fraction(x) for x in a]
    while r and r[-1] == 0:
        r.pop()
    while len(r) >= len(b):
        factor = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, bc in enumerate(b):
            r[shift + i] -= factor * bc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def primitive_reference(fracs):
    """Positive rational multiple with integer coefficients of content 1."""
    if not fracs:
        return []
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    content = gcd(*ints)
    return [x // content for x in ints]


# -- strategies -------------------------------------------------------------------

int_polys = st.lists(st.integers(-40, 40), min_size=1, max_size=9).filter(lambda c: c[-1] != 0)

# -- remainders -------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(int_polys, int_polys)
def test_integer_remainder_matches_rational_division(a, b):
    assert _rem_primitive(a, b) == primitive_reference(frac_rem(a, b))


@settings(max_examples=100, deadline=None)
@given(polys_with_known_roots())
def test_integer_remainder_on_derivative_matches(case):
    coeffs, _, _ = case
    d = diff_int(coeffs)
    if d:
        assert _rem_primitive(coeffs, d) == primitive_reference(frac_rem(coeffs, d))


# -- the Sturm oracle ---------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(polys_with_known_roots())
def test_variations_count_distinct_roots_in_unit_interval(case):
    coeffs, roots, _ = case
    if degree(coeffs) < 1:
        return
    chain = sturm_chain(coeffs)
    inside = sum(1 for r in roots if 0 < r < 1)
    assert count_roots_open(chain, Fraction(0), Fraction(1)) == inside
    assert count_roots_open(chain, Fraction(-10), Fraction(20)) == len(roots)


@settings(max_examples=200, deadline=None)
@given(polys_with_known_roots())
def test_chain_head_is_square_free_part(case):
    coeffs, roots, complex_degree = case
    if degree(coeffs) < 1:
        return
    head = sturm_chain(coeffs)[0]
    assert degree(head) == len(roots) + complex_degree
    assert head == to_primitive_int(head)
    derivative = diff_int(head)
    for r in roots:
        assert sign_at_point(head, r) == 0
        assert sign_at_point(derivative, r) != 0  # simple


def test_chain_of_constant_is_itself():
    assert sturm_chain([-6]) == [[-1]]


# -- square-free part and the Descartes root counter --------------------------------

def frac_gcd(a, b):
    """gcd of two polynomials by rational long division (Euclid)."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while b:
        a, b = b, frac_rem(a, b)
    return a


@settings(max_examples=200, deadline=None)
@given(polys_with_known_roots())
def test_square_free_part_keeps_each_distinct_root_once(case):
    coeffs, roots, complex_degree = case
    q = square_free_part(coeffs)
    assert degree(q) == len(roots) + complex_degree
    assert q[-1] * coeffs[-1] > 0
    for r in roots:
        assert sign_at_point(q, r) == 0
    # q shares no root with q', and q divides p exactly
    assert len(frac_gcd(q, diff_int(q))) == 1
    assert not frac_rem(coeffs, q)


def test_square_free_part_examples():
    assert square_free_part([1, -6, 9]) == [-1, 3]  # (3p - 1)^2
    assert square_free_part([-1, 6, -9]) == [1, -3]  # the leading sign is kept
    assert square_free_part([0, 0, -2, 2]) == [0, -2, 2]  # p^2 (2p - 2): content stays
    assert square_free_part([-6]) == [-6]


def with_midpoint_roots(case, planted):
    """The case's polynomial times (v x - u)^m for each planted (u/v, m)."""
    coeffs, roots, _ = case
    for root, multiplicity in planted:
        for _ in range(multiplicity):
            coeffs = mul(coeffs, [-root.numerator, root.denominator])
    return coeffs


MIDPOINTS = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
INTERVALS = [(Fraction(0), Fraction(1)), (Fraction(1, 7), Fraction(5, 7)),
             (Fraction(1, 4), Fraction(3, 4)), (Fraction(-10), Fraction(20)),
             (Fraction(2, 9), Fraction(1, 3))]


@settings(max_examples=300, deadline=None)
@given(polys_with_known_roots(),
       st.lists(st.tuples(st.sampled_from(MIDPOINTS), st.integers(1, 3)), max_size=3,
                unique_by=lambda t: t[0]))
def test_count_roots_equals_the_sturm_count(case, planted):
    # roots at 1/2, 1/4 and 3/4 land on bisection midpoints of (0, 1); the
    # Sturm count needs ends where the polynomial does not vanish
    coeffs = with_midpoint_roots(case, planted)
    if degree(coeffs) < 1:
        return
    q = square_free_part(coeffs)
    chain = sturm_chain(coeffs)
    for lo, hi in INTERVALS:
        if sign_at_point(coeffs, lo) and sign_at_point(coeffs, hi):
            den = lcm(lo.denominator, hi.denominator)
            count = count_roots(q, int(lo * den), int(hi * den), den)
            assert count == count_roots_open(chain, lo, hi)
            # numerators need not be reduced
            for s in (2, 3, 7):
                assert count_roots(q, int(lo * den) * s, int(hi * den) * s, den * s) == count


def test_count_roots_counts_a_midpoint_root_once():
    # (2x - 1)(4x - 1)(4x - 3)(8x - 3): three roots on midpoints of (0, 1)
    q = mul(mul([-1, 2], [-1, 4]), mul([-3, 4], [-3, 8]))
    assert count_roots(q, 0, 1, 1) == 4
    assert count_roots(q, 1, 3, 3) == 3
    assert count_roots(q, 1, 3, 4) == 2  # open at both ends
    assert count_roots(q, 2, 6, 8) == 2
    assert count_roots([1, 0, 1], -5, 5, 1) == 0


@settings(max_examples=300, deadline=None)
@given(int_polys, st.integers(-50, 50), st.integers(1, 30), st.booleans(), st.integers(2, 7))
def test_sign_at_equals_the_fraction_sign(coeffs, num, den, planted, s):
    """The integer sign at num/den equals the oracle's sign on Fractions,
    with num/den reduced, as drawn and scaled by s, and a planted root
    there makes it 0."""
    if planted:
        coeffs = mul(coeffs, [-num, den])
    point = Fraction(num, den)
    expected = sign_at_point(coeffs, point)
    assert (expected == 0) >= planted
    for n, d in [(point.numerator, point.denominator), (num, den), (num * s, den * s)]:
        assert sign_at(coeffs, n, d) == expected


# -- Descartes' rule of signs ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(polys_with_known_roots())
def test_descartes_bound_counts_roots_in_unit_interval(case):
    # the strategy plants no root at 0 or 1
    coeffs, roots, _ = case
    inside = 0
    for r in (r for r in roots if 0 < r < 1):
        quotient = coeffs
        while sign_at_point(quotient, r) == 0:
            quotient = deflate_root(quotient, r)
            inside += 1
    bound = descartes_bound(coeffs)
    assert bound >= inside and (bound - inside) % 2 == 0
    if bound <= 1:
        assert bound == inside


@settings(max_examples=200, deadline=None)
@given(int_polys)
def test_descartes_transform_is_the_scaled_bernstein_form(coeffs):
    # R(t) = (1+t)^d p(1/(1+t)): p(x) = x^d R(1/x - 1), and the coefficient of
    # t^(d-i) is C(d, i) b_i, with p = sum_i b_i C(d, i) x^i (1-x)^(d-i)
    d = degree(coeffs)
    r = descartes_transform(coeffs)
    for x in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)):
        assert eval_poly(coeffs, x) == x ** d * eval_poly(r, 1 / x - 1)
    bernstein_form = [0] * (d + 1)
    for i in range(d + 1):
        term = [r[d - i]]
        for _ in range(i):
            term = mul(term, [0, 1])
        for _ in range(d - i):
            term = mul(term, [1, -1])
        bernstein_form = [a + b for a, b in zip(bernstein_form, term)]
    assert bernstein_form == coeffs


def eval_poly(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


@settings(max_examples=200, deadline=None)
@given(int_polys)
def test_interval_maps_keep_signs(coeffs):
    for x in (Fraction(-7, 3), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
              Fraction(5, 2)):
        assert sign_at_point(taylor_shift(coeffs), x) == sign_at_point(coeffs, x + 1)
        assert sign_at_point(reflect(coeffs), x) == sign_at_point(coeffs, 1 - x)
        assert sign_at_point(scale(coeffs, 3, 2), x) == sign_at_point(coeffs, x * 3 / 4)


def end_parity(coeffs):
    """Whether the polynomial has opposite signs at 0 and at 1."""
    return (coeffs[0] > 0) != (sum(coeffs) > 0)


@settings(max_examples=300, deadline=None)
@given(polys_with_known_roots(), st.integers(1, 5))
def test_descartes_bound_is_subadditive_with_the_parity_of_the_end_signs(case, k):
    # three splits of (0, 1): at 1/2, at 2^-k and at 1 - 2^-k, each piece as
    # the polynomial that maps (0, 1) onto it
    p = case[0]
    left = scale(p, 1, 1)
    gap = scale(p, 1, k)
    splits = [
        (left, taylor_shift(left)),
        (gap, scale(taylor_shift(gap), (1 << k) - 1, 0)),
        (scale(p, (1 << k) - 1, k), scale(reflect(p), 1, k)),
    ]
    for a, b in splits:
        assert descartes_bound(a) + descartes_bound(b) <= descartes_bound(p)
        for piece in (p, a, b):
            if piece[0] and sum(piece):
                assert descartes_bound(piece) % 2 == end_parity(piece)


# -- exact division and deflation ---------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(int_polys, int_polys)
def test_exact_div_inverts_product_and_rejects_remainder(a, b):
    b = to_primitive_int(b)
    product = mul(a, b)
    assert exact_div(product, b) == a
    if degree(b) >= 1:  # then a b + 1 leaves remainder 1
        with pytest.raises(InternalCheckError):
            exact_div([product[0] + 1] + product[1:], b)


@settings(max_examples=200, deadline=None)
@given(polys_with_known_roots(), st.tuples(st.integers(-9, 9), st.integers(1, 9)))
def test_deflate_root_divides_known_roots_and_rejects_others(case, probe):
    coeffs, roots, _ = case
    for r in roots:
        quotient = deflate_root(coeffs, r)
        assert mul(quotient, [-r.numerator, r.denominator]) == coeffs
    point = Fraction(*probe)
    if sign_at_point(coeffs, point) != 0:
        with pytest.raises(InternalCheckError):
            deflate_root(coeffs, point)


def test_inexact_division_is_an_internal_check_error():
    with pytest.raises(InternalCheckError, match="not exact"):
        exact_div([1, 0, 1], [-1, 1])  # x^2 + 1 by x - 1
    with pytest.raises(InternalCheckError, match="not exact"):
        exact_div([0, 1], [1, 2])  # x by 2x + 1: the leading term already fails
    with pytest.raises(InternalCheckError, match="1/2 is not a root"):
        deflate_root([1, 0, 1], Fraction(1, 2))


def test_rational_input_is_scaled_to_primitive_integers():
    assert to_primitive_int([Fraction(-1, 4), 0, Fraction(1, 2), 0]) == [-1, 0, 2]
    assert to_primitive_int([6, -4, 0]) == [3, -2]
    assert to_primitive_int([0, 0]) == []
