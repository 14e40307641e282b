"""Shape analysis of node-reliability polynomials on (0,1).

All structural decisions (how many inflection points, whether an interval is
one of decrease, whether a fixed point is a crossing) are made in integer
arithmetic.  Roots are counted by one rule, Descartes' rule of signs, on
cells bisected at midpoints, each cell integer numerators over one common
denominator; a cell the rule leaves open is counted on the square-free
part, where bisection ends in exact counts.  A cell's bound is inferred
where two facts decide it: the bounds of disjoint subintervals sum to at
most the bound of the whole (Eigenwillig, Sharma and Yap, ISSAC 2006), and
a bound has the parity of the signs at the cell's ends (Collins and
Akritas, SYMSAC 1976).  So a cell left at most 1 by its parent has its
parity as bound, and a Taylor shift is made only where the bound is still
open.  Each root gets the bracket that bisecting its cell at midpoints
ends in, below the tolerance (exactly the tolerance wide when a midpoint
is the root): one of the 2^k cells at the first level k below it.  A float
Newton estimate picks that cell, in the power basis and, where its cell is
not confirmed, in the scaled Bernstein basis of the polynomial's Descartes
transform; a cell is taken only when two exact signs at its ends confirm
it, else it is bisected for over the cells.  Ends and points are integer
numerators over a denominator; a Fraction is built only for the reported
bracket.  The sparse-threshold optimizer is the only other use of floats.

``analyze_profile`` is the one way into an analysis: it expands the
profile once, isolates f', f'' and f - p through ``isolate_roots`` (a
failed internal check names which), and its report carries f and f'.
The paper's two witness theorems are each one exact evaluation:
``check_sparse_decrease`` takes f' and ``check_fixed_point_witness``
takes f, such as a report's; neither counts nor expands.

Classification vocabulary (assigned from the exact report, never from
samples):

* ``identity``: the polynomial is p itself (single-vertex graph).
* ``N``: value 1 at p=1 and exactly one maximal decrease interval, with
  increase on both sides.
* ``M``: exactly two maximal decrease intervals.
* ``monotone-no-interior-fixed-point``: increasing, no interior fixed point.
* ``other``: anything else.

Tangential (even-multiplicity) fixed points and stationary points are
reported but never counted as crossings or decrease boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .connsets import ConnSetProfile
from .graphs import Graph, is_two_connected
from .poly import (
    ReliabilityPoly,
    d_coefficients,
    derivative,
    eval_exact,
    from_profile,
    second_derivative,
)
from .sturm import (
    InternalCheckError,
    ZeroPolynomialError,
    count_roots,
    deflate_root,
    degree,
    descartes_bound,
    descartes_transform,
    horner_ratio,
    reflect,
    scale,
    sign_at,
    sign_changes,
    square_free_part,
    taylor_shift,
    to_primitive_int,
)

DEFAULT_TOL = Fraction(1, 10**9)

SPARSE_THRESHOLD_NUM = 851  # applicability cutoff m <= 0.0851 n^2, exact
SPARSE_THRESHOLD_DEN = 10**4
R_HAT = Fraction(1729474372, 10**9)  # rational stand-in for the optimizer's argmax
FLOAT_ROOT_STEPS = 60  # float Newton/bisection steps that estimate a root before refining


@dataclass(frozen=True)
class RootRecord:
    """One isolated real root: an exact bracketing interval of width below
    tol (or exactly tol when a midpoint is the root), a refined
    approximation, and whether the polynomial changes sign there (odd
    multiplicity)."""

    lo: Fraction
    hi: Fraction
    approx: Fraction
    sign_change: bool


@dataclass(frozen=True)
class Interval:
    """A maximal open interval of strict decrease.

    Boundary roots are carried when the boundary is a stationary point; a
    None root means the interval runs to the domain endpoint (only possible
    at 1, and only for disconnected graphs)."""

    lo: Fraction
    hi: Fraction
    lo_root: RootRecord | None
    hi_root: RootRecord | None


def isolate_roots(coeffs, tol: Fraction = DEFAULT_TOL) -> list[RootRecord]:
    """Isolate the distinct real roots in the open interval (0, 1).

    Endpoint roots are deflated.  Descartes' bound on (0, 1) is counted
    once, and no root is sought when it is 0.  An end where the polynomial
    vanished is first pulled inward across a root-free gap
    (``_root_free_gap``), which gives the rest of (0, 1) with its bound.
    What is left is bisected at midpoints and each cell counted by the rule
    (``_cells``): a cell with one sign change holds one simple root, which
    is narrowed below ``tol`` (or to exactly ``tol`` when a midpoint is the
    root).  Only a cell the rule cannot decide is counted on the square-free
    part of the deflated polynomial, taken once, and split until each piece
    holds one root (``_split_isolate``).  Raises ValueError unless tol is
    finite and > 0, and ZeroPolynomialError for the identically zero
    polynomial.
    """
    tol = _positive_tol(tol)
    p_int = to_primitive_int(coeffs)
    if not p_int:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if degree(p_int) == 0:
        return []
    inner = p_int
    while inner[0] == 0:  # p(0)
        inner = deflate_root(inner, 0)
    while sum(inner) == 0:  # p(1)
        inner = deflate_root(inner, 1)
    if degree(inner) < 1:
        return []
    transform = descartes_transform(inner)  # also the basis of the second root estimate
    if not (budget := sign_changes(transform)):
        return []
    memo = []

    def square_free():
        """inner's square-free part, taken once, and only where Descartes'
        rule cannot decide."""
        if not memo:
            memo.append(square_free_part(inner))
        return memo[0]

    # poly maps (0, 1) onto (lo_num, lo_num + w_num) / den, and budget is its bound
    lo_num, w_num, den, poly = 0, 1, 1, inner
    # when the original polynomial vanishes at a domain endpoint (those roots
    # were deflated) pull the endpoint inward across a root-free gap, so no
    # bracket can touch a zero of the original
    if p_int[0] == 0:
        k, poly, budget = _root_free_gap(poly, budget, square_free, 0, 1, 1)
        lo_num, w_num, den = 1, (1 << k) - 1, 1 << k
    if sum(p_int) == 0:
        k, poly, budget = _root_free_gap(poly, budget, square_free, lo_num + w_num, -w_num, den)
        lo_num, w_num, den = lo_num << k, w_num * ((1 << k) - 1), den << k
    records: list[RootRecord] = []
    for a_num, b_num, cell_den, certified, sa in _cells(poly, budget, lo_num, w_num, den, tol):
        if certified:
            # one simple root of inner, which p_int has too: p_int crosses
            records.append(RootRecord(
                *_refine(inner, transform, a_num, b_num, cell_den, sa, tol), True))
        else:
            records += _split_isolate(square_free(), p_int, a_num, b_num, cell_den, tol)
    return records


def _positive_tol(tol) -> Fraction:
    """tol as a Fraction; ValueError unless it is finite and > 0.  A
    positive Fraction comes back as it is, since every isolation checks its
    tol again."""
    if type(tol) is Fraction and tol.numerator > 0:
        return tol
    try:
        if (tol := Fraction(tol)) > 0:
            return tol
    except OverflowError:  # an infinite float
        pass
    raise ValueError(f"need a finite tol > 0, got {tol}")


def _root_free_gap(poly, budget: int, square_free, end_num: int, w_num: int,
                   den: int) -> tuple[int, list[int], int]:
    """(k, rest, b) for the least k >= 2 such that the first
    2^-k of the interval P maps (0, 1) onto holds no root and does not end
    in one; the last 2^-k when w_num < 0.  ``rest`` maps (0, 1) onto the
    rest of the interval, P(2^-k + (1 - 2^-k) x), else P((1 - 2^-k) x), and
    b is its Descartes bound.

    That interval has signed length w_num/den from end_num/den, the end the
    gap starts at, and ``budget`` is P's bound there.  By the two facts of
    the module docstring, a gap whose end signs differ holds a root; else
    the bounds of the gap and the rest sum to at most the budget.  So a
    budget of at most 1 leaves the gap no root and the rest its parity, and
    a rest whose bound is still the budget leaves the gap bound 0.  Only
    otherwise is the gap's own bound counted, after P is reflected for the
    last 2^-k, and a bound above 0 decided by ``count_roots`` on the
    square-free part that ``square_free()`` returns.  Roots are isolated
    away from a non-vanishing end, so k exists.
    """
    at_end = w_num < 0
    end_sign = (sum(poly) if at_end else poly[0]) > 0
    k = 2
    while True:
        cut = horner_ratio(poly, (1 << k) - 1 if at_end else 1, 1 << k)
        if cut and (cut > 0) == end_sign:  # else the gap ends in a root or holds one
            if at_end:
                rest = scale(poly, (1 << k) - 1, k)  # P((1 - 2^-k) x)
            else:
                gap = scale(poly, 1, k)  # P(2^-k x)
                rest = scale(taylor_shift(gap), (1 << k) - 1, 0)
            if budget <= 1:
                return k, rest, (rest[0] > 0) != (sum(rest) > 0)
            bound = descartes_bound(rest)
            if bound == budget or not descartes_bound(
                    scale(reflect(poly), 1, k) if at_end else gap):
                return k, rest, bound
            a, b = sorted((end_num << k, (end_num << k) + w_num))
            if not count_roots(square_free(), a, b, den << k):
                return k, rest, bound
        k += 1


def _cells(poly, bound: int, lo_num: int, w_num: int, den: int, tol: Fraction):
    """Yield (a_num, b_num, den_k, certified, sign) for the cells (a_num,
    b_num) / den_k of (lo_num, lo_num + w_num) / den that may hold a root of
    the polynomial q that P = ``poly`` maps onto that interval, with the sign
    of q at a_num / den_k; P vanishes at neither 0 nor 1, and ``bound`` is
    its Descartes bound.

    Descartes' bound 0 drops a cell; 1 certifies one simple root in it; 2 or
    more splits it at its midpoint, into 2^d P(x/2) and that shifted by 1, so
    no rational is substituted again.  The halves' bounds sum to at most the
    cell's (Eigenwillig, Sharma and Yap, ISSAC 2006), and each has the parity
    of the signs at its ends (Collins and Akritas, SYMSAC 1976); so a half
    whose bound is at most 1 by the sum is its parity and is not counted,
    and the right half is shifted only when its bound is counted.  The bound
    need not fall near a multiple root, so a cell narrower than ``tol``, or
    whose midpoint is a root, is yielded uncertified for ``count_roots``.
    The cells are those of bisecting the interval at midpoints, so
    ``_refine`` gives the bracket it would give on any enclosing cell.
    """
    # cell (k, j) is (lo_num 2^k + (j, j+1) w_num) / (den 2^k); it is at
    # least tol wide while span >= unit << k
    span, unit = w_num * tol.denominator, tol.numerator * den
    stack = [(0, 0, poly, bound, poly[0] > 0, sum(poly) > 0)] if bound else []
    while stack:
        k, j, poly, bound, s0, s1 = stack.pop()
        if bound > 1 and span >= unit << k:
            left = scale(poly, 1, 1)
            mid = sum(left)  # 2^d P(1/2)
            if mid:  # else the midpoint is a root
                sm = mid > 0
                lb = s0 != sm if bound - (sm != s1) <= 1 else descartes_bound(left)
                right = taylor_shift(left) if bound - lb > 1 else None
                rb = sm != s1 if right is None else descartes_bound(right)
                if rb:
                    stack.append((k + 1, 2 * j + 1, right, rb, sm, s1))
                if lb:
                    stack.append((k + 1, 2 * j, left, lb, s0, sm))
                continue
        a_num = (lo_num << k) + j * w_num
        # this cell's P is a positive multiple of q(a_num / den_k + w x)
        yield a_num, a_num + w_num, den << k, bound == 1, 1 if s0 else -1


def _split_isolate(q, p_int, a: int, b: int, den: int,
                   tol: Fraction) -> list[RootRecord]:
    """Isolate the roots in (a/den, b/den) of q, the square-free part of
    p_int, in ascending order, by exact counts alone (``count_roots``):
    split at interior non-roots until each holds one root, refined on q."""
    transform = descartes_transform(q)
    records = []
    stack = [(a, b, den, count_roots(q, a, b, den))]
    while stack:
        a, b, den, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            lo, hi, approx = _refine(q, transform, a, b, den, sign_at(q, a, den), tol)
            # q is square-free; the root's multiplicity in p_int decides the crossing
            s_lo, s_hi = (sign_at(p_int, *x.as_integer_ratio()) for x in (lo, hi))
            records.append(RootRecord(lo, hi, approx, s_lo * s_hi < 0))
            continue
        # split at the midpoint, else at (a + (b - a) i / parts) / den: of these
        # deg(q) + 1 points at most deg(q) are roots.  Each is m / (s den): scale by s
        parts = degree(q) + 2
        grid = ((a * parts + (b - a) * i, parts) for i in range(1, parts))
        mid, s = next((m, s) for m, s in ((a + b, 2), *grid) if sign_at(q, m, den * s))
        a, b, den = a * s, b * s, den * s
        left = count_roots(q, a, mid, den)
        stack.append((mid, b, den, count - left))
        stack.append((a, mid, den, left))
    return records


def _refine(q, transform, lo_num: int, hi_num: int, den: int, sa: int,
            tol: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The bracket (a, b) below ``tol``, and its approximation, that
    bisecting (lo_num/den, hi_num/den) at midpoints ends in; that interval
    holds exactly one (simple) root of q, and q has sign ``sa`` at lo.

    After the least k halvings that take the width below ``tol``, the
    bracket is one of 2^k cells, cell j being (base + (j, j+1) width) / den_k.
    A float estimate of the root picks j: Newton's method (``_newton``) on q
    in the power basis, then, where cancellation in Horner's scheme has
    moved its root, on ``transform``, q's ``descartes_transform``, whose
    coefficients are q's scaled Bernstein coefficients and keep its roots
    far better (Farouki and Rajan, CAGD 4, 1987).  An estimate whose
    coefficients overflow a float picks no cell, and one outside the
    interval picks the cell at its nearer end.  A cell is taken only when q
    has sign ``sa`` at its left end and ``-sa`` at its right: the root is
    then strictly inside, so no midpoint is the root and bisection ends in
    this very cell.  Else j is bisected for, one exact sign per halving at
    the midpoints bisection evaluates; a midpoint that is the root gets a
    bracket centred on it, as wide as the half it ends but at most ``tol``:
    so exactly ``tol`` unless the half is narrower.

    Unreduced numerators (``_split_isolate``'s) give the same bracket:
    scaling lo_num, hi_num and den by one factor leaves k, j, each midpoint
    and the float lo_num/den as they are, and the returned Fractions reduce.
    """
    width = hi_num - lo_num
    k = (width * tol.denominator // (tol.numerator * den)).bit_length()
    base, den_k = lo_num << k, den << k
    lo, hi = lo_num / den, hi_num / den
    cell_width = math.ldexp(hi - lo, -k)  # no overflow for tol below 2^-1024
    for coeffs, bernstein in ((q[::-1], False), (transform, True)):
        try:
            x = _newton([float(c) for c in coeffs], sa, lo, hi, cell_width, bernstein)
        except OverflowError:  # a coefficient beyond the float range
            continue
        x_num, x_den = x.as_integer_ratio()
        j = (x_num * den_k - base * x_den) // (width * x_den)
        j = min(max(j, 0), (1 << k) - 1)  # the cell nearest an estimate outside
        if (sign_at(q, base + j * width, den_k) == sa
                and sign_at(q, base + (j + 1) * width, den_k) == -sa):
            break
    else:
        j, end = 0, 1 << k  # the root is in cells j .. end - 1
        while end - j > 1:
            mid = (j + end) // 2
            sm = sign_at(q, base + mid * width, den_k)
            if sm == 0:
                # landed exactly on the root; shrink a symmetric bracket
                root = Fraction(base + mid * width, den_k)
                delta = min(Fraction((mid - j) * width, den_k), tol) / 2
                return root - delta, root + delta, root
            if sm == sa:
                j = mid
            else:
                end = mid
    a_num = base + j * width
    return (Fraction(a_num, den_k), Fraction(a_num + width, den_k),
            Fraction(2 * a_num + width, 2 * den_k))


def _newton(coeffs, sa: int, lo: float, hi: float, cell_width: float,
            bernstein: bool = False) -> float:
    """A root in (lo, hi) of the polynomial q with sign ``sa`` at lo, by
    Newton's method safeguarded by bisection.  It stops after
    ``FLOAT_ROOT_STEPS`` steps, or once a step is below an eighth of
    ``cell_width``: such a step is taken even where it ends on or just past
    an end of the bracket, as it does when that end lies within rounding
    error of the root.

    ``coeffs`` are q's, highest degree first, evaluated by Horner's scheme
    at x.  With ``bernstein`` they are those of R(t) = (1+t)^d q(1/(1+t)),
    lowest degree first, and q(x) = y^d F(z) is evaluated with z at most 1:
    for x > 1/2, y = x and F = R at z = 1/x - 1; else y = 1 - x and F is R
    with its coefficients reversed, at z = x/(1 - x).  F has q's sign, and
    as dz/dx = s/y^2 (s = -1, else 1), q'/q = s (F' - d y F) / (y^2 F).
    """
    d, reverse = len(coeffs) - 1, coeffs[::-1] if bernstein else None
    x = (lo + hi) / 2
    for _ in range(FLOAT_ROOT_STEPS):
        if not bernstein:
            z, basis = x, coeffs
        elif x > 0.5:
            y, z, basis, s = x, (1 - x) / x, reverse, -1
        else:
            y, z, basis, s = 1 - x, x / (1 - x), coeffs, 1
        value = slope = 0.0
        for c in basis:
            slope = slope * z + value
            value = value * z + c
        if value == 0:
            break
        if (value > 0) == (sa > 0):
            lo = x
        else:
            hi = x
        if bernstein:
            slope = s * (slope - d * y * value) / (y * y)
        step = value / slope if slope else hi - lo
        nxt = x - step
        if not lo < nxt < hi and abs(step) >= cell_width / 8:
            nxt = (lo + hi) / 2
        if abs(nxt - x) < cell_width / 8:
            return nxt
        x = nxt
    return x


@dataclass(frozen=True)
class ShapeReport:
    """The exact shape of one profile's reliability polynomial, with the
    power-basis f and f' and the coefficients d of f'' it was decided from
    (left out of the repr)."""

    n: int
    connected: bool
    deriv_at_0: int
    deriv_at_1: int
    decrease_intervals: tuple[Interval, ...]
    critical_points: tuple[RootRecord, ...]
    inflections: tuple[RootRecord, ...]
    fixed_points: tuple[RootRecord, ...]
    concave_down_near_0: bool
    concavity_near_1: int
    shape_class: str
    poly: ReliabilityPoly = field(repr=False)
    f1: tuple[int, ...] = field(repr=False)
    d: tuple[int, ...] = field(repr=False)

    @property
    def crossing_fixed_points(self) -> tuple[RootRecord, ...]:
        return tuple(r for r in self.fixed_points if r.sign_change)


def analyze_profile(profile: ConnSetProfile, tol: Fraction = DEFAULT_TOL) -> ShapeReport:
    """Full exact shape report for the reliability polynomial of a profile.

    The profile is expanded here, once; the report carries that f, its
    derivative f' and the d_k of f'' as ``poly``, ``f1`` and ``d`` for
    callers that read them.
    """
    tol = _positive_tol(tol)
    n, c = profile.n, profile.c
    poly = from_profile(profile)
    deriv_at_0 = c[1]
    deriv_at_1 = n * c[n] - c[n - 1]

    d = d_coefficients(profile)
    concave_down_near_0 = n >= 2 and d[0] < 0
    last = next((x for x in reversed(d) if x), 0)
    concavity_near_1 = (last > 0) - (last < 0)

    f1 = derivative(poly)
    f2 = second_derivative(poly)
    shifted = list(poly.coeffs)
    shifted[1] -= 1  # f(p) - p, zero for the single-vertex graph

    roots = []
    for stage, q in (("f'", f1), ("f''", f2), ("f - p", shifted)):
        try:
            roots.append(tuple(isolate_roots(q, tol)) if any(q) else ())
        except InternalCheckError as exc:  # name the polynomial that failed
            raise InternalCheckError(f"{stage}: {exc}") from exc
    critical, inflections, fixed = roots
    decrease = _decrease_intervals(f1, critical)

    shape_class = _classify(poly, decrease, fixed) if any(shifted) else "identity"
    return ShapeReport(
        n=n, connected=profile.connected,
        deriv_at_0=deriv_at_0, deriv_at_1=deriv_at_1,
        decrease_intervals=decrease, critical_points=critical,
        inflections=tuple(r for r in inflections if r.sign_change), fixed_points=fixed,
        concave_down_near_0=concave_down_near_0,
        concavity_near_1=concavity_near_1, shape_class=shape_class,
        poly=poly, f1=f1, d=d)


def _decrease_intervals(f1, critical) -> tuple[Interval, ...]:
    """Maximal open intervals where the polynomial strictly decreases.

    Just right of 0, f' has the sign of its lowest nonzero coefficient
    (f'(0) = c_1).  That sign flips exactly at the crossing critical points,
    so negative stretches merge across tangential stationary points.
    """
    sign = next(((c > 0) - (c < 0) for c in f1 if c), 0)
    intervals, lo, lo_root = [], Fraction(0), None
    for r in critical:
        if r.sign_change:
            if sign < 0:
                intervals.append(Interval(lo, r.approx, lo_root, r))
            lo, lo_root, sign = r.approx, r, -sign
    if sign < 0:
        intervals.append(Interval(lo, Fraction(1), lo_root, None))
    return tuple(intervals)


def _classify(poly: ReliabilityPoly, decrease, fixed) -> str:
    if len(decrease) == 2:
        return "M"
    if len(decrease) == 1:
        lo_inside = decrease[0].lo_root is not None
        hi_inside = decrease[0].hi_root is not None
        if poly.value_at_one == 1 and lo_inside and hi_inside:
            return "N"
        return "other"
    if not decrease and not any(r.sign_change for r in fixed):
        return "monotone-no-interior-fixed-point"
    return "other"


# ---------------------------------------------------------------------------
# sparse-decrease threshold and witnesses

@dataclass(frozen=True)
class SparseDecreaseCheck:
    applicable: bool
    m: int
    n: int
    point: Fraction | None
    deriv_value: Fraction | None

    @property
    def decreasing_at_point(self) -> bool | None:
        if self.deriv_value is None:
            return None
        return self.deriv_value < 0


def check_sparse_decrease(g: Graph, f1: tuple[int, ...]) -> SparseDecreaseCheck:
    """For graphs with m <= 0.0851 n^2 (and n >= 2), evaluate f' exactly at
    p = 1.729474372/n; sparseness guarantees a negative value there, hence an
    interval of decrease.  ``f1`` is the power-basis f' of g."""
    n, m = g.n, g.m
    applicable = n >= 2 and m * SPARSE_THRESHOLD_DEN <= SPARSE_THRESHOLD_NUM * n * n
    if not applicable:
        return SparseDecreaseCheck(False, m, n, None, None)
    point = R_HAT / n
    value = eval_exact(f1, point)
    return SparseDecreaseCheck(True, m, n, point, value)


def maximize_threshold_constant() -> tuple[float, float]:
    """Maximize f(r) = (r-1) / (2r + 1 + (r-1) e^r) on (1, 3).

    The maximizer is found by bisecting the sign of f' (as the numerator of
    the quotient-rule derivative), which keeps the argument accurate to
    machine precision rather than the square-root-of-epsilon a direct search
    would give.
    """

    def f(r: float) -> float:
        return (r - 1.0) / (2.0 * r + 1.0 + (r - 1.0) * math.exp(r))

    def dsign(r: float) -> float:
        # sign of f'(r): D - (r-1) D' with D the denominator
        den = 2.0 * r + 1.0 + (r - 1.0) * math.exp(r)
        return den - (r - 1.0) * (2.0 + r * math.exp(r))

    lo, hi = 1.0, 3.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if dsign(mid) > 0:
            lo = mid
        else:
            hi = mid
    r_hat = (lo + hi) / 2.0
    return r_hat, f(r_hat)


@dataclass(frozen=True)
class FixedPointWitness:
    applicable: bool  # requires a 2-connected graph
    max_degree: int
    point: Fraction | None
    value: Fraction | None

    @property
    def below(self) -> bool:
        return self.value is not None and self.value < self.point


def check_fixed_point_witness(g: Graph, poly: ReliabilityPoly) -> FixedPointWitness:
    """Compare f(1/D^2) with 1/D^2 for maximum degree D.

    For a 2-connected graph, f' is n at 0 and 0 at 1, so f starts and ends
    above the identity on (0,1); a value below 1/D^2 at p = 1/D^2 therefore
    certifies at least two interior fixed points.  The comparison is recorded
    either way (small graphs may fail it); edgeless graphs have no evaluation
    point.  ``poly`` is f, the reliability polynomial of g.
    """
    max_degree = max(g.degrees())
    if max_degree == 0:
        return FixedPointWitness(False, 0, None, None)
    point = Fraction(1, max_degree * max_degree)
    value = eval_exact(poly, point)
    return FixedPointWitness(is_two_connected(g), max_degree, point, value)
