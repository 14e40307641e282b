"""Exact node-reliability polynomials.

The node reliability of a graph on n vertices, each operating independently
with probability p, is the probability that the operating vertices are
nonempty and induce a connected subgraph:

    nRel(p) = sum_k c_k p^k (1-p)^(n-k)

with c_k the number of connected k-sets.  This module expands that c-form
into the ordinary power basis exactly (integer coefficients) by Horner's
scheme in (1-p) on one integer that packs every coefficient into a B-bit
digit, B = max|c|.bit_length() + n + 2 (``expand_c_form`` proves that B is
wide enough).  It also provides exact differentiation and evaluation at
rational points, the second-derivative coefficients d_k as a plain tuple,
and a seeded Monte Carlo estimator used as an end-to-end cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .connsets import ConnSetProfile
from .graphs import Graph, mask_is_connected
from .sturm import InternalCheckError, diff_int, horner_ratio

_PASCAL_ROWS: list[tuple[int, ...]] = [(1,)]


def one_minus_p_power(k):
    """(1-p)^k as power-basis coefficients: row k of the signed Pascal
    triangle, each row built once from the one before and shared.
    ``verification.closed_form`` builds its closed forms from these rows,
    independently of ``expand_c_form``."""
    while len(_PASCAL_ROWS) <= k:
        row = _PASCAL_ROWS[-1]
        _PASCAL_ROWS.append((1, *(b - a for a, b in zip(row, row[1:])), -row[-1]))
    return _PASCAL_ROWS[k]


def expand_c_form(c, n):
    """Power-basis coefficients of sum_k c[k] p^k (1-p)^(n-k), for c of
    length n + 1.

    Horner's scheme in (1 - p) on packed integers (Kronecker substitution,
    p = 2^B): a polynomial is held as the one integer sum_i a_i 2^(B i), so
    multiplying by (1 - p) is ``acc - (acc << B)`` and adding c[k] p^k is
    adding ``c[k] << B k``.  The integer is exact whatever its digits; only
    reading the digits back needs each coefficient to fit.  By the
    hockey-stick identity, |coeff_i| <= max|c| sum_k C(n-k, i-k) =
    max|c| C(n+1, i) < max|c| 2^(n+1) < 2^(B-1) for
    B = max|c|.bit_length() + n + 2, so the n + 1 digits read back as signed
    B-bit integers are the coefficients.
    """
    return _expand_packed(c, n, max(map(abs, c), default=0).bit_length() + n + 2)


def _expand_packed(c, n, width):
    acc = 0
    for k, ck in enumerate(c):
        acc = acc - (acc << width) + (ck << width * k)
    half = 1 << width - 1
    acc += half * (((1 << width * (n + 1)) - 1) // ((1 << width) - 1))  # each digit + half
    mask = (1 << width) - 1
    return [(acc >> width * i & mask) - half for i in range(n + 1)]


@dataclass(frozen=True)
class ReliabilityPoly:
    """Node-reliability polynomial in the power basis.

    ``coeffs[i]`` is the exact coefficient of p^i, ``n`` the order of the
    source graph.  The originating profile is retained when known so that the
    coefficient forms of the derivatives can be cross-checked on demand.
    """

    n: int
    coeffs: tuple[int, ...]
    c_source: ConnSetProfile | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError("need n+1 power coefficients")
        if self.coeffs[0] != 0:
            raise ValueError("node reliability vanishes at p=0")
        total = sum(self.coeffs)
        if total not in (0, 1):
            raise ValueError(f"value at p=1 must be 0 or 1, got {total}")

    @property
    def value_at_one(self) -> int:
        return sum(self.coeffs)


def from_profile(profile: ConnSetProfile) -> ReliabilityPoly:
    coeffs = expand_c_form(profile.c, profile.n)
    return ReliabilityPoly(profile.n, tuple(coeffs), profile)


def derivative(poly: ReliabilityPoly) -> tuple[int, ...]:
    """Formal first derivative; cross-checked, when the source profile is
    available, against the c-form of degree n-1 of e_k = k c_k - (n-k+1)
    c_{k-1}: f' = sum_k e_k p^(k-1) (1-p)^(n-k)."""
    formal = tuple(diff_int(poly.coeffs))
    if poly.c_source is not None:
        n, c = poly.c_source.n, poly.c_source.c
        e = [k * c[k] - (n - k + 1) * c[k - 1] for k in range(1, n + 1)]
        if list(formal) != expand_c_form(e, n - 1):
            raise InternalCheckError("derivative coefficient form mismatch")
    return formal


def d_coefficients(profile: ConnSetProfile) -> tuple[int, ...]:
    """d_1..d_{n-1}, with d_k at index k - 1, such that
    f''(p) = sum_k d_k p^(k-1) (1-p)^(n-k-1):
    d_k = (k+1)k c_{k+1} - 2k(n-k) c_k + (n-k+1)(n-k) c_{k-1}."""
    n, c = profile.n, profile.c
    return tuple(
        (k + 1) * k * c[k + 1] - 2 * k * (n - k) * c[k] + (n - k + 1) * (n - k) * c[k - 1]
        for k in range(1, n)
    )


def second_derivative(poly: ReliabilityPoly) -> tuple[int, ...]:
    """Formal second derivative; cross-checked, when the source profile is
    available, against the c-form of degree n-2 of d_1..d_{n-1}."""
    formal = tuple(diff_int(diff_int(poly.coeffs)))
    if (poly.c_source is not None
            and list(formal) != expand_c_form(d_coefficients(poly.c_source), poly.n - 2)):
        raise InternalCheckError("second-derivative coefficient form mismatch")
    return formal


def eval_exact(poly, p) -> Fraction:
    """Value at an exact point (an int, Fraction or float): integer Horner
    on the numerator and denominator of p, one Fraction at the end."""
    coeffs = poly.coeffs if isinstance(poly, ReliabilityPoly) else poly
    num, den = p.as_integer_ratio()
    return Fraction(horner_ratio(coeffs, num, den), den ** max(len(coeffs) - 1, 0))


def sample(poly, count: int) -> list[tuple[Fraction, Fraction]]:
    """``count`` uniformly spaced exact samples on [0,1], endpoints included."""
    if count < 2:
        raise ValueError("need at least 2 sample points")
    coeffs = poly.coeffs if isinstance(poly, ReliabilityPoly) else poly
    den = count - 1
    scale = den ** max(len(coeffs) - 1, 0)
    return [(Fraction(i, den), Fraction(horner_ratio(coeffs, i, den), scale))
            for i in range(count)]


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    trials: int
    successes: int


def monte_carlo_estimate(g: Graph, p: float, trials: int, seed: int) -> MonteCarloEstimate:
    """Simulate independent vertex survival and check induced connectivity.

    Bit t of a vertex's ``trials``-bit word is its survival in trial t, set
    with probability exactly p = num / 2^k: one ``getrandbits(trials)`` per
    binary digit of num, lowest first, is ORed in for a 1, ANDed for a 0.
    Splitting the trials on these words vertex by vertex tests each distinct
    surviving set once.  Cost: n k draws and word operations per split node.
    Deterministic under a fixed seed; the random stream is not a contract.
    """
    if trials < 1 or not 0 <= p <= 1:  # NaN fails the range test too
        raise ValueError(f"need trials >= 1 and 0 <= p <= 1, got {trials}, {p}")
    draw = random.Random(seed).getrandbits
    num, den = float(p).as_integer_ratio()
    full = (1 << trials) - 1
    alive = []
    for _ in range(g.n):
        word = full if num == den else 0
        for i in range(den.bit_length() - 1):
            word = word | draw(trials) if num >> i & 1 else word & draw(trials)
        alive.append(word)
    successes, stack = 0, [(0, 0, full)]  # (next vertex, surviving set, its trials)
    while stack:
        v, mask, where = stack.pop()
        if where and v < g.n:
            on = where & alive[v]
            stack += (v + 1, mask | 1 << v, on), (v + 1, mask, where ^ on)
        elif where and mask_is_connected(g.adj, mask):
            successes += where.bit_count()
    mean = successes / trials
    stderr = sqrt(mean * (1.0 - mean) / trials)
    return MonteCarloEstimate(mean, stderr, trials, successes)
