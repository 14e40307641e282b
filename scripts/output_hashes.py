#!/usr/bin/env python3
"""Print sha256 hashes of exact analysis outputs, to show that a change
leaves them byte for byte as they were.

Usage: python scripts/output_hashes.py [--max-order 8]

Run it in two checkouts and compare the output; any difference names the
input group and tolerance that moved.  Each line hashes the ``repr`` of
every result of one group at one tolerance (1e-9, 1/7 and 1):

* ``census-order-N``: ``analyze_profile`` of the distinct connected-set
  profiles of the connected graphs of order N, for N = 2 .. --max-order;
* ``families-large``: ``analyze_profile`` of the closed-form profiles of
  the benchmark's family selectors;
* ``sparse-pool``: ``analyze_profile`` of the counted profiles of the
  benchmark's sparse graphs;
* ``planted-roots``: ``isolate_roots`` of seeded polynomials with planted
  rational roots of multiplicity 1 to 3, some at 0 and 1, times quadratics
  without real roots;
* ``gap-pairs``: ``isolate_roots`` of seeded polynomials with a root at 0,
  at 1 or at both, a conjugate pair within 1/4 of each such end and
  planted roots elsewhere, so that the gap pulled in from the end has a
  positive Descartes bound;
* ``shape-checks``, one line with no tolerance: ``check_sparse_decrease``
  and ``check_fixed_point_witness`` of every census graph and every sparse
  graph above, each handed f' or f by keyword.

The selectors and sparse graphs are read from ``perfbench/expected.json``,
which is not written.
"""

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relshape.census import generate_connected  # noqa: E402
from relshape.cli import parse_family  # noqa: E402
from relshape.connsets import count_connected_sets, family_profile  # noqa: E402
from relshape.graphs import parse_graph6  # noqa: E402
from relshape.poly import derivative, from_profile  # noqa: E402
from relshape.shape import (  # noqa: E402
    analyze_profile,
    check_fixed_point_witness,
    check_sparse_decrease,
    isolate_roots,
)

TOLS = (Fraction(1, 10**9), Fraction(1, 7), Fraction(1))
PLANTED = 1000  # planted-root polynomials
GAP_PAIRS = 300  # gap-pair polynomials
SEED = 20240601


def planted_polynomial(rng: random.Random) -> list[int]:
    coeffs = [rng.choice([-3, -1, 1, 2, 5])]
    roots = {Fraction(rng.randint(-6, 20), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))}
    for root in sorted(roots):
        for _ in range(rng.randint(1, 3)):
            coeffs = multiply(coeffs, [-root.numerator, root.denominator])
    for _ in range(rng.randint(0, 2)):  # s^2 < 4t: no real root
        t = rng.randint(1, 9)
        s = rng.randint(-4, 4)
        if s * s < 4 * t:
            coeffs = multiply(coeffs, [t, s, 1])
    return coeffs


def gap_pair_polynomial(rng: random.Random) -> list[int]:
    coeffs = planted_polynomial(rng)
    for end in rng.choice([(0,), (1,), (0, 1)]):
        # (x - u)^2 + 1/s^2, u within 1/4 of the end, times (u.den s)^2
        u = Fraction(rng.randint(1, 24), 100)
        u = 1 - u if end else u
        s = rng.choice([20, 100, 1000])
        a, b = u.numerator * s, u.denominator * s
        coeffs = multiply(coeffs, [a * a + u.denominator ** 2, -2 * a * b, b * b])
        coeffs = multiply(coeffs, [-end, 1])
    return coeffs


def multiply(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def groups(max_order: int, counted: list):
    """(name, profiles or None, polynomials or None) per input group; the
    (graph, profile) pairs of the census and sparse graphs go to ``counted``."""
    for n in range(2, max_order + 1):
        pairs = [(g, count_connected_sets(g)) for g in generate_connected(n)]
        counted += pairs
        yield f"census-order-{n}", sorted({p for _, p in pairs}, key=lambda p: p.c), None
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    yield "families-large", [family_profile(parse_family(s))
                             for s in sorted(expected["families"])], None
    pairs = [(g, count_connected_sets(g))
             for g in map(parse_graph6, sorted(expected["sparse_pool"]))]
    counted += pairs
    yield "sparse-pool", [p for _, p in pairs], None
    rng = random.Random(SEED)
    yield "planted-roots", None, [planted_polynomial(rng) for _ in range(PLANTED)]
    rng = random.Random(SEED + 1)
    yield "gap-pairs", None, [gap_pair_polynomial(rng) for _ in range(GAP_PAIRS)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-order", type=int, default=8,
                        help="largest census order hashed (2..8, default 8)")
    args = parser.parse_args(argv)
    if not 2 <= args.max_order <= 8:
        parser.error("--max-order must be in 2..8")
    counted = []
    for name, profiles, polys in groups(args.max_order, counted):
        for tol in TOLS:
            digest = hashlib.sha256()
            if profiles is not None:
                for profile in profiles:
                    digest.update(repr(analyze_profile(profile, tol)).encode())
                count = len(profiles)
            else:
                for coeffs in polys:
                    digest.update(repr(isolate_roots(coeffs, tol)).encode())
                count = len(polys)
            print(f"{name} tol={tol} inputs={count} sha256={digest.hexdigest()}")
    digest, polys = hashlib.sha256(), {}
    for g, profile in counted:
        if profile not in polys:
            poly = from_profile(profile)
            polys[profile] = poly, derivative(poly)
        poly, f1 = polys[profile]
        digest.update(repr(check_sparse_decrease(g, f1=f1)).encode())
        digest.update(repr(check_fixed_point_witness(g, poly=poly)).encode())
    print(f"shape-checks inputs={len(counted)} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
