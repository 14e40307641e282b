"""The full verification suite behind ``relshape verify``.

Each check pins one quantitative claim the package is built around: exact
census counts, decrease-interval endpoints, threshold constants, coefficient
identities and bounds, family closed forms, shape theorems on their witness
families, and a seeded Monte Carlo cross-check.  A check fails when no graph
or case applies, so none passes vacuously.  Checks are pure functions of one
shared ``census.CensusCache``, so the CLI and the acceptance test suite run
exactly the same code, and a run counts each graph and analyzes each
distinct profile once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .census import CensusCache, generate_connected, generate_trees
from .connsets import (
    check_coefficient_identities,
    family_profile,
    first_bound_violation,
    first_sperner_violation,
)
from .graphs import (
    FamilySpec,
    Graph,
    canonical_graph,
    cut_vertices,
    is_complete,
    is_two_connected,
    make_family,
    parse_edge_list,
    to_graph6,
)
from .poly import (
    ReliabilityPoly,
    d_coefficients,
    derivative,
    eval_exact,
    from_profile,
    monte_carlo_estimate,
    one_minus_p_power,
    second_derivative,
)
from .shape import (
    DEFAULT_TOL,
    SPARSE_THRESHOLD_DEN,
    SPARSE_THRESHOLD_NUM,
    check_fixed_point_witness,
    check_sparse_decrease,
    isolate_roots,
    maximize_threshold_constant,
)
from .sturm import sign_at

# the unique connected graph of order <= 7 whose reliability has three
# inflection points (0-based edge list)
THREE_INFLECTION_ORDER7 = "7 0 4 0 5 0 6 1 4 1 6 2 5 2 6 3 6 4 5"

CENSUS_EXPECTED = {
    6: {"total": 112, "decrease": 37, "three_inflections": 0, "budget_s": 10.0,
        "inflection_histogram": {0: 14, 1: 48, 2: 50},
        "fixed_point_histogram": {0: 80, 1: 31, 2: 1},
        "class_histogram": {"N": 37, "monotone-no-interior-fixed-point": 75}},
    7: {"total": 853, "decrease": 383, "three_inflections": 1, "budget_s": 60.0,
        "inflection_histogram": {0: 67, 1: 290, 2: 495, 3: 1},
        "fixed_point_histogram": {0: 609, 1: 233, 2: 11},
        "class_histogram": {"N": 383, "monotone-no-interior-fixed-point": 470}},
    8: {"total": 11117, "decrease": 5211, "three_inflections": 84, "budget_s": 1800.0,
        "inflection_histogram": {0: 483, 1: 2614, 2: 7936, 3: 84},
        "fixed_point_histogram": {0: 8486, 1: 2457, 2: 174},
        "class_histogram": {"N": 5211, "monotone-no-interior-fixed-point": 5906}},
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _census_check(cache: CensusCache, n: int) -> CheckResult:
    expected = CENSUS_EXPECTED[n]
    summary, elapsed = cache.summary(n)
    three = summary.inflection_histogram.get(3, 0)
    problems = [f"{label} {actual} != {expected[key]}" for key, label, actual in (
        ("total", "total", summary.total_connected),
        ("decrease", "decrease", summary.with_decrease),
        ("three_inflections", "three-inflection count", three),
    ) if actual != expected[key]]
    problems += [f"{key.replace('_', ' ')} {getattr(summary, key)} != {expected[key]}"
                 for key in ("inflection_histogram", "fixed_point_histogram", "class_histogram")
                 if getattr(summary, key) != expected[key]]
    if n == 7 and three == 1:
        reference = to_graph6(canonical_graph(parse_edge_list(THREE_INFLECTION_ORDER7)))
        exemplar = summary.exemplars.get("inflections=3", ())
        if tuple(exemplar) != (reference,):
            problems.append(f"three-inflection exemplar {exemplar} != {reference}")
    if elapsed >= expected["budget_s"]:
        problems.append(f"elapsed {elapsed:.1f}s over budget {expected['budget_s']:.0f}s")
    detail = (f"{summary.with_decrease}/{summary.total_connected} decrease, "
              f"{three} with 3 inflections, {elapsed:.1f}s")
    return CheckResult(f"census-order-{n}", not problems,
                       detail if not problems else "; ".join(problems))


def check_census_order_6(cache):
    return _census_check(cache, 6)


def check_census_order_7(cache):
    return _census_check(cache, 7)


def check_census_order_8(cache):
    return _census_check(cache, 8)


def _signs(coeffs, points) -> list[int]:
    return [sign_at(coeffs, *x.as_integer_ratio()) for x in points]


def check_path6_decrease_endpoints(cache):
    """The one decrease interval of P6 ends within 5e-5 of 0.2137 and
    0.5851: each end is a bracket of a root of f' no wider than the
    tolerance, lying within 5e-5 of its value, across which f' changes
    sign.  The decrease count and f' come from the cache's one analysis of
    P6; f' starts and ends positive, so its two crossings, as
    ``isolate_roots`` brackets them, are the ends."""
    shape = cache.shape(family_profile(FamilySpec("path", (6,))))
    crossings = [r for r in isolate_roots(shape.f1) if r.sign_change]
    ends = tuple(crossings) if shape.decreases == 1 and len(crossings) == 2 else ()
    problems = [] if ends else [f"{shape.decreases} decrease intervals, "
                                f"{len(crossings)} sign changes of f'"]
    slack = Fraction(5, 10**5)
    for root, target in zip(ends, (Fraction(2137, 10**4), Fraction(5851, 10**4))):
        signs = _signs(shape.f1, (root.lo, root.hi))
        if not (root.hi - root.lo <= DEFAULT_TOL and signs[0] == -signs[1] != 0
                and target - slack <= root.lo and root.hi <= target + slack):
            problems.append(f"end [{float(root.lo):.10f}, {float(root.hi):.10f}], "
                            f"f' signs {signs}: not a sign change "
                            f"within tol and within 5e-5 of {float(target)}")
    detail = "one decrease interval, f' changes sign within 5e-5 of 0.2137 and of 0.5851"
    return CheckResult("path6-decrease-endpoints", not problems,
                       "; ".join(problems) or detail)


def check_threshold_constants(cache):
    r_hat, f_hat = maximize_threshold_constant()
    ok = abs(r_hat - 1.729474372) <= 1e-8 and abs(f_hat - 0.08510464442) <= 1e-9
    return CheckResult("sparse-threshold-constants", ok,
                       f"argmax {r_hat:.10f}, maximum {f_hat:.12f}")


# -- power-basis closed forms, an oracle independent of the profile route ----
# (coefficient lists, lowest degree first)

def poly_add(a, b):
    out = list(a) + [0] * (len(b) - len(a)) if len(a) < len(b) else list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly_scale(a, s):
    return [s * x for x in a]


def poly_shift(a, k):
    """Multiply by p^k."""
    return [0] * k + list(a)


def closed_form(spec: FamilySpec) -> ReliabilityPoly:
    """Directly expanded closed forms.

    complete(n):             1 - (1-p)^n
    empty(n):                n p (1-p)^(n-1)
    star(n):                 p + (n-1) p (1-p)^(n-1)
    complete-bipartite(n,n): 1 - 2(1-p)^n + 2n p (1-p)^(2n-1) + (1-p)^(2n)
    bonded-complete-leaf(n): 1 - p(1-p) + p(1-p)^(n-1) - (1-p)^n
    """
    kind = spec.kind
    if kind == "complete":
        n = spec.params[0]
        coeffs = poly_add([1], poly_scale(one_minus_p_power(n), -1))
    elif kind == "empty":
        n = spec.params[0]
        coeffs = poly_shift(poly_scale(one_minus_p_power(n - 1), n), 1)
    elif kind == "star":
        n = spec.params[0]
        coeffs = poly_add([0, 1], poly_shift(poly_scale(one_minus_p_power(n - 1), n - 1), 1))
    elif kind == "complete-bipartite":
        a, b = spec.params
        if a != b:
            raise ValueError("closed form available for balanced complete bipartite only")
        n = 2 * a
        coeffs = poly_add([1], poly_scale(one_minus_p_power(a), -2))
        coeffs = poly_add(coeffs, poly_shift(poly_scale(one_minus_p_power(n - 1), n), 1))
        coeffs = poly_add(coeffs, one_minus_p_power(n))
    elif kind == "bonded-complete-leaf":
        n = spec.params[0]
        coeffs = poly_add([1, -1, 1], poly_shift(one_minus_p_power(n - 1), 1))
        coeffs = poly_add(coeffs, poly_scale(one_minus_p_power(n), -1))
    else:
        raise ValueError(f"no closed form for family kind {kind!r}")
    n = spec.order
    coeffs = coeffs + [0] * (n + 1 - len(coeffs))
    return ReliabilityPoly(n, tuple(coeffs))


def _closed_form_specs():
    specs = []
    for n in range(1, 13):
        specs.append(FamilySpec("complete", (n,)))
        specs.append(FamilySpec("empty", (n,)))
    for n in range(2, 13):
        specs.append(FamilySpec("star", (n,)))
        specs.append(FamilySpec("bonded-complete-leaf", (n,)))
    for a in range(1, 7):
        specs.append(FamilySpec("complete-bipartite", (a, a)))
    return specs


def check_closed_form_equivalence(cache):
    return _cases("closed-form-equivalence",
                  [(spec.label(), closed_form(spec).coeffs
                    == from_profile(cache.profile(make_family(spec))).coeffs)
                   for spec in _closed_form_specs()],
                  "{total} family instances coefficient-exact", "mismatch: ")


def _census_graphs() -> list[Graph]:
    """Every census graph of orders 2..7."""
    return [g for n in range(2, 8) for g in generate_connected(n)]


def _sweep(name: str, graphs, holds, detail: str) -> CheckResult:
    """Check ``holds`` on every graph; fails when there is none."""
    bad = sum(1 for g in graphs if not holds(g))
    return CheckResult(name, bool(graphs) and bad == 0,
                       detail.format(total=len(graphs), bad=bad))


def _cases(name: str, cases, passed: str, failed: str) -> CheckResult:
    """Check labelled (label, holds) cases; fails when one does not hold or
    there is none, with ``failed`` followed by the failing labels."""
    bad = [label for label, holds in cases if not holds]
    ok = bool(cases) and not bad
    return CheckResult(name, ok, passed.format(total=len(cases)) if ok
                       else failed + ", ".join(bad))


def check_coefficient_identities_sweep(cache):
    return _sweep("coefficient-identities-sweep", _census_graphs(),
                  lambda g: all(item.passed
                                for item in check_coefficient_identities(g, cache.profile(g))),
                  "{total} census graphs orders 2..7, {bad} failures")


def check_coefficient_bounds_sweep(cache):
    return _sweep("coefficient-bounds-sweep", _census_graphs(),
                  lambda g: first_bound_violation(cache.profile(g)) is None,
                  "{total} census graphs orders 2..7, {bad} failures")


def check_early_concavity_sweep(cache):
    return _sweep("early-concavity-sweep", _census_graphs(),
                  lambda g: d_coefficients(cache.profile(g))[0] <= -g.n * (g.n - 1),
                  "d_1 <= -n(n-1) on {total} census graphs, {bad} failures")


def check_endpoint_derivative_sweep(cache):
    def holds(g):
        d1 = cache.shape(cache.profile(g), g).f1
        return eval_exact(d1, 0) == g.n and eval_exact(d1, 1) == len(cut_vertices(g))

    return _sweep("endpoint-derivative-sweep", _census_graphs(), holds,
                  "f'(0)=n and f'(1)=cut count on {total} census graphs, {bad} failures")


def check_sperner_sweep(cache):
    return _sweep("sperner-failure-sweep", _census_graphs(),
                  lambda g: (first_sperner_violation(cache.profile(g)) is None) == is_complete(g),
                  "failure iff non-complete on {total} census graphs, {bad} failures")


def check_late_concavity_two_connected(cache):
    graphs = [g for g in _census_graphs() if is_two_connected(g)]
    return _sweep("late-concavity-two-connected-sweep", graphs,
                  lambda g: cache.shape(cache.profile(g), g).concavity_near_1 == -1,
                  "{total} 2-connected census graphs concave down near 1, {bad} failures")


SPARSE_DECREASE_SEED = 1


def sparse_decrease_graphs() -> list[Graph]:
    """One seeded sparse connected graph per order n = 11..24.

    A connected graph has m >= n - 1, so m <= 0.0851 n^2 needs n >= 11 and
    no census graph (order <= 8) falls under the threshold.  Each graph is a
    random recursive spanning tree plus a random number of extra edges, up
    to the most the threshold allows.
    """
    rng = random.Random(SPARSE_DECREASE_SEED)
    out = []
    for n in range(11, 25):
        adj = [0] * n
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        extra = rng.randint(0, SPARSE_THRESHOLD_NUM * n * n // SPARSE_THRESHOLD_DEN - (n - 1))
        while extra:
            u, v = rng.sample(range(n), 2)
            if not adj[u] >> v & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                extra -= 1
        out.append(Graph(n, tuple(adj)))
    return out


def check_sparse_decrease_census(cache):
    shapes = {g: cache.shape(cache.profile(g), g) for g in sparse_decrease_graphs()}
    checks = {g: check_sparse_decrease(g, shape.f1) for g, shape in shapes.items()}
    return _sweep("sparse-decrease-census", [g for g, chk in checks.items() if chk.applicable],
                  lambda g: checks[g].deriv_value < 0 and shapes[g].decreases,
                  "{total} seeded sparse graphs of orders 11..24 under the density threshold, "
                  "{bad} failures")


def check_sparse_decrease_instances(cache):
    def holds(spec):
        shape = cache.shape(family_profile(spec))
        chk = check_sparse_decrease(make_family(spec), shape.f1)
        return chk.applicable and chk.deriv_value < 0 and shape.decreases

    specs = ([FamilySpec("cycle", (n,)) for n in range(12, 17)]
             + [FamilySpec("path", (n,)) for n in range(11, 17)])
    return _cases("sparse-decrease-instances", [(spec.label(), holds(spec)) for spec in specs],
                  "{total} sparse family instances decrease", "failed: ")


def check_sparse_two_inflections(cache):
    specs = [FamilySpec("cycle", (n,)) for n in range(12, 17)]
    return _cases("sparse-two-inflection-instances",
                  [(spec.label(), cache.shape(family_profile(spec)).inflections >= 2)
                   for spec in specs],
                  "sparse 2-connected cycles n=12..16 all have >= 2 inflections", "failed: ")


def check_tree_inflections(cache):
    trees = [tree for n in range(4, 9) for tree in generate_trees(n)]
    return _sweep("tree-inflection-sweep", trees,
                  lambda t: cache.shape(cache.profile(t), t).inflections >= 1,
                  "{total} trees of orders 4..8, {bad} without an inflection")


def check_two_cut_fixed_point(cache):
    graphs = [g for g in _census_graphs() if len(cut_vertices(g)) >= 2]
    return _sweep("two-cut-fixed-point-sweep", graphs,
                  lambda g: cache.shape(cache.profile(g), g).fixed_points >= 1,
                  "{total} census graphs with >= 2 cut vertices, {bad} without a fixed point")


def check_clique_leaf_decreasing(cache):
    def holds(n):
        f1 = derivative(closed_form(FamilySpec("bonded-complete-leaf", (n,))))
        return eval_exact(f1, Fraction(2, 5)) < 0

    return _cases("clique-leaf-decreasing-at-2-5", [(str(n), holds(n)) for n in range(7, 21)],
                  "f'(2/5) < 0 exactly for orders 7..20", "nonnegative at n: ")


def check_star_single_inflection(cache):
    """Each star has one inflection, and f'' changes sign within
    ``DEFAULT_TOL`` of 2/n, so that is where it lies."""
    def holds(n):
        profile = family_profile(FamilySpec("star", (n,)))
        target = Fraction(2, n)
        below, above = _signs(second_derivative(from_profile(profile)),
                              (target - DEFAULT_TOL, target + DEFAULT_TOL))
        return cache.shape(profile).inflections == 1 and below * above < 0

    return _cases("star-single-inflection", [(str(n), holds(n)) for n in range(4, 21)],
                  "stars n=4..20 have exactly one inflection bracketing 2/n", "failed at n: ")


def check_star_union_m_shape(cache):
    def holds(n):
        shape = cache.shape(family_profile(FamilySpec(
            "disjoint-union", parts=(FamilySpec("star", (n,)), FamilySpec("complete", (1,))))))
        return shape.decreases == 2 and shape.shape_class == "M"

    return _cases("star-union-m-shape", [(str(n), holds(n)) for n in range(12, 21)],
                  "star plus isolated vertex has exactly two decrease intervals, n=12..20",
                  "failed at n: ")


def check_cycle50_fixed_points(cache):
    profile = family_profile(FamilySpec("cycle", (50,)))
    g = make_family(FamilySpec("cycle", (50,)))
    witness = check_fixed_point_witness(g, from_profile(profile))
    fixed_points = cache.shape(profile).fixed_points
    ok = witness.applicable and witness.below and fixed_points >= 2
    return CheckResult("cycle50-fixed-points", ok,
                       f"f(1/4) {'<' if witness.below else '>='} 1/4, "
                       f"{fixed_points} fixed points")


MONTE_CARLO_TRIALS = 25000

MONTE_CARLO_CASES = [
    (FamilySpec("complete", (5,)), 0.5, 1001),
    (FamilySpec("complete", (5,)), 0.2, 1002),
    (FamilySpec("path", (6,)), 0.4, 1003),
    (FamilySpec("path", (6,)), 0.7, 1004),
    (FamilySpec("cycle", (6,)), 0.3, 1005),
    (FamilySpec("cycle", (6,)), 0.6, 1006),
    (FamilySpec("star", (6,)), 0.35, 1007),
    (FamilySpec("star", (6,)), 0.65, 1008),
    (FamilySpec("complete-bipartite", (3, 3)), 0.45, 1009),
    (FamilySpec("complete-bipartite", (2, 4)), 0.55, 1010),
    (FamilySpec("bonded-complete-leaf", (8,)), 0.4, 1011),
    (FamilySpec("bonded-complete-leaf", (8,)), 0.75, 1012),
    (FamilySpec("empty", (5,)), 0.25, 1013),
    (FamilySpec("empty", (5,)), 0.5, 1014),
    (FamilySpec("path", (4,)), 0.5, 1015),
    (FamilySpec("cycle", (5,)), 0.5, 1016),
    (FamilySpec("disjoint-union", parts=(FamilySpec("star", (5,)),
                                         FamilySpec("complete", (1,)))), 0.4, 1017),
    (FamilySpec("disjoint-union", parts=(FamilySpec("path", (3,)),
                                         FamilySpec("path", (3,)))), 0.6, 1018),
    (FamilySpec("complete", (7,)), 0.3, 1019),
    (FamilySpec("star", (8,)), 0.5, 1020),
]


def check_monte_carlo(cache):
    def holds(spec, p, seed):
        g = make_family(spec)
        exact = float(eval_exact(from_profile(cache.profile(g)), Fraction(p)))
        est = monte_carlo_estimate(g, p, MONTE_CARLO_TRIALS, seed)
        # the standard error of the exact value, not of the estimate: the
        # estimate's own error is 0 when no trial (or every trial) succeeds
        stderr = sqrt(exact * (1.0 - exact) / MONTE_CARLO_TRIALS)
        return abs(est.mean - exact) <= 4.0 * stderr + 1e-12

    return _cases("monte-carlo-crosscheck",
                  [(f"{spec.label()}@p={p}", holds(spec, p, seed))
                   for spec, p, seed in MONTE_CARLO_CASES],
                  "{total} seeded runs within 4 standard errors", "outliers: ")


DEFAULT_CHECKS = [
    ("census-order-6", check_census_order_6),
    ("census-order-7", check_census_order_7),
    ("path6-decrease-endpoints", check_path6_decrease_endpoints),
    ("sparse-threshold-constants", check_threshold_constants),
    ("closed-form-equivalence", check_closed_form_equivalence),
    ("coefficient-identities-sweep", check_coefficient_identities_sweep),
    ("coefficient-bounds-sweep", check_coefficient_bounds_sweep),
    ("early-concavity-sweep", check_early_concavity_sweep),
    ("endpoint-derivative-sweep", check_endpoint_derivative_sweep),
    ("sperner-failure-sweep", check_sperner_sweep),
    ("late-concavity-two-connected-sweep", check_late_concavity_two_connected),
    ("sparse-decrease-census", check_sparse_decrease_census),
    ("sparse-decrease-instances", check_sparse_decrease_instances),
    ("sparse-two-inflection-instances", check_sparse_two_inflections),
    ("tree-inflection-sweep", check_tree_inflections),
    ("two-cut-fixed-point-sweep", check_two_cut_fixed_point),
    ("clique-leaf-decreasing-at-2-5", check_clique_leaf_decreasing),
    ("star-single-inflection", check_star_single_inflection),
    ("star-union-m-shape", check_star_union_m_shape),
    ("cycle50-fixed-points", check_cycle50_fixed_points),
    ("monte-carlo-crosscheck", check_monte_carlo),
]

SLOW_CHECKS = [("census-order-8", check_census_order_8)]


def run_checks(slow: bool = False, only: str | None = None) -> list[CheckResult]:
    cache = CensusCache()
    checks = DEFAULT_CHECKS + (SLOW_CHECKS if slow else [])
    results = []
    for name, check in checks:
        if only and only not in name:
            continue
        results.append(check(cache))
    return results
