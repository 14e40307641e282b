from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, families_large_digests
from relshape import shape
from relshape.census import generate_connected
from relshape.cli import parse_family
from relshape.connsets import count_connected_sets, family_profile, profile_disjoint_union
from relshape.graphs import FamilySpec, is_two_connected, make_family, parse_edge_list
from relshape.poly import derivative, eval_exact, from_profile, second_derivative
from relshape.shape import (
    Interval,
    _decrease_intervals,
    analyze_profile,
    check_fixed_point_witness,
    check_sparse_decrease,
    isolate_roots,
    maximize_threshold_constant,
)
from relshape.sturm import ZeroPolynomialError, descartes_transform
from strategies import mul, polys_with_known_roots
from sturm_oracle import sign_at_point, sturm_only_isolation

TOLS = (Fraction(1, 10**9), Fraction(1, 7), Fraction(1, 2**40))


def fam(kind, *params):
    return FamilySpec(kind, tuple(params))


def poly_of(spec):
    return from_profile(family_profile(spec))


def f1_of(spec):
    return derivative(poly_of(spec))


# -- root isolation ----------------------------------------------------------------

def test_no_roots_in_open_interval():
    assert isolate_roots([0, -1, 1]) == []  # p^2 - p vanishes only at endpoints


def test_even_multiplicity_root():
    records = isolate_roots([1, -6, 9])  # (3p-1)^2
    assert len(records) == 1
    record = records[0]
    assert not record.sign_change
    assert record.lo <= Fraction(1, 3) <= record.hi


def test_zero_polynomial_signals():
    with pytest.raises(ZeroPolynomialError):
        isolate_roots([0, 0, 0])


def test_constant_polynomial_has_no_roots():
    assert isolate_roots([5]) == []


@pytest.mark.parametrize("tol", [0, -1, float("inf"), float("-inf"), float("nan")])
def test_isolate_roots_needs_a_positive_tol(tol):
    with pytest.raises(ValueError):
        isolate_roots([-1, 2], tol)
    with pytest.raises(ValueError):
        analyze_profile(family_profile(fam("path", 4)), tol)


def test_a_positive_fraction_tol_comes_back_as_it_is():
    tol = Fraction(1, 10**9)
    assert shape._positive_tol(tol) is tol
    assert shape._positive_tol(0.5) == Fraction(1, 2)
    for bad in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError):
            shape._positive_tol(bad)
        with pytest.raises(ValueError):
            isolate_roots([-1, 2], bad)


def test_isolating_intervals_meet_tolerance():
    tol = Fraction(1, 10**6)
    records = isolate_roots(derivative(from_profile(
        count_connected_sets(make_family(fam("path", 6))))), tol=tol)
    assert all(r.hi - r.lo < tol for r in records)


def test_a_midpoint_root_gets_a_bracket_exactly_tol_wide():
    # 2p - 1: the first midpoint of (0, 1) is the root, and the bracket is
    # centred on it, exactly tol wide rather than below tol
    half = Fraction(1, 2)
    for tol in TOLS:
        [record] = isolate_roots([-1, 2], tol)
        assert (record.lo, record.hi, record.approx) == (half - tol / 2, half + tol / 2, half)
    # no wider than the half it ends: 1/2 at tol 1
    [record] = isolate_roots([-1, 2], 1)
    assert (record.lo, record.hi) == (Fraction(1, 4), Fraction(3, 4))


def test_tolerance_below_the_float_range(monkeypatch):
    # the float estimate's cell width, 2^-1330, is below the least double
    tol = Fraction(1, 10**400)
    [record] = isolate_roots([-1, 3], tol=tol)
    assert record.lo < Fraction(1, 3) < record.hi and record.hi - record.lo < tol
    monkeypatch.setattr(shape, "_newton", overflow)
    assert isolate_roots([-1, 3], tol=tol) == [record]


@pytest.fixture(scope="module")
def bracket_polys(graphs6):
    """Exact rational roots (landing on a bisection midpoint), root pairs
    next to an endpoint root, census polynomials and wide-coefficient family
    polynomials of degree 62."""
    polys = [[-1, 2], [3, -16, 16], [1, -6, 9], [-1, 3, -3, 1]]
    near_ends = [0, 1]  # p (p - 1/8) (p - 1/7) (p - 6/7) (p - 7/8) (p - 1)
    for factor in ([-1, 8], [-1, 7], [-6, 7], [-7, 8], [-1, 1]):
        near_ends = mul(near_ends, factor)
    polys.append(near_ends)
    for profile in [*map(count_connected_sets, graphs6[::4]),
                    family_profile(fam("cycle", 62)), family_profile(fam("star", 62))]:
        poly = from_profile(profile)
        shifted = list(poly.coeffs)
        shifted[1] -= 1
        polys += [derivative(poly), second_derivative(poly), shifted]
    return polys


def test_float_estimate_keeps_the_bisection_bracket(bracket_polys, monkeypatch):
    def isolations():
        return [isolate_roots(c, tol=tol) for c in bracket_polys for tol in TOLS]

    estimated = isolations()
    refinements = exact_signs(monkeypatch)
    # the second estimate alone: the power-basis estimate overflows, and the
    # Bernstein estimate's cell is confirmed by its two exact signs
    patch_newton(monkeypatch, power=overflow)
    assert isolations() == estimated
    assert sum(signs == [1, -1] for signs in refinements) > len(refinements) // 2

    # estimates a cell off, or at an end of the interval, pick wrong cells
    def off_by(cells_off):
        return lambda real, lo, hi, cell_width: real() + cells_off * cell_width

    for power, bernstein in [(off_by(1), off_by(-1)),
                             (off_by(-2), lambda real, lo, hi, w: lo),
                             (lambda real, lo, hi, w: lo, lambda real, lo, hi, w: hi)]:
        patch_newton(monkeypatch, power, bernstein)
        assert isolations() == estimated
    monkeypatch.setattr(shape, "_newton", overflow)
    assert isolations() == estimated


def overflow(*args):
    """An estimate whose coefficients overflow a float."""
    raise OverflowError


NEWTON = shape._newton  # the real estimate, however a test has patched it since


def patch_newton(monkeypatch, power=None, bernstein=None):
    """Route ``shape._newton``'s estimate in the power basis, or in the
    Bernstein basis (``bernstein=True``), through ``estimate(real, lo, hi,
    cell_width)``, where ``real()`` gives the real estimate; a basis given
    None keeps it."""
    def newton(coeffs, sa, lo, hi, cell_width, in_bernstein=False):
        def real():
            return NEWTON(coeffs, sa, lo, hi, cell_width, in_bernstein)
        estimate = bernstein if in_bernstein else power
        return estimate(real, lo, hi, cell_width) if estimate else real()

    monkeypatch.setattr(shape, "_newton", newton)


FALLBACK = 4  # a refinement making more exact signs than this confirmed no estimate


def exact_signs(monkeypatch):
    """Route ``shape._refine`` and ``shape.sign_at`` through wrappers;
    returns one list per refinement of the exact signs made inside it, each
    times the sign at its interval's left end.

    A confirmed float estimate makes 2 to 4 signs: 1 or 2 for an estimate
    that fails, then 2 for the one confirmed.  With none confirmed, the
    bisection makes one more per halving, 28 from a cell 1/4 wide down to
    tol 1e-9, so more than ``FALLBACK`` at the tolerances where cells are
    many."""
    real_refine, real_sign = shape._refine, shape.sign_at
    refinements, left_signs, inside = [], [], []

    def refine(q, transform, lo_num, hi_num, den, sa, tol):
        refinements.append([])
        left_signs.append(sa)
        inside.append(True)
        try:
            return real_refine(q, transform, lo_num, hi_num, den, sa, tol)
        finally:
            inside.pop()

    def sign_at(*args):
        sign = real_sign(*args)
        if inside:
            refinements[-1].append(sign * left_signs[-1])
        return sign

    monkeypatch.setattr(shape, "_refine", refine)
    monkeypatch.setattr(shape, "sign_at", sign_at)
    return refinements


def test_the_estimates_confirm_almost_every_final_cell(monkeypatch):
    """Over the 104 families-large profiles (degree up to 62) at most 2 of
    the 351 refinements fall back to step-by-step bisection, and none over
    the 477 distinct profiles of order 7.  The power basis alone loses 53 of
    the first to cancellation."""
    refinements = exact_signs(monkeypatch)
    for selector in families_large_digests():
        analyze_profile(family_profile(parse_family(selector)))
    assert len(refinements) == 351
    assert sum(len(signs) > FALLBACK for signs in refinements) <= 2
    profiles = {p.c: p for p in map(count_connected_sets, generate_connected(7))}
    assert len(profiles) == 477
    refinements.clear()
    for profile in profiles.values():
        analyze_profile(profile)
    assert refinements and all(len(signs) <= FALLBACK for signs in refinements)


def test_order_7_census_makes_2770_exact_signs(graphs7, monkeypatch):
    """A work-count pin: the 477 distinct profiles of order 7 make 2,770
    exact sign evaluations through ``shape.sign_at``, in the refinements
    and on the square-free path."""
    signs = count_calls(monkeypatch, [shape], "sign_at")
    profiles = {p.c: p for p in map(count_connected_sets, graphs7)}
    assert len(profiles) == 477
    for profile in profiles.values():
        analyze_profile(profile)
    assert len(signs) == 2770


def test_refine_is_unchanged_by_unreduced_numerators(bracket_polys, monkeypatch):
    """Scaling lo_num, hi_num and den by s in {2, 3, 7} leaves the bracket
    of every refinement of the bracket polynomials as it is, with the float
    estimates and with the bisection alone, and where a midpoint is the
    root."""
    calls, real = [], shape._refine

    def refine(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(shape, "_refine", refine)
    for coeffs in bracket_polys:
        for tol in TOLS:
            isolate_roots(coeffs, tol)
    monkeypatch.undo()
    assert len(calls) > 100
    calls += [([-1, 2], descartes_transform([-1, 2]), 0, 1, 1, -1, tol) for tol in TOLS]
    for newton in (NEWTON, overflow):
        monkeypatch.setattr(shape, "_newton", newton)
        for q, transform, lo_num, hi_num, den, sa, tol in calls:
            bracket = shape._refine(q, transform, lo_num, hi_num, den, sa, tol)
            for s in (2, 3, 7):
                assert shape._refine(q, transform, s * lo_num, s * hi_num, s * den,
                                     sa, tol) == bracket


@pytest.mark.parametrize("power", ["overflow", "outside", "estimated"])
@pytest.mark.parametrize("descartes", ["overflow", "outside", "estimated"])
def test_final_cell_rare_exits_keep_the_bisection_bracket(power, descartes, monkeypatch):
    """An estimate picks no cell when its coefficients overflow a float (a
    positive multiple of q, or of its transform, by 2^1100).  One outside
    the interval, at another root whose cell the exact signs would confirm,
    picks the interval's last cell, which its first exact sign rejects.
    Then the other estimate, else the step-by-step bisection (28 halvings
    from 1/4 to below tol), gives the bracket."""
    q = mul(mul([-1, 3], [-2, 3]), [-5, 6])  # roots 1/3, 2/3 and 5/6
    tol = Fraction(1, 10**9)
    lo_num, hi_num, den, sa = 1, 3, 8, -1  # (1/8, 3/8) holds 1/3
    transform = descartes_transform(q)
    monkeypatch.setattr(shape, "_newton", overflow)
    bisected = shape._refine(q, transform, lo_num, hi_num, den, sa, tol)
    monkeypatch.undo()

    def outside(real, lo, hi, cell_width):
        return 5 / 6

    if power == "overflow":
        q = [c << 1100 for c in q]
    if descartes == "overflow":
        transform = [c << 1100 for c in transform]
    patch_newton(monkeypatch, outside if power == "outside" else None,
                 outside if descartes == "outside" else None)
    refinements = exact_signs(monkeypatch)
    assert shape._refine(q, transform, lo_num, hi_num, den, sa, tol) == bisected
    expected = 0
    for estimate in (power, descartes):
        expected += {"overflow": 0, "outside": 1, "estimated": 2}[estimate]
        if estimate == "estimated":
            break
    else:
        expected += 28
    assert [len(signs) for signs in refinements] == [expected]
    assert bisected[0] < Fraction(1, 3) < bisected[1] and bisected[1] - bisected[0] < tol


@pytest.mark.parametrize("root", [Fraction(1, 3), Fraction(3, 5), Fraction(5, 7)])
def test_descartes_estimate_converges_like_newton(root, monkeypatch):
    """From the midpoint of (1/8, 7/8), six steps of the second estimate
    alone reach the bisection's final cell, on either side of 1/2, for
    (v p - u)(p^2 + 1)^3 of degree 7: its two exact signs confirm it."""
    q = [-root.numerator, root.denominator]
    for _ in range(3):
        q = mul(q, [1, 0, 1])
    transform = descartes_transform(q)
    tol = Fraction(1, 10**9)
    monkeypatch.setattr(shape, "_newton", overflow)
    bisected = shape._refine(q, transform, 1, 7, 8, -1, tol)
    monkeypatch.undo()
    patch_newton(monkeypatch, power=overflow)
    monkeypatch.setattr(shape, "FLOAT_ROOT_STEPS", 6)
    refinements = exact_signs(monkeypatch)
    assert shape._refine(q, transform, 1, 7, 8, -1, tol) == bisected
    assert refinements == [[1, -1]]


def test_a_polynomial_beyond_the_float_range_is_bisected(monkeypatch):
    # (3p - 1)(p^2 + 2^1100): both estimates overflow, the bisection decides
    [record] = isolate_roots(mul([-1, 3], [1 << 1100, 0, 1]))
    assert record.lo < Fraction(1, 3) < record.hi
    refinements = exact_signs(monkeypatch)
    assert isolate_roots(mul([-1, 3], [1 << 1100, 0, 1])) == [record]
    assert len(refinements) == 1 and len(refinements[0]) > FALLBACK


def isolation(coeffs, tol):
    """isolate_roots as the (lo, hi, approx, sign_change) tuples the oracle
    gives."""
    return [(r.lo, r.hi, r.approx, r.sign_change) for r in isolate_roots(coeffs, tol=tol)]


def test_isolation_equals_sturm_only_on_census_and_wide_polys(bracket_polys):
    for coeffs in bracket_polys:
        for tol in TOLS:
            assert isolation(coeffs, tol) == sturm_only_isolation(coeffs, tol)


@settings(max_examples=150, deadline=None)
@given(polys_with_known_roots(), st.integers(0, 2), st.integers(0, 2))
def test_isolation_equals_sturm_only_on_known_roots(case, at_0, at_1):
    coeffs = case[0]
    for _ in range(at_0):
        coeffs = mul(coeffs, [0, 1])
    for _ in range(at_1):
        coeffs = mul(coeffs, [1, -1])
    for tol in TOLS:
        assert isolation(coeffs, tol) == sturm_only_isolation(coeffs, tol)


LEFT_PAIR, RIGHT_PAIR = [101, -2000, 10000], [8101, -18000, 10000]  # 0.1 ± i/100, 0.9 ± i/100


@pytest.mark.parametrize("coeffs, gaps", [
    (mul(mul([0, 1], LEFT_PAIR), [-1, 2]), [(0, Fraction(1, 4))]),
    (mul(mul([1, -1], RIGHT_PAIR), [-1, 2]), [(Fraction(3, 4), 1)]),
    (mul(mul(mul([0, 1], [1, -1]), mul(LEFT_PAIR, RIGHT_PAIR)), [-1, 2]),
     [(0, Fraction(1, 4)), (Fraction(13, 16), 1)]),
], ids=["left", "right", "both"])
def test_a_gap_with_a_complex_pair_is_counted_root_free(coeffs, gaps, monkeypatch):
    """A complex pair inside the first gap keeps the gap's Descartes bound
    at 2 and the rest's below the budget (3 at one end, 5 at both), so the
    gap is decided by ``count_roots`` on the square-free part, which finds
    it root-free."""
    real = shape.count_roots
    counted = []

    def count_roots(q, a, b, den):
        counted.append((Fraction(a, den), Fraction(b, den), real(q, a, b, den)))
        return counted[-1][2]

    monkeypatch.setattr(shape, "count_roots", count_roots)
    for tol in TOLS:
        counted.clear()
        assert isolation(coeffs, tol) == sturm_only_isolation(coeffs, tol)
        assert counted == [(lo, hi, 0) for lo, hi in gaps]


def test_square_free_part_only_where_descartes_cannot_decide(monkeypatch):
    parts = count_calls(monkeypatch, [shape], "square_free_part")
    for spec in (fam("cycle", 62), fam("path", 62), fam("star", 62),
                 fam("complete-bipartite", 15, 47), fam("bonded-complete-leaf", 62),
                 FamilySpec("disjoint-union", parts=(fam("star", 61), fam("complete", 1))),
                 FamilySpec("disjoint-union", parts=(fam("path", 31), fam("cycle", 31)))):
        analyze_profile(family_profile(spec))
    assert parts == []
    # (3p-1)^2: the bound stays 2 on every cell around the double root
    isolate_roots([1, -6, 9])
    assert parts == [[1, -6, 9]]


def test_families_large_shifts_only_where_the_bound_is_open(monkeypatch):
    """The 104 family profiles of the benchmark's families-large workload
    (orders 14..62) take at most 150 Taylor shifts, 800 Descartes bounds
    and 10 reflections in ``shape``: a cell's bound is inferred from its
    parent's wherever the parity of its end signs decides it, (0, 1) with
    bound 0 is not split at all, and a gap at 1 is reflected only where the
    bound of the rest leaves the gap's open."""
    shifts = count_calls(monkeypatch, [shape], "taylor_shift")
    bounds = count_calls(monkeypatch, [shape], "descartes_bound")
    reflections = count_calls(monkeypatch, [shape], "reflect")
    for selector in families_large_digests():
        analyze_profile(family_profile(parse_family(selector)))
    assert len(shifts) <= 150
    assert len(bounds) <= 800
    assert len(reflections) <= 10


def test_root_multiplicity_mixed(monkeypatch):
    # p (p - 1/4) (p - 1/2)^2: crossing at 1/4, tangent at 1/2.  Descartes
    # certifies the simple root, so its sign_change is True by construction;
    # the bound never falls near the double root, which is counted on the
    # square-free part and must not count as a crossing there
    from_split = []
    real = shape._split_isolate

    def split_isolate(*args):
        records = real(*args)
        from_split.extend(records)
        return records

    monkeypatch.setattr(shape, "_split_isolate", split_isolate)
    poly = mul(mul([0, 1], [-1, 4]), mul([-1, 2], [-1, 2]))
    records = isolate_roots(poly)
    assert len(records) == 2
    crossing = [r for r in records if r.sign_change]
    tangent = [r for r in records if not r.sign_change]
    assert len(crossing) == 1 and crossing[0].lo <= Fraction(1, 4) <= crossing[0].hi
    assert len(tangent) == 1 and tangent[0].lo <= Fraction(1, 2) <= tangent[0].hi
    assert from_split == tangent


def test_sturm_counts_match_grid_sign_changes(graphs6):
    # cross-validate isolation against a dense float grid: crossings of f'
    # and f'' seen by sampling must equal the odd-multiplicity root counts
    grid = np.linspace(0.0, 1.0, 10_001)[1:-1]
    for g in graphs6:
        poly = from_profile(count_connected_sets(g))
        for coeffs in (derivative(poly), second_derivative(poly)):
            if not any(coeffs):
                continue
            values = np.polyval([float(x) for x in reversed(coeffs)], grid)
            # mask out float cancellation noise around true zeros; a genuine
            # crossing keeps clearly signed lobes on both sides
            solid = values[np.abs(values) > 1e-9 * np.max(np.abs(values))]
            signs = np.sign(solid)
            grid_crossings = int(np.sum(signs[1:] != signs[:-1]))
            sturm_crossings = sum(r.sign_change for r in isolate_roots(coeffs))
            assert grid_crossings == sturm_crossings


# -- analyze -----------------------------------------------------------------------

def test_path6_report():
    report = analyze_profile(count_connected_sets(make_family(fam("path", 6))))
    assert report.shape_class == "N"
    assert len(report.decrease_intervals) == 1
    interval = report.decrease_intervals[0]
    assert abs(interval.lo - Fraction(2137, 10**4)) <= Fraction(5, 10**5)
    assert abs(interval.hi - Fraction(5851, 10**4)) <= Fraction(5, 10**5)
    assert report.deriv_at_0 == 6 and report.deriv_at_1 == 4


def counted_isolation(monkeypatch):
    """Route ``shape.isolate_roots`` through a counter; returns the list of
    record counts, one entry per call."""
    real, returned = shape.isolate_roots, []

    def counted(coeffs, tol):
        records = real(coeffs, tol)
        returned.append(len(records))
        return records

    monkeypatch.setattr(shape, "isolate_roots", counted)
    return returned


def test_analyze_isolates_through_isolate_roots(monkeypatch):
    # f', f'' and f - p, each through the one public entry the benchmark traces
    returned = counted_isolation(monkeypatch)
    analyze_profile(family_profile(fam("path", 6)))
    assert len(returned) == 3


def test_order_7_isolations_are_the_traced_benchmark_figures(monkeypatch):
    profiles = {p.c: p for p in map(count_connected_sets, generate_connected(7))}
    assert len(profiles) == 477
    returned = counted_isolation(monkeypatch)
    for profile in profiles.values():
        analyze_profile(profile)
    assert (len(returned), sum(returned)) == (1431, 1345)


def test_complete_graphs_monotone_concave_down():
    for n in range(2, 8):
        report = analyze_profile(count_connected_sets(make_family(fam("complete", n))))
        assert report.shape_class == "monotone-no-interior-fixed-point"
        assert not report.decrease_intervals
        assert not report.inflections
        assert report.concave_down_near_0
        assert report.concavity_near_1 == -1


def test_single_vertex_identity():
    report = analyze_profile(count_connected_sets(make_family(fam("complete", 1))))
    assert report.shape_class == "identity"
    assert report.deriv_at_0 == 1 and report.deriv_at_1 == 1


def test_star_inflection_at_two_over_n():
    for n in (4, 7, 12):
        report = analyze_profile(family_profile(fam("star", n)))
        assert len(report.inflections) == 1
        record = report.inflections[0]
        assert record.lo <= Fraction(2, n) <= record.hi


def test_star_union_m_shape():
    profile = profile_disjoint_union(
        family_profile(fam("star", 19)), family_profile(fam("complete", 1)))
    report = analyze_profile(profile)
    assert report.shape_class == "M"
    assert len(report.decrease_intervals) == 2


def test_empty_graph_decreases_to_one():
    report = analyze_profile(family_profile(fam("empty", 5)))
    assert report.shape_class == "other"
    assert len(report.decrease_intervals) == 1
    interval = report.decrease_intervals[0]
    assert abs(interval.lo - Fraction(1, 5)) < Fraction(1, 10**8)
    assert interval.hi == 1 and interval.hi_root is None


def test_three_inflection_graph(fixtures_dir):
    g = parse_edge_list((fixtures_dir / "three_inflection_order7.edges").read_text())
    report = analyze_profile(count_connected_sets(g))
    assert len(report.inflections) == 3


def test_balanced_bipartite_increasing():
    for n in range(2, 6):
        g = make_family(fam("complete-bipartite", n, n))
        report = analyze_profile(count_connected_sets(g))
        assert not report.decrease_intervals


def test_analyze_idempotent():
    g = make_family(fam("path", 6))
    assert analyze_profile(count_connected_sets(g)) == analyze_profile(count_connected_sets(g))


def test_decrease_intervals_well_formed(graphs6):
    for g in graphs6:
        report = analyze_profile(count_connected_sets(g))
        intervals = report.decrease_intervals
        for iv in intervals:
            assert 0 <= iv.lo < iv.hi <= 1
        for a, b in zip(intervals, intervals[1:]):
            assert a.hi <= b.lo
        # connected graphs increase adjacent to both endpoints
        for iv in intervals:
            assert iv.lo_root is not None and iv.hi_root is not None


def decrease_by_midpoint_signs(f1, critical):
    """Oracle: the sign of f' at the midpoint of every gap between critical
    brackets, with the runs of negative gaps merged."""
    bounds = [(Fraction(0), None), *((r.approx, r) for r in critical), (Fraction(1), None)]
    ends = [Fraction(0), *(x for r in critical for x in (r.lo, r.hi)), Fraction(1)]
    negative = [sign_at_point(f1, (a + b) / 2) < 0 for a, b in zip(ends[::2], ends[1::2])]
    intervals, start = [], None
    for i, neg in enumerate(negative + [False]):
        if neg and start is None:
            start = i
        elif not neg and start is not None:
            (lo, lo_root), (hi, hi_root) = bounds[start], bounds[i]
            intervals.append(Interval(lo, hi, lo_root, hi_root))
            start = None
    return tuple(intervals)


@settings(max_examples=300, deadline=None)
@given(polys_with_known_roots(), st.integers(0, 2))
def test_decrease_intervals_flip_at_crossings_only(case, zero_roots):
    # roots of multiplicity 2 are tangential stationary points inside a
    # decrease interval or between two increasing stretches
    f1 = [0] * zero_roots + case[0]
    assert _decrease_intervals(f1, isolate_roots(f1)) == decrease_by_midpoint_signs(
        f1, isolate_roots(f1))


def test_concavity_flags_on_census(graphs6):
    for g in graphs6:
        report = analyze_profile(count_connected_sets(g))
        assert report.concave_down_near_0
        if is_two_connected(g):
            assert report.concavity_near_1 == -1


def test_fixed_point_parity_flags(graphs6):
    # exact evaluation just outside each fixed-point bracket agrees with the
    # crossing flag
    for g in graphs6[:40]:
        profile = count_connected_sets(g)
        poly = from_profile(profile)
        report = analyze_profile(profile)
        for record in report.fixed_points:
            left = eval_exact(poly, record.lo) - record.lo
            right = eval_exact(poly, record.hi) - record.hi
            assert (left * right < 0) == record.sign_change


# -- threshold and witnesses ---------------------------------------------------------

def test_threshold_constants():
    r_hat, f_hat = maximize_threshold_constant()
    assert abs(r_hat - 1.729474372) <= 1e-8
    assert abs(f_hat - 0.08510464442) <= 1e-9


def test_threshold_function_endpoints():
    import math

    def f(r):
        return (r - 1) / (2 * r + 1 + (r - 1) * math.exp(r))

    assert f(1.0) == 0.0
    assert f(30.0) < 1e-9  # decays toward 0 for large arguments


def test_sparse_decrease_cycle12():
    check = check_sparse_decrease(make_family(fam("cycle", 12)), f1_of(fam("cycle", 12)))
    assert check.applicable       # 12 <= 0.0851 * 144
    assert check.deriv_value < 0
    assert check.decreasing_at_point


def test_sparse_decrease_not_applicable():
    for spec in (fam("path", 6), fam("complete", 6)):
        assert not check_sparse_decrease(make_family(spec), f1_of(spec)).applicable


def test_sparse_threshold_is_exact_arithmetic():
    # boundary case: m * 10^4 == 851 * n^2 counts as applicable
    check = check_sparse_decrease(make_family(fam("empty", 2)), f1_of(fam("empty", 2)))
    assert check.applicable


def test_fixed_point_witness_cycle50():
    profile = family_profile(fam("cycle", 50))
    witness = check_fixed_point_witness(make_family(fam("cycle", 50)), from_profile(profile))
    assert witness.applicable and witness.max_degree == 2
    assert witness.point == Fraction(1, 4)
    assert witness.below
    report = analyze_profile(profile)
    assert len(report.fixed_points) >= 2
    assert len(report.crossing_fixed_points) >= 2


def test_fixed_point_witness_small_cases_recorded():
    w5 = check_fixed_point_witness(make_family(fam("cycle", 5)), poly_of(fam("cycle", 5)))
    assert w5.applicable and not w5.below  # too small for the bound to bite
    w4 = check_fixed_point_witness(make_family(fam("complete", 4)), poly_of(fam("complete", 4)))
    assert w4.applicable and w4.max_degree == 3 and w4.point == Fraction(1, 9)


def test_fixed_point_witness_not_two_connected():
    witness = check_fixed_point_witness(make_family(fam("path", 5)), poly_of(fam("path", 5)))
    assert not witness.applicable
