"""Command-line front end.

Subcommands: ``analyze`` (full exact report for one graph), ``coeffs``
(coefficient tables), ``plot`` (CSV curve data), ``census`` (exhaustive or
streamed shape statistics), and ``verify`` (the full verification suite).

Conventions: exact rationals are printed as ``numerator/denominator``
strings, decimals carry 10 significant digits (12 in CSV output), rounded
half-even whatever the caller's decimal context, identical inputs produce
byte-identical output, and the exit code is 0 on success, 1 on
an internal invariant violation, 2 on a usage or parse error.  ``analyze
--tol`` sets the width of the root brackets it prints (default 1e-9); the
other commands read only shape invariants, which exact arithmetic decides
at any width.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import itertools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .census import census_document, generate_connected, run_census, stream_graph6
from .connsets import (
    check_coefficient_identities,
    count_connected_sets,
    f_coefficients,
    family_profile,
    first_bound_violation,
    first_sperner_violation,
)
from .graphs import (
    EdgeListParseError,
    FamilySpec,
    Graph,
    Graph6ParseError,
    cut_vertices,
    is_complete,
    is_connected,
    is_two_connected,
    make_family,
    min_vertex_cut,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .poly import (
    InternalCheckError,
    d_coefficients,
    derivative,
    from_profile,
    sample,
    second_derivative,
)
from .shape import (
    DEFAULT_TOL,
    analyze_profile,
    check_fixed_point_witness,
    check_sparse_decrease,
)
from .verification import run_checks

MIN_CUT_ORDER_CAP = 16  # brute-force vertex-cut search is exponential beyond this
_STR_DIGITS = 4300  # the most digits str(int) prints: CPython's default limit


class FamilyParseError(ValueError):
    pass


def parse_family(text: str) -> FamilySpec:
    """Parse ``kind:p1,p2`` selectors and ``union(a,b)`` compositions."""
    text = text.strip()
    depths = [0, *itertools.accumulate((ch == "(") - (ch == ")") for ch in text)]
    if min(depths) < 0 or depths[-1]:
        raise FamilyParseError(f"unbalanced parentheses in {text!r}")
    for prefix in ("union(", "disjoint-union("):
        if text.startswith(prefix):
            if depths.index(0, len(prefix)) != len(text):
                raise FamilyParseError(
                    f"union in {text!r} does not close at the end of the selector")
            parts = _split_top_level(text[len(prefix):-1])
            if len(parts) != 2:
                raise FamilyParseError(f"union takes two members, got {len(parts)}")
            return FamilySpec("disjoint-union",
                              parts=(parse_family(parts[0]), parse_family(parts[1])))
    if ":" not in text:
        raise FamilyParseError(f"family selector {text!r} needs kind:params")
    kind, _, params = text.partition(":")
    try:
        values = tuple(int(p) for p in params.split(","))
    except ValueError:
        raise FamilyParseError(f"non-integer family parameter in {params!r}") from None
    try:
        return FamilySpec(kind.strip(), values)
    except ValueError as exc:
        raise FamilyParseError(str(exc)) from None


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def fmt_exact(value) -> str:
    """Integers plainly, other rationals as numerator/denominator."""
    return str(value) if type(value) is int else str(Fraction(value))


@functools.cache
def _decimal_context(sig: int) -> decimal.Context:
    """The one decimal context of precision ``sig``, every field set here."""
    return decimal.Context(prec=sig, rounding=decimal.ROUND_HALF_EVEN,
                           Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                           capitals=1, clamp=0, traps=[])


def fmt_dec(value, sig: int = 10) -> str:
    """Exact rational rounded half-even to ``sig`` significant digits.  It
    divides and prints in its own context, so the caller's decimal context
    changes no digit."""
    frac = Fraction(value)
    if frac == 0:
        return "0"
    ctx = _decimal_context(sig)
    return ctx.to_sci_string(
        ctx.divide(decimal.Decimal(frac.numerator), decimal.Decimal(frac.denominator)))


def _json_text(obj, indent: str = "") -> str:
    """What ``json.dumps(obj, indent=2, sort_keys=True)`` returns, for
    documents of dicts with str keys, lists, tuples, str, int, bool and
    None; json's own writer takes its pure-Python path whenever it indents.
    Private, so that a tracer wrapping public names leaves its recursion
    alone."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{\n" + ",\n".join(
            f"{inner}{encode_basestring_ascii(key)}: {_json_text(obj[key], inner)}"
            for key in sorted(obj)) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(
            inner + _json_text(item, inner) for item in obj) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def parse_tol(text: str | None) -> Fraction:
    if text is None:
        return DEFAULT_TOL
    try:
        value = decimal.Decimal(text)
        if value and not -_STR_DIGITS - 1 < value.adjusted() < _STR_DIGITS:
            raise ValueError  # refused before Fraction builds 10 ** exponent
        tol = Fraction(value)
        if max(abs(tol.numerator), tol.denominator) >= 10 ** _STR_DIGITS:
            raise ValueError
    except (decimal.InvalidOperation, ValueError, OverflowError):  # infinities overflow
        raise ValueError(f"invalid tolerance {text!r}") from None
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def resolve_graph(args) -> tuple[Graph, FamilySpec | None]:
    given = [name for name in ("graph6", "edges", "family") if getattr(args, name)]
    if len(given) != 1:
        raise ValueError("need exactly one of --graph6, --edges, --family")
    if args.graph6:
        return parse_graph6(args.graph6), None
    if args.edges:
        with open(args.edges, encoding="ascii") as handle:
            return parse_edge_list(handle.read()), None
    spec = parse_family(args.family)
    return make_family(spec), spec


def resolve_profile(g: Graph, spec: FamilySpec | None):
    return count_connected_sets(g) if spec is None else family_profile(spec)


def _root_doc(record) -> dict:
    return {
        "lo": fmt_dec(record.lo),
        "hi": fmt_dec(record.hi),
        "approx": fmt_dec(record.approx),
        "sign_change": record.sign_change,
    }


def build_analysis_document(g: Graph, spec: FamilySpec | None, tol: Fraction) -> dict:
    profile = resolve_profile(g, spec)
    try:  # the call that runs internal checks
        report = analyze_profile(profile, tol)
    except InternalCheckError as exc:
        raise InternalCheckError(f"graph {to_graph6(g)}: {exc}") from exc
    identities = check_coefficient_identities(g, profile)
    violation = first_bound_violation(profile)
    sparse = check_sparse_decrease(g, report.f1)
    witness = check_fixed_point_witness(g, report.poly)

    if is_complete(g):
        min_cut = "none"
    elif not is_connected(g):
        min_cut = 0
    elif g.n <= MIN_CUT_ORDER_CAP:
        min_cut = min_vertex_cut(g)
    else:
        min_cut = None  # search skipped at this order

    return {
        "input": {
            "graph6": to_graph6(g),
            "family": spec.label() if spec else None,
            "n": g.n,
            "m": g.m,
            "max_degree": max(g.degrees()),
            "cut_vertices": len(cut_vertices(g)),
            "min_vertex_cut": min_cut,
            "connected": is_connected(g),
            "two_connected": is_two_connected(g),
        },
        "coefficients": {
            "c": [fmt_exact(x) for x in profile.c],
            "f": [fmt_exact(x) for x in f_coefficients(profile)],
            "d": [fmt_exact(x) for x in report.d],
        },
        "polynomial": {"coeffs": [fmt_exact(x) for x in report.poly.coeffs]},
        "shape": {
            "class": report.shape_class,
            "deriv_at_0": fmt_exact(report.deriv_at_0),
            "deriv_at_1": fmt_exact(report.deriv_at_1),
            "concave_down_near_0": report.concave_down_near_0,
            "concavity_near_1": report.concavity_near_1,
            "decrease_intervals": [
                {"lo": fmt_dec(iv.lo), "hi": fmt_dec(iv.hi)}
                for iv in report.decrease_intervals
            ],
            "critical_points": [_root_doc(r) for r in report.critical_points],
            "inflections": [_root_doc(r) for r in report.inflections],
            "fixed_points": [_root_doc(r) for r in report.fixed_points],
        },
        "checks": {
            "coefficient_identities": {
                "passed": all(item.passed for item in identities),
                "items": [
                    {
                        "label": item.label,
                        "applicable": item.applicable,
                        "lhs": None if item.lhs is None else fmt_exact(item.lhs),
                        "rhs": None if item.rhs is None else fmt_exact(item.rhs),
                        "passed": item.passed,
                    }
                    for item in identities
                ],
            },
            "coefficient_bounds": {
                "passed": violation is None,
                "first_violation": None if violation is None else list(violation),
            },
            "sperner_failure": first_sperner_violation(profile) is not None,
            "sparse_decrease": {
                "applicable": sparse.applicable,
                "point": None if sparse.point is None else fmt_exact(sparse.point),
                "deriv_value": None if sparse.deriv_value is None else fmt_exact(sparse.deriv_value),
                "decreasing": sparse.decreasing_at_point,
            },
            "fixed_point_witness": {
                "applicable": witness.applicable,
                "max_degree": witness.max_degree,
                "point": None if witness.point is None else fmt_exact(witness.point),
                "value": None if witness.value is None else fmt_exact(witness.value),
                "below": witness.below,
            },
        },
        "tol": fmt_exact(tol),
    }


def render_analysis_text(doc: dict) -> str:
    lines = []
    inp = doc["input"]
    label = inp["family"] or inp["graph6"]
    lines.append(f"graph {label}")
    min_cut = inp["min_vertex_cut"]
    min_cut_text = "(skipped)" if min_cut is None else str(min_cut)
    lines.append(
        f"  n={inp['n']} m={inp['m']} max_degree={inp['max_degree']} "
        f"cut_vertices={inp['cut_vertices']} min_vertex_cut={min_cut_text} "
        f"connected={inp['connected']}")
    lines.append(f"  graph6: {inp['graph6']}")
    co = doc["coefficients"]
    lines.append("  c: " + " ".join(co["c"]))
    lines.append("  F: " + " ".join(co["f"]))
    lines.append("  d: " + (" ".join(co["d"]) if co["d"] else "(none)"))
    lines.append("  polynomial coefficients: " + " ".join(doc["polynomial"]["coeffs"]))
    sh = doc["shape"]
    lines.append(f"shape: class={sh['class']} deriv_at_0={sh['deriv_at_0']} "
                 f"deriv_at_1={sh['deriv_at_1']} "
                 f"concave_down_near_0={sh['concave_down_near_0']} "
                 f"concavity_near_1={sh['concavity_near_1']:+d}")
    if sh["decrease_intervals"]:
        for iv in sh["decrease_intervals"]:
            lines.append(f"  decrease interval: ({iv['lo']}, {iv['hi']})")
    else:
        lines.append("  decrease intervals: none")
    for key in ("critical_points", "inflections", "fixed_points"):
        label = key.replace("_", " ")
        if sh[key]:
            for r in sh[key]:
                kind = "crossing" if r["sign_change"] else "tangential"
                lines.append(f"  {label[:-1]}: {r['approx']} in [{r['lo']}, {r['hi']}] ({kind})")
        else:
            lines.append(f"  {label}: none")
    ck = doc["checks"]
    lines.append("checks:")
    lines.append(f"  coefficient identities: "
                 f"{'pass' if ck['coefficient_identities']['passed'] else 'FAIL'}")
    for item in ck["coefficient_identities"]["items"]:
        if not item["applicable"]:
            lines.append(f"    {item['label']}: n/a")
        else:
            verdict = "ok" if item["passed"] else "MISMATCH"
            lines.append(f"    {item['label']}: {item['lhs']} = {item['rhs']} {verdict}")
    bounds = ck["coefficient_bounds"]
    lines.append(f"  coefficient bounds: {'pass' if bounds['passed'] else 'FAIL at (k,t)=' + str(tuple(bounds['first_violation']))}")
    lines.append(f"  sperner failure: {ck['sperner_failure']}")
    sd = ck["sparse_decrease"]
    if sd["applicable"]:
        lines.append(f"  sparse decrease: f'({sd['point']}) = {sd['deriv_value']} "
                     f"({'decreasing' if sd['decreasing'] else 'NOT decreasing'})")
    else:
        lines.append("  sparse decrease: not applicable (m > 0.0851 n^2)")
    fw = ck["fixed_point_witness"]
    if fw["point"] is None:
        lines.append("  fixed-point witness: not defined (edgeless graph)")
    else:
        rel = "<" if fw["below"] else ">="
        applicability = "2-connected" if fw["applicable"] else "not 2-connected"
        lines.append(f"  fixed-point witness: f({fw['point']}) {rel} {fw['point']} ({applicability})")
    lines.append(f"tol: {doc['tol']}")
    return "\n".join(lines) + "\n"


def _add_graph_selector(parser):
    parser.add_argument("--graph6", help="graph6 string")
    parser.add_argument("--edges", help="edge-list file: n then u v pairs, 0-based")
    parser.add_argument("--family",
                        help="family selector kind:params, e.g. path:6, "
                             "complete-bipartite:3,3, union(star:20,complete:1)")


def cmd_analyze(args) -> int:
    g, spec = resolve_graph(args)
    doc = build_analysis_document(g, spec, parse_tol(args.tol))
    if args.json:
        print(_json_text(doc))
    else:
        sys.stdout.write(render_analysis_text(doc))
    return 0


def cmd_coeffs(args) -> int:
    g, spec = resolve_graph(args)
    profile = resolve_profile(g, spec)
    f = f_coefficients(profile)
    d = d_coefficients(profile)
    flagged = {item.label: item for item in check_coefficient_identities(g, profile)}
    n = profile.n
    # the row each identity annotates; at n <= 2 the later keys n-1 and n win
    label_at = {0: "c0_zero", 1: "c1_order", 2: "c2_size", 3: "c3_wedges_minus_triangles",
                n - 1: "penultimate_noncut", n: "full_set_connected"}
    rows = []
    for k in range(n + 1):
        rows.append({
            "k": k,
            "c": fmt_exact(profile.c[k]),
            "f": fmt_exact(f[k]),
            "d": fmt_exact(d[k - 1]) if 1 <= k <= n - 1 else None,
            "note": _identity_note(flagged.get(label_at.get(k))),
        })
    if args.json:
        print(_json_text({"n": profile.n, "rows": rows}))
        return 0
    widths = {
        "k": max(len(str(r["k"])) for r in rows),
        "c": max(len(r["c"]) for r in rows),
        "f": max(len(r["f"]) for r in rows),
        "d": max(len(r["d"] or "-") for r in rows),
    }
    print(f"{'k':>{widths['k']}}  {'c_k':>{widths['c']}}  "
          f"{'F_k':>{widths['f']}}  {'d_k':>{widths['d']}}")
    for r in rows:
        d_text = r["d"] if r["d"] is not None else "-"
        line = (f"{r['k']:>{widths['k']}}  {r['c']:>{widths['c']}}  "
                f"{r['f']:>{widths['f']}}  {d_text:>{widths['d']}}")
        if r["note"]:
            line += f"  {r['note']}"
        print(line)
    return 0


def _identity_note(item) -> str:
    if item is None or not item.applicable:
        return ""
    return f"[{item.label}: {'ok' if item.passed else 'MISMATCH'}]"


def cmd_plot(args) -> int:
    g, spec = resolve_graph(args)
    poly = from_profile(resolve_profile(g, spec))
    if args.which == "f":
        coeffs = poly.coeffs
    elif args.which == "f1":
        coeffs = derivative(poly)
    else:
        coeffs = second_derivative(poly)
    points = sample(coeffs, args.samples)
    out = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    try:
        out.write("p,value\n")
        for p, value in points:
            out.write(f"{fmt_dec(p, 12)},{fmt_dec(value, 12)}\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_census(args) -> int:
    if (args.n is None) == (args.input is None):
        raise ValueError("need exactly one of --n or --input")
    if args.exemplars < 0:
        raise ValueError(f"--exemplars must be at least 0, got {args.exemplars}")
    if args.n is not None:
        source = iter(generate_connected(args.n))
    else:
        source = iter(stream_graph6(args.input))
    first = next(source, None)
    if first is None:
        # an empty stream has no order; report zero totals and succeed
        if args.json:
            print(json.dumps({"order": None, "total_connected": 0}, sort_keys=True))
        else:
            print("census: 0 graphs")
        return 0
    summary = run_census(itertools.chain([first], source), exemplar_cap=args.exemplars)
    if args.json:
        print(_json_text(census_document(summary)))
        return 0
    print(f"order {summary.order} census: {summary.total_connected} graphs")
    print(f"  decrease: {summary.with_decrease}/{summary.total_connected}")
    print("  inflections: " + " ".join(
        f"{k}:{v}" for k, v in summary.inflection_histogram.items()))
    print("  fixed points: " + " ".join(
        f"{k}:{v}" for k, v in summary.fixed_point_histogram.items()))
    print("  classes: " + " ".join(
        f"{k}:{v}" for k, v in summary.class_histogram.items()))
    for key, tags in summary.exemplars.items():
        print(f"  exemplars {key}: {' '.join(tags)}")
    return 0


def cmd_verify(args) -> int:
    results = run_checks(slow=args.slow, only=args.only)
    if not results:
        raise ValueError(f"no check matches --only {args.only!r}")
    if args.json:
        print(_json_text(
            [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]))
    else:
        width = max((len(r.name) for r in results), default=0)
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="relshape",
        description="Exact node-reliability polynomials and their shape on (0,1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full exact shape report for one graph")
    _add_graph_selector(p)
    p.add_argument("--tol", help="root isolation tolerance (default 1e-9)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coeffs", help="connected-set, failure-set, and d coefficient table")
    _add_graph_selector(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("plot", help="CSV samples of the polynomial or a derivative")
    _add_graph_selector(p)
    p.add_argument("--samples", type=int, default=501)
    p.add_argument("--which", choices=["f", "f1", "f2"], default="f")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("census", help="aggregate shape statistics over many graphs")
    p.add_argument("--n", type=int, help="generate all connected graphs of this order (2..8)")
    p.add_argument("--input", help="graph6 file, one graph per line")
    p.add_argument("--exemplars", type=int, default=10, help="exemplars kept per predicate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--slow", action="store_true", help="include the order-8 census")
    p.add_argument("--only", help="run only checks whose name contains this substring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Graph6ParseError, EdgeListParseError, FamilyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
