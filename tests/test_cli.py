import decimal
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import checkout_env, count_calls
from relshape import cli, graphs, poly, shape
from relshape.graphs import parse_graph6
from relshape.verification import THREE_INFLECTION_ORDER7

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "analysis_report.schema.json"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "relshape", *args],
                          capture_output=True, text=True, env=checkout_env(), **kwargs)


def run_inproc(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- start-up and number formatting ----------------------------------------------

def test_start_up_does_not_import_multiprocessing():
    code = ("import sys, relshape.cli, relshape.verification; "
            "print('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_one_job_census_does_not_import_multiprocessing():
    code = ("import sys; from relshape.cli import main; main(['census', '--n', '5']); "
            "print('multiprocessing' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert "order 5 census: 21 graphs" in proc.stdout
    assert proc.stderr.strip() == "False"


@pytest.mark.parametrize("value", [0, 7, -7, 2**64, 2**64 + 1, -(2**70) - 3, True,
                                   Fraction(0), Fraction(6, 3), Fraction(-5, 2)])
def test_fmt_exact_prints_like_fraction(value):
    assert cli.fmt_exact(value) == str(Fraction(value))


@given(st.one_of(st.integers(), st.integers(-2**200, 2**200), st.fractions()))
def test_fmt_exact_prints_like_fraction_random(value):
    assert cli.fmt_exact(value) == str(Fraction(value))


def test_decimals_ignore_the_callers_decimal_context():
    with decimal.localcontext() as ctx:
        ctx.rounding, ctx.prec, ctx.capitals = decimal.ROUND_DOWN, 3, 0
        assert cli.fmt_dec(Fraction(2, 3)) == "0.6666666667"
        assert cli.fmt_dec(Fraction(1, 3 * 10**12)) == "3.333333333E-13"
        assert cli.fmt_dec(Fraction(2, 3), 12) == "0.666666666667"


def test_analyze_bytes_ignore_the_callers_decimal_context(capsys):
    # a library caller's rounding mode changes no digit of the report
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_DOWN
        code, out, _ = run_inproc(capsys, "analyze", "--family", "path:6", "--json")
    assert code == 0
    assert out == (ROOT / "tests" / "fixtures" / "golden" / "analyze_path6.json").read_text()


# -- the JSON writer ----------------------------------------------------------------

json_text = st.text()
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**1000, 10**1000) | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=30)


@given(json_documents)
def test_json_writer_prints_what_json_dumps_prints(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": []}, ("tuple", 1), [True, 1, False, 0, None],
    {"\"quote\"": "back\\slash", "ctl\x00\x1f\n\t": "caf\u00e9 \U0001d11e \u2028"},
    {"z": 1, "a": {"y": [{"x": -(10**300)}]}},
])
def test_json_writer_on_edge_documents(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("args", [
    ["analyze", "--family", "path:6", "--json"],
    ["analyze", "--family", "union(star:20,complete:1)", "--json"],
    ["analyze", "--graph6", "GJ\\{Ks", "--json"],
    ["coeffs", "--family", "star:6", "--json"],
    ["census", "--n", "5", "--json"],
    ["verify", "--json"],
])
def test_json_stdout_is_what_json_dumps_prints(capsys, args):
    code, out, _ = run_inproc(capsys, *args)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# -- analyze ---------------------------------------------------------------------

def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    outputs = [run_inproc(capsys, "analyze", "--family", "cycle:9", "--json") for _ in range(2)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_analyze_expands_the_profile_once(monkeypatch, capsys):
    expanded = count_calls(monkeypatch, [poly, shape, cli], "from_profile")
    differentiated = count_calls(monkeypatch, [poly, shape, cli], "derivative")
    code, _, _ = run_inproc(capsys, "analyze", "--family", "path:14", "--json")
    assert code == 0
    assert len(expanded) == len(differentiated) == 1


def test_analyze_derives_d_twice(monkeypatch, capsys):
    # once in the analysis, once in the second derivative's cross-check;
    # the document reads the report's d
    derived = count_calls(monkeypatch, [poly, shape, cli], "d_coefficients")
    code, _, _ = run_inproc(capsys, "analyze", "--family", "cycle:62", "--json")
    assert code == 0
    assert len(derived) == 2


def test_analyze_tests_connectivity_once(monkeypatch, capsys):
    # the document's min-cut branch and two fields, and the fixed-point
    # witness, all ask whether the graph is connected
    searches = count_calls(monkeypatch, [graphs], "_component_mask")
    code, _, _ = run_inproc(capsys, "analyze", "--family", "cycle:62", "--json")
    assert code == 0
    assert len(searches) == 1


def test_analyze_path6_text(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family", "path:6")
    assert code == 0
    assert "class=N" in out
    assert "decrease interval: (0.2137" in out
    assert "0.5850" in out


def test_analyze_complete5_class(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family", "complete:5")
    assert code == 0
    assert "class=monotone-no-interior-fixed-point" in out


def test_analyze_three_inflection_graph6(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--graph6", "F?L^_")
    assert code == 0
    assert out.count("inflection:") == 3


def test_analyze_json_validates_against_schema(capsys):
    schema = json.loads(SCHEMA_PATH.read_text())
    for selector in ["path:6", "complete:5", "union(star:12,complete:1)", "empty:4",
                     "complete-bipartite:3,3", "bonded-complete-leaf:9"]:
        code, out, _ = run_inproc(capsys, "analyze", "--family", selector, "--json")
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_analyze_json_matches_text_numbers(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family", "path:6", "--json")
    doc = json.loads(out)
    assert doc["shape"]["class"] == "N"
    assert doc["shape"]["deriv_at_0"] == "6"
    assert doc["shape"]["deriv_at_1"] == "4"
    assert doc["coefficients"]["c"] == ["0", "6", "5", "4", "3", "2", "1"]
    assert doc["input"]["min_vertex_cut"] == 1


def test_analyze_edges_file(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(THREE_INFLECTION_ORDER7)
    code, out, _ = run_inproc(capsys, "analyze", "--edges", str(path))
    assert code == 0
    assert out.count("inflection:") == 3


def test_analyze_large_family_uses_closed_profile(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family", "cycle:50")
    assert code == 0
    assert "fixed-point witness: f(1/4) < 1/4 (2-connected)" in out


def test_analyze_nested_union(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family",
                              "union(union(path:2,path:3),star:4)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["family"] == "union(union(path:2,path:3),star:4)"
    assert doc["input"]["n"] == 9
    assert doc["input"]["min_vertex_cut"] == 0


@pytest.mark.parametrize("selector, line", [
    ("path:2", "    c3_wedges_minus_triangles: n/a"),
    ("empty:3", "  fixed-point witness: not defined (edgeless graph)"),
])
def test_analyze_text_of_what_does_not_apply(selector, line, capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family", selector)
    assert code == 0
    assert line in out.splitlines()


def test_analyze_selector_required(capsys):
    code, _, err = run_inproc(capsys, "analyze")
    assert code == 2
    code, _, err = run_inproc(capsys, "analyze", "--family", "path:6", "--graph6", "DQc")
    assert code == 2


def test_analyze_bad_inputs(capsys):
    assert run_inproc(capsys, "analyze", "--graph6", "~~~")[0] == 2
    assert run_inproc(capsys, "analyze", "--family", "heptagon:7")[0] == 2
    assert run_inproc(capsys, "analyze", "--family", "path:sixteen")[0] == 2
    assert run_inproc(capsys, "analyze", "--family", "complete:80")[0] == 2


@pytest.mark.parametrize("selector, message", [
    ("union(path:3,path:3,path:3)", "union takes two members, got 3"),
    ("path6", "family selector 'path6' needs kind:params"),
    ("union(path:3,,path:4)", "union takes two members, got 3"),
    ("union(,path:3,path:4)", "union takes two members, got 3"),
    ("union(path:3,path:4,)", "union takes two members, got 3"),
    ("union(path:3,union(path:2,path:2)",
     "unbalanced parentheses in 'union(path:3,union(path:2,path:2)'"),
    ("union(path:3,path:4))", "unbalanced parentheses in 'union(path:3,path:4))'"),
    ("union(path:3,path:4", "unbalanced parentheses in 'union(path:3,path:4'"),
    ("union(path:3)(path:4)",
     "union in 'union(path:3)(path:4)' does not close at the end of the selector"),
    ("union(path:3,path:4)x",
     "union in 'union(path:3,path:4)x' does not close at the end of the selector"),
    ("disjoint-union(path:3,path:4)x",
     "union in 'disjoint-union(path:3,path:4)x' does not close at the end of the selector"),
], ids=["three-members", "no-colon", "blank-middle", "blank-first", "blank-last",
        "unclosed-inner", "extra-close", "unclosed-outer", "text-after-close",
        "trailing-text", "disjoint-trailing-text"])
def test_analyze_bad_selector_named(capsys, selector, message):
    code, _, err = run_inproc(capsys, "analyze", "--family", selector)
    assert code == 2
    assert message in err


def test_analyze_enumeration_cap_named(capsys):
    code, _, err = run_inproc(capsys, "analyze", "--graph6", "~")
    assert code == 2


# -- coeffs ----------------------------------------------------------------------

def test_coeffs_path4(capsys):
    code, out, _ = run_inproc(capsys, "coeffs", "--family", "path:4")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "4", "3", "2", "1"]


def test_coeffs_complete4(capsys):
    code, out, _ = run_inproc(capsys, "coeffs", "--family", "complete:4")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "4", "6", "4", "1"]


def test_coeffs_star6_json(capsys):
    code, out, _ = run_inproc(capsys, "coeffs", "--family", "star:6", "--json")
    doc = json.loads(out)
    # d_{n-1} for the star equals 2s + n(n-1) - r(2n-r-1) with r=5, s=0
    assert doc["rows"][5]["d"] == str(0 + 6 * 5 - 5 * (12 - 5 - 1))


def test_coeffs_notes_at_small_orders(capsys):
    # at n <= 2 (and k = 2 of n = 3) the identities of k = n-1 and k = n
    # annotate rows that k = 0..3 would otherwise take
    notes = {}
    for family in ("complete:1", "complete:2", "path:3"):
        code, out, _ = run_inproc(capsys, "coeffs", "--family", family, "--json")
        assert code == 0
        notes[family] = [row["note"] for row in json.loads(out)["rows"]]
    assert notes == {
        "complete:1": ["", ""],
        "complete:2": ["[c0_zero: ok]", "[penultimate_noncut: ok]",
                       "[full_set_connected: ok]"],
        "path:3": ["[c0_zero: ok]", "[c1_order: ok]", "[penultimate_noncut: ok]",
                   "[full_set_connected: ok]"],
    }


# -- plot ------------------------------------------------------------------------

def test_plot_header_and_midpoint(capsys):
    code, out, _ = run_inproc(capsys, "plot", "--family", "complete:3", "--samples", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,value"
    assert lines[1] == "0,0"
    assert lines[2] == "0.5,0.875"
    assert lines[3] == "1,1"


def test_plot_sample_count(capsys):
    code, out, _ = run_inproc(capsys, "plot", "--family", "path:6", "--samples", "101")
    assert len(out.splitlines()) == 102


def test_plot_derivative_options(capsys):
    code, out, _ = run_inproc(capsys, "plot", "--family", "path:6", "--samples", "3",
                              "--which", "f1")
    assert code == 0
    assert out.splitlines()[1] == "0,6"
    code, out, _ = run_inproc(capsys, "plot", "--family", "complete:3", "--samples", "3",
                              "--which", "f2")
    assert out.splitlines()[1] == "0,-6"


def test_plot_m_shape_has_two_humps(capsys):
    code, out, _ = run_inproc(capsys, "plot", "--family", "union(star:20,complete:1)",
                              "--samples", "201")
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    rises = sum(1 for a, b in zip(values, values[1:]) if b > a)
    falls = sum(1 for a, b in zip(values, values[1:]) if b < a)
    assert rises and falls
    direction = [b > a for a, b in zip(values, values[1:])]
    switches = sum(1 for a, b in zip(direction, direction[1:]) if a != b)
    assert switches == 3  # up, down, up, down


def test_plot_needs_two_samples(capsys):
    assert run_inproc(capsys, "plot", "--family", "path:6", "--samples", "1")[0] == 2


def test_plot_out_file_and_determinism(tmp_path):
    a = run_cli("plot", "--family", "path:6", "--samples", "51")
    b = run_cli("plot", "--family", "path:6", "--samples", "51")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    out = tmp_path / "curve.csv"
    c = run_cli("plot", "--family", "path:6", "--samples", "51", "--out", str(out))
    assert c.returncode == 0
    assert out.read_text() == a.stdout


# -- census ----------------------------------------------------------------------

def test_census_order6(capsys):
    code, out, _ = run_inproc(capsys, "census", "--n", "6")
    assert code == 0
    assert "decrease: 37/112" in out


def test_census_json(capsys):
    code, out, _ = run_inproc(capsys, "census", "--n", "5", "--json")
    doc = json.loads(out)
    assert doc["total_connected"] == 21
    assert sum(doc["inflection_histogram"].values()) == 21


def test_census_input_file(fixtures_dir, capsys):
    code, out, _ = run_inproc(capsys, "census", "--input",
                              str(fixtures_dir / "connected_order6.g6"))
    assert code == 0
    assert "decrease: 37/112" in out


def test_census_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run_inproc(capsys, "census", "--input", str(path))
    assert code == 0
    assert "0 graphs" in out
    code, out, _ = run_inproc(capsys, "census", "--input", str(path), "--json")
    assert code == 0
    assert out == '{"order": null, "total_connected": 0}\n'


def test_census_input_skips_blank_lines(fixtures_dir, tmp_path, capsys):
    lines = (fixtures_dir / "connected_order6.g6").read_text().splitlines()
    path = tmp_path / "blank_lines.g6"
    path.write_text("\n" + "\n  \n".join(lines) + "\n\n")
    code, out, _ = run_inproc(capsys, "census", "--input", str(path))
    assert code == 0
    assert "order 6 census: 112 graphs" in out
    assert "decrease: 37/112" in out


def test_census_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("E?Bw\nE?$$\n")
    code, _, err = run_inproc(capsys, "census", "--input", str(path))
    assert code == 2
    assert "line 2" in err


def test_census_selector_exclusive(capsys):
    assert run_inproc(capsys, "census")[0] == 2
    assert run_inproc(capsys, "census", "--n", "5", "--input", "x.g6")[0] == 2


@pytest.mark.parametrize("args, message", [
    (["--n", "0", "--input", "connected_order6.g6"], "need exactly one of --n or --input"),
    (["--n", "0"], "connected-graph generation supports orders 2..8, got 0"),
], ids=["n0-and-input", "n0"])
def test_census_order_zero_is_an_order(fixtures_dir, capsys, args, message):
    # --n 0 is given, not absent: it conflicts with --input and is out of range
    args = [str(fixtures_dir / a) if a.endswith(".g6") else a for a in args]
    code, out, err = run_inproc(capsys, "census", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("args, message", [
    (["--exemplars", "-1"], "--exemplars must be at least 0, got -1"),
], ids=["exemplars-1"])
def test_census_rejects_out_of_range_counts(capsys, args, message):
    code, out, err = run_inproc(capsys, "census", "--n", "5", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_census_determinism():
    a = run_cli("census", "--n", "5", "--json")
    b = run_cli("census", "--n", "5", "--json")
    assert a.returncode == b.returncode == 0, a.stderr + b.stderr
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["order"] == 5
    assert doc["total_connected"] == 21  # connected graphs of order 5, OEIS A001349


# -- internal checks -------------------------------------------------------------

@pytest.fixture
def broken_deflation(monkeypatch):
    """Deflate every endpoint root at a point 1/7 off it, so the exact
    synthetic division fails its check (f - p always has the root p = 0)."""
    real = shape.deflate_root
    monkeypatch.setattr(shape, "deflate_root",
                        lambda coeffs, root: real(coeffs, root + Fraction(1, 7)))


def test_internal_check_names_graph_and_stage(capsys, broken_deflation):
    code, out, err = run_inproc(capsys, "analyze", "--family", "path:6")
    assert code == 1
    assert out == ""
    assert err.startswith("internal invariant violation: graph EhCG: f - p: ")
    assert "1/7 is not a root" in err


def test_census_internal_check_names_graph(capsys, broken_deflation):
    code, out, err = run_inproc(capsys, "census", "--n", "4")
    assert code == 1
    assert out == ""
    prefix = "internal invariant violation: graph "
    assert err.startswith(prefix)
    tag, _, rest = err[len(prefix):].partition(": ")
    assert parse_graph6(tag).n == 4
    assert rest.partition(": ")[0] in ("f'", "f''", "f - p")
    assert "is not a root" in rest


# -- verify ----------------------------------------------------------------------

def test_verify_single_check(capsys):
    code, out, _ = run_inproc(capsys, "verify", "--only", "path6")
    assert code == 0
    assert "PASS" in out and "path6-decrease-endpoints" in out


def test_verify_json(capsys):
    code, out, _ = run_inproc(capsys, "verify", "--only", "threshold", "--json")
    assert code == 0
    results = json.loads(out)
    assert results and all(r["passed"] for r in results)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("only", ["census-order-9", "census-order-8"])
def test_verify_only_matching_no_check_is_a_usage_error(capsys, json_flag, only):
    # census-order-8 runs only with --slow
    code, out, err = run_inproc(capsys, "verify", "--only", only, *json_flag)
    assert (code, out, err) == (2, "", f"error: no check matches --only {only!r}\n")


def test_verify_fails_on_tampered_expectation(capsys, monkeypatch):
    from relshape import verification

    monkeypatch.setitem(verification.CENSUS_EXPECTED, 6,
                        dict(verification.CENSUS_EXPECTED[6], decrease=38))
    code, out, _ = run_inproc(capsys, "verify", "--only", "census-order-6")
    assert code == 1
    assert "FAIL" in out
    assert "decrease 37 != 38" in out


# -- global behaviour ---------------------------------------------------------------

def test_analyze_tolerance_flag(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family", "path:6", "--json",
                              "--tol", "1e-6")
    assert code == 0 and json.loads(out)["tol"] == "1/1000000"


@pytest.mark.parametrize("command", [["census", "--n", "4"], ["verify", "--only", "path6"]],
                         ids=lambda command: command[0])
def test_tolerance_is_not_an_option_of(command, capsys):
    # census and verify read only shape invariants, which no bracket width moves
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, "--tol", "1"])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_bad_tolerance(capsys):
    assert run_inproc(capsys, "analyze", "--family", "path:6", "--tol", "zero")[0] == 2
    assert run_inproc(capsys, "analyze", "--family", "path:6", "--tol=-1e-9")[0] == 2


@pytest.mark.parametrize("text", ["inf", "-Infinity", "nan"])
def test_non_finite_tolerance_is_a_usage_error(capsys, text):
    code, out, err = run_inproc(capsys, "analyze", "--family", "path:4", f"--tol={text}")
    assert (code, out, err) == (2, "", f"error: invalid tolerance {text!r}\n")


@pytest.mark.parametrize("text", ["1e-4299", "1e4299"])
def test_tolerance_that_str_prints_is_accepted(capsys, text):
    code, out, _ = run_inproc(capsys, "analyze", "--family", "path:4", "--tol", text)
    assert code == 0 and out


@pytest.mark.parametrize("text", ["1e-4300", "1e4300"])
def test_tolerance_that_str_cannot_print_is_refused_up_front(capsys, monkeypatch, text):
    # 10**4300 has 4,301 digits, one more than str(int) prints by default
    analyzed = count_calls(monkeypatch, [cli], "analyze_profile")
    code, out, err = run_inproc(capsys, "analyze", "--family", "path:4", "--tol", text)
    assert (code, out, err) == (2, "", f"error: invalid tolerance {text!r}\n")
    assert analyzed == []


def test_huge_tolerance_exponent_is_refused_before_its_power_is_built():
    with pytest.raises(ValueError, match="invalid tolerance '1e10000000'"):
        cli.parse_tol("1e10000000")


def test_tolerance_below_the_float_range(capsys):
    code, out, _ = run_inproc(capsys, "analyze", "--family", "path:4", "--tol", "1e-400")
    assert code == 0 and out


def test_usage_error_exit_code():
    proc = run_cli()
    assert proc.returncode == 2


def test_module_entry_point():
    proc = run_cli("analyze", "--family", "complete:3")
    assert proc.returncode == 0
    assert "class=monotone-no-interior-fixed-point" in proc.stdout


COEFFS_PATH4 = ("coeffs", "--family", "path:4")


def declared_console_script():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return EntryPoint(name="relshape", value=scripts["relshape"], group="console_scripts")


def assert_same_as_inproc(capsys, proc):
    code, out, _ = run_inproc(capsys, *COEFFS_PATH4)
    assert code == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.encode()


def test_console_script(capsys):
    # Checks the [project.scripts] declaration and runs its target the way
    # the launcher that an install writes does: sys.exit(main()) with argv
    # taken from sys.argv.  Needs no install.
    ep = declared_console_script()
    assert ep.value == "relshape.cli:main"
    assert ep.load() is cli.main
    launcher = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    proc = subprocess.run([sys.executable, "-c", launcher, *COEFFS_PATH4],
                          capture_output=True, env=checkout_env())
    assert_same_as_inproc(capsys, proc)


@pytest.mark.skipif(shutil.which("relshape") is None,
                    reason="no relshape script on PATH (package not installed)")
def test_installed_console_script(capsys):
    proc = subprocess.run(["relshape", *COEFFS_PATH4], capture_output=True,
                          env=checkout_env())
    assert_same_as_inproc(capsys, proc)
