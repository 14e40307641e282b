import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES, checkout_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_shape_gallery_writes_one_curve_per_shape(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "shape_gallery.py"), "--out-dir", str(tmp_path),
         "--samples", "11"],
        capture_output=True, text=True, timeout=120, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    curves = sorted(tmp_path.glob("*.csv"))
    # three showcase shapes and the 11 trees of order 7
    assert len(curves) == 14
    assert len([c for c in curves if c.name.startswith("tree7_")]) == 11
    for curve in curves:
        lines = curve.read_text().splitlines()
        assert lines[0] == "p,value" and len(lines) == 12, curve.name


def test_output_hashes_are_reproducible():
    # the recorded hashes move whenever an analysis output moves
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_hashes.py"), "--max-order", "5"],
        capture_output=True, text=True, timeout=300, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # census orders 2..5, families-large, sparse-pool, planted-roots, gap-pairs;
    # three tols each; then one shape-checks line
    assert len(lines) == 25
    assert [line.split()[0] for line in lines[::3]] == [
        "census-order-2", "census-order-3", "census-order-4", "census-order-5",
        "families-large", "sparse-pool", "planted-roots", "gap-pairs", "shape-checks"]
    # the 30 connected graphs of orders 2..5 and the 200 sparse graphs
    assert lines[-1].startswith("shape-checks inputs=230 ")
    assert proc.stdout == (FIXTURES / "golden" / "output_hashes_order5.txt").read_text()
