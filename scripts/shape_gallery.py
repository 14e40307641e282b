#!/usr/bin/env python3
"""Dump CSV curve data for the showcase shapes into an output directory.

Usage: python scripts/shape_gallery.py [--out-dir out] [--samples 501]

Emits: the N-shaped path of order 6, the nearly-complete graph with a pendant
vertex (decrease despite density), the M-shaped star-plus-isolated-vertex,
and one curve per tree of order 7 (all N-shaped).  Each CSV has a p,value
header and feeds any plotting tool directly.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relshape.census import generate_trees
from relshape.cli import main as relshape, parse_family
from relshape.graphs import make_family, to_graph6


def write_curve(path: Path, selector: list[str], samples: int) -> None:
    """``relshape plot`` of one graph into ``path``."""
    if relshape(["plot", *selector, "--samples", str(samples), "--out", str(path)]):
        raise SystemExit(f"plot {' '.join(selector)} failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--samples", type=int, default=501)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    showcase = {
        "path6": "path:6",
        "clique9_with_leaf": "bonded-complete-leaf:10",
        "star20_plus_vertex": "union(star:20,complete:1)",
    }
    for name, selector in showcase.items():
        write_curve(out_dir / f"{name}.csv", ["--family", selector], args.samples)
        print(f"{name}: degree {make_family(parse_family(selector)).n} curve")

    for tree in generate_trees(7):
        tag = to_graph6(tree).replace("?", "0").replace("|", "I")
        write_curve(out_dir / f"tree7_{tag}.csv", ["--graph6", to_graph6(tree)], args.samples)
    print(f"wrote {sum(1 for _ in generate_trees(7))} order-7 tree curves")
    print(f"output in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
