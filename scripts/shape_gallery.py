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
from relshape.cli import fmt_dec
from relshape.connsets import count_connected_sets, family_profile
from relshape.graphs import FamilySpec, to_graph6
from relshape.poly import from_profile, sample


def write_curve(path: Path, coeffs, samples: int) -> None:
    points = sample(coeffs, samples)
    with open(path, "w", encoding="ascii") as out:
        out.write("p,value\n")
        for p, value in points:
            out.write(f"{fmt_dec(p, 12)},{fmt_dec(value, 12)}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--samples", type=int, default=501)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    showcase = {
        "path6": FamilySpec("path", (6,)),
        "clique9_with_leaf": FamilySpec("bonded-complete-leaf", (10,)),
        "star20_plus_vertex": FamilySpec(
            "disjoint-union",
            parts=(FamilySpec("star", (20,)), FamilySpec("complete", (1,)))),
    }
    for name, spec in showcase.items():
        poly = from_profile(family_profile(spec))
        write_curve(out_dir / f"{name}.csv", poly.coeffs, args.samples)
        print(f"{name}: degree {len(poly.coeffs) - 1} curve")

    for tree in generate_trees(7):
        tag = to_graph6(tree).replace("?", "0").replace("|", "I")
        poly = from_profile(count_connected_sets(tree))
        write_curve(out_dir / f"tree7_{tag}.csv", poly.coeffs, args.samples)
    print(f"wrote {sum(1 for _ in generate_trees(7))} order-7 tree curves")
    print(f"output in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
