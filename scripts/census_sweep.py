#!/usr/bin/env python3
"""Sweep the connected-graph censuses and print one summary table per order.

Usage: python scripts/census_sweep.py [--max-order 7] [--jobs N] [--json OUT.json]

Order 8 takes about a minute; orders up to 7 run in seconds.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relshape.census import census_document, generate_connected, run_census


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-order", type=int, default=2)
    parser.add_argument("--max-order", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--json", help="write all summaries to this file")
    args = parser.parse_args()

    collected = {}
    for n in range(args.min_order, args.max_order + 1):
        start = time.monotonic()
        summary = run_census(generate_connected(n), jobs=args.jobs)
        elapsed = time.monotonic() - start
        collected[n] = summary
        print(f"order {n}: {summary.total_connected} connected graphs ({elapsed:.1f}s)")
        print(f"  decrease interval: {summary.with_decrease}/{summary.total_connected}")
        print("  inflections: " + " ".join(
            f"{k}:{v}" for k, v in summary.inflection_histogram.items()))
        print("  fixed points: " + " ".join(
            f"{k}:{v}" for k, v in summary.fixed_point_histogram.items()))
        print("  classes: " + " ".join(
            f"{k}:{v}" for k, v in summary.class_histogram.items()))
        three = summary.exemplars.get("inflections=3")
        if three:
            print(f"  three-inflection exemplars: {' '.join(three)}")

    if args.json:
        doc = {str(n): census_document(s) for n, s in collected.items()}
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
