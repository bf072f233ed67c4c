#!/usr/bin/env python3
"""Emit the census table of all surfaces below an area threshold.

CSV by default; --format md produces a markdown table for notes.  Records
are sorted by (area, m, c, r), so diffs between runs are meaningful.
"""

import argparse
import csv
import sys

from bianchisurf.census import enumerate_surfaces


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("d", type=int)
    ap.add_argument("X", help="area threshold, decimal string")
    ap.add_argument("--format", choices=("csv", "md"), default="csv")
    ns = ap.parse_args(argv)

    records = enumerate_surfaces(ns.d, ns.X)
    header = ["m", "c", "r", "d0", "D", "area/pi", "area"]
    rows = [
        [t.m, t.c, t.r, t.d0, t.D, f"{t.q.numerator}/{t.q.denominator}", t.area().decimal(12)]
        for t in records
    ]
    if ns.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for row in rows:
            print("| " + " | ".join(str(v) for v in row) + " |")
    print(f"# {len(records)} surfaces below {ns.X} for d={ns.d}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
