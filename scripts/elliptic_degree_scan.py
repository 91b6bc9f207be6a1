"""Scan Seifert fiberings over elliptic orbifolds for fiberwise covers of the
unit tangent bundle, confirming that positive covering degrees never exceed
two and listing the two-fiber family where degree two occurs.  A scan with
no positive degree reports the largest as "none".  Its exit codes are those of
``seifert``: a negative --b-range exits 2, and a reader that closes stdout
early ends it with 141 and nothing on stderr.
"""

import argparse
import sys

from seifert import (
    SingleDegree,
    allowable_degrees,
    base_orbifold,
    elliptic_orbifolds,
    fiberings_over,
    print_invariant,
    print_orbifold,
)
from seifert.cli import run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=11)
    parser.add_argument("--b-range", type=int, default=32)
    args = parser.parse_args()
    if args.b_range < 0:
        parser.error("--b-range must be non-negative")

    hits = []
    scanned = 0
    for base in elliptic_orbifolds(args.max_order):
        for inv in fiberings_over(base, range(-args.b_range, args.b_range + 1)):
            scanned += 1
            degrees = allowable_degrees(inv)
            if isinstance(degrees, SingleDegree) and degrees.d > 0:
                hits.append((degrees.d, inv))
    top = max((d for d, _ in hits), default="none")
    print(f"scanned {scanned} fiberings; largest positive covering degree: {top}")
    print("\nfiberings that cover with degree 2:")
    for d, inv in hits:
        if d == 2:
            print(f"  {print_invariant(inv):<28} over {print_orbifold(base_orbifold(inv))}")
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
