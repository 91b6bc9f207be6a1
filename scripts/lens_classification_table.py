"""Tabulate, for every lens space L(p, q) with p up to a bound, how many of
its Seifert fiberings carry a horizontal vector field, next to the counts
found by brute-force enumeration of its fiberings (each counted once, up to
isomorphism that may reverse orientation).  Its exit codes are those of
``seifert``: a bad --max-p or --bound exits 2 with one error line on stderr
before the header, so nothing on stdout, and a reader that closes stdout
early ends it with 141 and nothing on stderr.
"""

import argparse
import sys

from seifert import classify_lens, has_hvf, iter_lens_census, manifold_markings, print_invariant
from seifert.cli import run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=12)
    parser.add_argument("--bound", type=int, default=8, help="enumeration bound")
    args = parser.parse_args()
    _print_table(iter_lens_census(args.max_p, args.bound))  # refuses bad arguments before the header
    return 0


def _print_table(census):
    print(f"{'L(p,q)':>8}  {'verdict':<15} {'with':>5} {'without':>8}  witness")
    # fiberings with a field, per manifold by its first marking: its markings share them
    with_field = {}
    for (p, q), fiberings in census:
        verdict = classify_lens(p, q)
        manifold = manifold_markings(p, q)[0]
        if manifold not in with_field:
            with_field[manifold] = sum(map(has_hvf, fiberings))
        with_hvf = with_field[manifold]
        witness = print_invariant(verdict.witness) if verdict.witness else ""
        print(
            f"L({p},{q})".rjust(8)
            + f"  {verdict.case.value:<15} {with_hvf:>5} "
            + f"{len(fiberings) - with_hvf:>8}  {witness}"
        )


if __name__ == "__main__":
    sys.exit(run(main))
