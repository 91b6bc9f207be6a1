"""Tabulate, for every lens space L(p, q) with p up to a bound, how many of
its Seifert fiberings carry a horizontal vector field, next to the counts
found by brute-force enumeration of its fiberings (each counted once, up to
isomorphism that may reverse orientation).  A bad --max-p or --bound exits
2 with one error line on stderr and nothing on stdout.  Exits 141 (128 +
SIGPIPE, as a shell reports it) with nothing on stderr when the reader
closes stdout early.
"""

import argparse
import os
import sys

from seifert import classify_lens, has_hvf, iter_lens_census, manifold_markings, print_invariant


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=12)
    parser.add_argument("--bound", type=int, default=8, help="enumeration bound")
    args = parser.parse_args()
    try:
        census = iter_lens_census(args.max_p, args.bound)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        _print_table(census)
        sys.stdout.flush()  # a buffered write fails here, not at exit
    except BrokenPipeError:
        # the reader closed stdout; devnull absorbs the flush at exit ("Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
    sys.exit(main())
