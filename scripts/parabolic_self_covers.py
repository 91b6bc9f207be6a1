"""Tabulate the fiberwise self-covers of the parabolic unit tangent bundles.

For each of the seven orbifolds with chi = 0, print the Seifert invariant of
its unit tangent bundle, whether the bundle equals its own orientation
reversal, and the congruence class of covering degrees.  Its exit codes are
those of ``seifert``: an unknown argument exits 2, and a reader that closes
stdout early ends it with 141 and nothing on stderr.
"""

import argparse
import sys

from seifert import (
    allowable_degrees,
    degree_set_json,
    degree_set_str,
    equal,
    klein_bottle,
    print_invariant,
    print_orbifold,
    projective_plane,
    reverse_orientation,
    sphere,
    torus,
    unit_tangent_invariant,
)
from seifert.cli import run

BASES = [
    torus(),
    klein_bottle(),
    sphere(2, 3, 6),
    sphere(2, 4, 4),
    sphere(3, 3, 3),
    sphere(2, 2, 2, 2),
    projective_plane(2, 2),
]


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(f"{'base':>10}  {'unit tangent bundle':<42} {'UT = -UT':<9} self-cover degrees")
    for base in BASES:
        ut = unit_tangent_invariant(base)
        symmetric = equal(ut, reverse_orientation(ut))
        degrees = degree_set_json(allowable_degrees(ut))
        print(
            f"{print_orbifold(base):>10}  {print_invariant(ut):<42} "
            f"{'yes' if symmetric else 'no':<9} {degree_set_str(degrees)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
