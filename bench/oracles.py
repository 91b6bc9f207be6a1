"""Reference computations the benchmark checks the library against.

Nothing here imports ``seifert``: the formulas are re-derived from the raw
pairs so that a wrong answer in the library cannot also appear in its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ``scan_agrees`` scans three periods of the congruences on each side, as
# acceptance criterion 3 does, but a period of at most this many degrees, so
# that one check stays near a millisecond when the alphas have a large lcm.
MAX_PERIOD = 60


def cone_pairs(pairs):
    return [(a, b) for a, b in pairs if a >= 2]


def chi_of(genus_code: int, pairs, boundary: int) -> Fraction:
    """Euler characteristic of the base orbifold."""
    chi0 = (2 - 2 * genus_code if genus_code >= 0 else 2 + genus_code) - boundary
    return chi0 - sum(Fraction(a - 1, a) for a, _ in cone_pairs(pairs))


def euler_of(pairs) -> Fraction:
    return -sum((Fraction(b, a) for a, b in pairs), Fraction(0))


def euler_pin(genus_code: int, pairs):
    """``(euler_ok, pin)`` for a closed fibering: the Euler condition
    ``d * e == chi`` as a predicate on ``d``, and the forced ``d`` if any."""
    e, x = euler_of(pairs), chi_of(genus_code, pairs, 0)
    if e != 0:
        ratio = x / e
        pin = ratio.numerator if ratio.denominator == 1 else None
        return (lambda d: d == pin), pin
    return (lambda d: x == 0), None


def member(degrees: dict, d: int) -> bool:
    """Membership in a degree set given in the report's JSON form."""
    kind = degrees["kind"]
    if kind == "empty":
        return d == 0 and degrees["include_zero"]
    if kind == "single":
        return d == degrees["d"]
    if d == 0:
        return degrees["include_zero"]
    return d % degrees["modulus"] == degrees["residue"]


def scan_agrees(genus_code: int, pairs, boundary: int, degrees: dict) -> bool:
    """Brute-force the raw covering conditions over windows of degrees, as
    acceptance criterion 3 does, and compare with the claimed degree set."""
    cones = cone_pairs(pairs)
    half = 3 * min(math.lcm(*(a for a, _ in cones), 1), MAX_PERIOD)
    windows = [range(-half, half + 1)]
    if boundary:
        euler_ok = lambda d: True  # noqa: E731 - no Euler condition with boundary
    else:
        euler_ok, pin = euler_pin(genus_code, pairs)
        if pin is not None:
            windows.append(range(pin - half, pin + half + 1))
    for window in windows:
        for d in window:
            raw = d != 0 and euler_ok(d) and all((d * b + 1) % a == 0 for a, b in cones)
            if raw != member(degrees, d):
                return False
    return True


def classify(genus_code: int, pairs, boundary: int) -> dict:
    """Input properties of a fibering, decided from the raw pairs: whether
    two fibers' degree congruences clash, whether the Euler condition then
    fails, whether a horizontal vector field exists, and its shape."""
    cones = cone_pairs(pairs)
    classes = [((-pow(b, -1, a)) % a, a) for a, b in cones]
    clash = any(
        (r1 - r2) % math.gcd(m1, m2)
        for k, (r1, m1) in enumerate(classes)
        for r2, m2 in classes[:k]
    )
    if boundary:
        section = not cones
        covering = not clash
        mismatch = False
    else:
        section = not cones and genus_code in (1, -2)  # torus or Klein bottle
        euler_ok, pin = euler_pin(genus_code, pairs)
        if clash:
            covering = False
        elif pin is not None:
            covering = pin != 0 and all((pin * b + 1) % a == 0 for a, b in cones)
        else:
            covering = euler_ok(1)  # e == 0: the whole class iff chi == 0
        mismatch = not clash and not covering
    return {
        "clash": clash,
        "euler_mismatch": mismatch,
        "exists": section or covering,
        "bounded": bool(boundary),
        "lens_form": not boundary and genus_code == 0 and len(cones) <= 2,
    }


def residue_key(pairs) -> tuple:
    """The sorted ``(a, b mod a)`` tuple a degree merge depends on."""
    return tuple(sorted((a, b % a) for a, b in pairs if a >= 2))


def canonical(genus_code: int, pairs):
    """Canonical form: betas reduced into [0, a), alpha-1 pairs folded into
    the integer part ``b``, pairs sorted."""
    shift = 0
    reduced = []
    for a, b in pairs:
        q, r = divmod(b, a)
        shift += q
        if a >= 2:
            reduced.append((a, r))
    return genus_code, tuple(sorted(reduced)), shift


def unoriented_key(genus_code: int, pairs):
    """Canonical form up to orientation reversal (every beta negated)."""
    return min(
        canonical(genus_code, pairs),
        canonical(genus_code, [(a, -b) for a, b in pairs]),
    )


def _two_fiber(pairs):
    """``(a1, b1, a2, b2)`` of a genus-zero form with at most two exceptional
    fibers, the integer part folded into the first pair."""
    _, reduced, shift = canonical(0, pairs)
    (a1, b1), (a2, b2) = list(reduced) + [(1, 0)] * (2 - len(reduced))
    return a1, b1 + shift * a1, a2, b2


def lens_p(pairs) -> int:
    """``p = a1*b2 + a2*b1``."""
    a1, b1, a2, b2 = _two_fiber(pairs)
    return a1 * b2 + a2 * b1


def lens_q(pairs) -> int:
    """``q = a1'*b2 + a2*b1'`` for a Bezout companion with
    ``a1*b1' - b1*a1' = 1``, found by search rather than by ext_gcd."""
    a1, b1, a2, b2 = _two_fiber(pairs)
    a1p = next(t for t in range(a1 + 1) if (1 + b1 * t) % a1 == 0)
    b1p = (1 + b1 * a1p) // a1
    return a1p * b2 + a2 * b1p


def same_marking(p: int, q1: int, q2: int) -> bool:
    """Whether ``L(p, q1)`` and ``L(p, q2)`` are the same marked lens space."""
    if p == 0:
        return abs(q1) == 1 and abs(q2) == 1
    m = abs(p)
    return (q1 - q2) % m == 0 or (q1 * q2 - 1) % m == 0


def lens_has_hvf(p: int, q: int) -> bool:
    """A fibering of L(p, q) has a horizontal field iff p != 0 and q = -1 mod p."""
    return p != 0 and (q + 1) % abs(p) == 0


def four_case(p: int, q: int) -> str:
    """Theorem 1's verdict for the manifold L(p, q), p >= 0."""
    if p in (1, 2):
        return "all_have"
    if p >= 3 and q % p in (1, p - 1):
        return "mixed_infinite"
    if p >= 8 and p % 4 == 0 and q % p in (p // 2 + 1, p // 2 - 1):
        return "exactly_one"
    return "none_have"


def verdict_holds(case: str, with_hvf: int, without: int) -> bool:
    """Whether enumerated evidence is consistent with a four-case verdict."""
    if case == "all_have":
        return without == 0
    if case == "none_have":
        return with_hvf == 0
    if case == "mixed_infinite":
        return with_hvf > 0 and without > 0
    return with_hvf == 1
