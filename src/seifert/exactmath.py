"""Exact integer arithmetic primitives.

All quantities in this library are integers or exact rationals; ``Rational``
is an alias for the standard-library ``fractions.Fraction``, which already
keeps values reduced with a positive denominator.  The functions here supply
the number theory the decision procedure needs: an extended gcd with a fixed
tie-break, modular inverses, and intersection of congruence classes over
moduli that need not be coprime.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rational

from .errors import NotInvertible

__all__ = ["Rational", "ext_gcd", "mod_inverse", "crt_merge"]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(|a|, |b|)``.

    Among all Bezout pairs, the returned one has ``|x|`` minimal, ties broken
    toward ``x >= 0``, and then ``|y|`` minimal.  Fixing the choice makes
    every quantity derived from a Bezout coefficient (notably lens-space
    markings) reproducible across runs.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    g, x, y = old_r, old_s, old_t
    if g < 0:
        g, x, y = -g, -x, -y
    if g == 0:
        return 0, 0, 0
    if b == 0:
        return g, x, 0  # x = sign(a) is forced; y is free, so take 0
    step = abs(b // g)  # x is determined modulo this
    x_mod = x % step
    x = x_mod if 2 * x_mod <= step else x_mod - step
    y = (g - a * x) // b
    return g, x, y


def mod_inverse(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``, in ``[0, m)``.

    ``m = 1`` is the trivial modulus and yields 0.  Raises NotInvertible when
    ``gcd(a, m) != 1``.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible modulo {m}") from None


def crt_merge(c1: tuple[int, int], c2: tuple[int, int]) -> tuple[int, int] | None:
    """Intersect the classes ``d = r1 (mod m1)`` and ``d = r2 (mod m2)``.

    Each class is a ``(residue, modulus)`` pair with a positive modulus; the
    residue may be any integer.  Returns the intersection as ``(r, lcm)``
    with ``r`` in ``[0, lcm)``, or ``None`` when it is empty.  The system is
    solvable exactly when ``r1 == r2 (mod gcd(m1, m2))``; the moduli need not
    be coprime.
    """
    r1, m1 = c1
    r2, m2 = c2
    if m1 < 1 or m2 < 1:
        raise ValueError("modulus must be positive")
    g = math.gcd(m1, m2)
    if (r1 - r2) % g:
        return None
    step = m2 // g
    k = (r2 - r1) // g * pow(m1 // g, -1, step) % step
    lcm = m1 * step
    return (r1 + m1 * k) % lcm, lcm
