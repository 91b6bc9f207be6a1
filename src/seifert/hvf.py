"""Existence of horizontal vector fields on Seifert fiber spaces.

A vector field on a Seifert fiber space is horizontal when it is nowhere
tangent to the fibers.  Such a field exists exactly when either

  * the base orbifold is the 2-torus or the Klein bottle, so a nowhere-zero
    vector field on the base composes with the projection (the degree-zero
    "section" mechanism), or
  * the fibering admits a fiberwise covering of some non-zero degree ``d``
    onto the unit tangent bundle of its base.

The covering degrees form the "allowable degree set" D computed here: each
exceptional fiber imposes ``d * b_i = -1 (mod a_i)``, and for a closed
fibering the Euler numbers pin ``d * e = chi``.  With boundary, the Euler
condition disappears and only the congruences remain, so one function,
``decide_hvf``, decides closed and bounded fiberings alike.  The pin
decides first: a closed fibering with ``e != 0`` has one candidate, ``d =
chi/e``, tested against each fiber's congruence, and one with ``e = 0`` has
none unless ``chi = 0``.  Only where the answer is a class, with boundary
or when ``e = chi = 0``, does ``_merge`` fold the congruences into one class
``d = r (mod m)``, in input order, one modular inverse per cone point; a
decision with no field runs it too, to name a clash.  The Euler pin is
integer arithmetic: multiplied by the product P of the alphas, ``d * e =
chi`` reads ``d * -sum(b_i P/a_i) = chi_u P - sum((a_i - 1) P/a_i)``, so no
orbifold and no fraction is built unless a decision with no field reports a
mismatch.  The fold that gives e and chi over P is ``invariant._fold``,
which the report reads as well; a decision folds once.  The covering target,
the base's unit tangent bundle, is the canonical form that
``invariant._unit_tangent`` builds, as ``unit_tangent_invariant`` is.
"""

from __future__ import annotations

import math

from ._record import Record
from .invariant import SeifertInvariant, _chi_underlying, _fold, _fraction, _unit_tangent

__all__ = [
    "EmptyDegrees",
    "SingleDegree",
    "DegreeProgression",
    "DegreeSet",
    "SurfaceSection",
    "Covering",
    "CongruenceClash",
    "EulerMismatch",
    "HvfDecision",
    "allowable_degrees",
    "decide_hvf",
    "boundary_tangency",
]


class EmptyDegrees(Record):
    """No covering degree works.

    ``include_zero`` is set only by the homotopy catalog, where the section
    mechanism contributes the lone degree 0 even though no covering exists.
    """

    __slots__ = ("include_zero",)
    include_zero: bool
    _defaults = {"include_zero": False}

    def contains(self, d: int) -> bool:
        return d == 0 and self.include_zero

    def is_empty(self) -> bool:
        return not self.include_zero


class SingleDegree(Record):
    """Exactly one covering degree, pinned by the Euler condition."""

    __slots__ = ("d",)
    d: int

    def contains(self, d: int) -> bool:
        return d == self.d

    def is_empty(self) -> bool:
        return False


class DegreeProgression(Record):
    """All non-zero ``d = residue (mod modulus)``, plus 0 when ``include_zero``."""

    __slots__ = ("residue", "modulus", "include_zero")
    residue: int
    modulus: int
    include_zero: bool
    _defaults = {"include_zero": False}

    def contains(self, d: int) -> bool:
        if d == 0:
            return self.include_zero
        return d % self.modulus == self.residue

    def is_empty(self) -> bool:
        return False


DegreeSet = EmptyDegrees | SingleDegree | DegreeProgression


class SurfaceSection(Record):
    """Horizontal field pulled back from a nowhere-zero vector field on the base."""

    __slots__ = ()


class Covering(Record):
    """Horizontal fields arising from fiberwise coverings of the base's unit
    tangent bundle, one family per allowable degree."""

    __slots__ = ("degrees", "target")
    degrees: DegreeSet
    target: SeifertInvariant


class CongruenceClash(Record):
    """Exceptional fibers ``i`` and ``j`` impose incompatible degree congruences."""

    __slots__ = ("i", "j")
    i: int
    j: int


class EulerMismatch(Record):
    """The congruences are solvable but no degree satisfies ``d * e = chi``.

    ``pin`` is the forced value chi/e when that ratio is an integer (it may
    be zero or sit outside the congruence class), and None otherwise.
    """

    __slots__ = ("euler", "chi", "pin")
    euler: Fraction
    chi: Fraction
    pin: int | None


class HvfDecision(Record):
    """Verdict plus the mechanisms that realize it; when no horizontal vector
    field exists, ``obstruction`` names the first failed condition."""

    __slots__ = ("exists", "mechanisms", "obstruction")
    exists: bool
    mechanisms: tuple
    obstruction: CongruenceClash | EulerMismatch | None


# records are immutable, so every empty result of ``_solve`` is this one
_EMPTY = EmptyDegrees()


def _merge(pairs):
    """The congruences ``d * b = -1 (mod a)`` merged in input order into one
    class ``d = r (mod m)``, ``r`` in ``[0, m)``, as ``(r, m)``; or the index
    ``j`` of the first pair that contradicts the merge of the pairs before
    it.  One gcd and one modular inverse per cone point; ``a = 1`` imposes
    nothing and is skipped."""
    r, m = 0, 1
    for j, (a, b) in enumerate(pairs):
        if a == 1:
            continue
        # d = r + m*t solves pair j when m*b*t = -c (mod a); b is a unit mod
        # a, so this needs g | c, and then fixes t modulo a/g
        g = math.gcd(m, a)
        c = 1 + r * b
        if c % g:
            return j
        step = a // g  # coprime to m // g
        r += m * (-(c // g) * pow(m // g * b, -1, step) % step)
        m *= step
    return r, m


def _solve(inv: SeifertInvariant, fold) -> DegreeSet:
    """The degree set of ``inv``, given ``fold = _fold(inv)`` when closed and
    None with boundary: the Euler pin first, and the merge only where the
    answer is a class.  Every empty set is the one ``_EMPTY``."""
    if fold is not None:
        # over the product P of the alphas: e = -eb/P and chi = x/P
        eb, x, _ = fold
        if eb:
            # d * e = chi is d * -eb = x
            if x % eb:
                return _EMPTY
            pin = -x // eb
            if not pin:
                return _EMPTY
            for a, b in inv.pairs:
                if (pin * b + 1) % a:
                    return _EMPTY
            return SingleDegree(pin)
        if x:
            return _EMPTY
    merged = _merge(inv.pairs)
    if isinstance(merged, int):
        return _EMPTY
    return DegreeProgression(*merged)


def allowable_degrees(inv: SeifertInvariant) -> DegreeSet:
    """Degrees of fiberwise coverings onto the base's unit tangent bundle.

    Each pair demands ``d = -b_i^{-1} (mod a_i)``.  Closed case: the Euler
    condition ``d * e = chi`` decides first.  A non-zero Euler number pins
    ``d = chi/e``, a single degree, valid only if it is a non-zero integer
    that meets every pair's congruence; ``e = 0`` admits nothing when
    ``chi != 0``.  Only where the answer is a class, with boundary or when
    ``e = chi = 0``, do the congruences merge into one; its modulus is the
    lcm of the alphas.  A failed condition builds no record: every empty set
    is one shared ``EmptyDegrees()``.
    """
    return _solve(inv, _fold(inv) if inv.closed else None)


def decide_hvf(inv: SeifertInvariant) -> HvfDecision:
    """Decide existence of a horizontal vector field, closed or bounded.

    The section mechanism needs a bare base surface that carries a
    nowhere-zero vector field: any bounded one, or chi = 0 when closed (the
    torus and the Klein bottle).  The covering mechanism needs a non-empty
    degree set, decided as by ``allowable_degrees`` (the Euler pin first)
    from one fold; its target is the unit tangent bundle of the base, built
    in canonical form by ``invariant._unit_tangent``.  With no field, the
    congruence merge names the obstruction: the first pair ``j`` that
    contradicts the pairs before it gives a clash, and a gcd test on the
    earlier pairs names the first one that contradicts pair ``j`` on its
    own; with no clash the Euler condition failed.
    """
    cones = [a for a, _ in inv.pairs if a >= 2]
    mechanisms = []
    if not cones and (not inv.closed or _chi_underlying(inv.genus_code, inv.boundary_count) == 0):
        mechanisms.append(SurfaceSection())
    fold = _fold(inv) if inv.closed else None
    degrees = _solve(inv, fold)
    if not degrees.is_empty():
        target = _unit_tangent(inv.genus_code, inv.boundary_count, cones)
        mechanisms.append(Covering(degrees, target))
    if mechanisms:
        return HvfDecision(True, tuple(mechanisms), None)
    merged = _merge(inv.pairs)
    if isinstance(merged, int):
        # pairwise solvability implies joint solvability, so some earlier
        # pair clashes with pair j on its own; -b^{-1} is a bijection on the
        # units mod gcd(a_k, a), so the betas tell it directly
        j = merged
        a, b = inv.pairs[j]
        i = next(k for k, (ak, bk) in enumerate(inv.pairs[:j]) if (bk - b) % math.gcd(ak, a))
        obstruction = CongruenceClash(i, j)
    else:
        # the congruences hold, so the fibering is closed and d * e = chi failed
        eb, x, p = fold
        pin = -x // eb if eb and x % eb == 0 else None
        obstruction = EulerMismatch(_fraction(-eb, p), _fraction(x, p), pin)
    return HvfDecision(False, (), obstruction)


def boundary_tangency(inv: SeifertInvariant) -> bool:
    """Whether a horizontal field everywhere tangent (equivalently, everywhere
    transverse) to the boundary exists: exactly when the base has no cone
    point and its surface has chi 0, which with boundary means the annulus
    or the Mobius band."""
    if inv.closed:
        raise ValueError("boundary tangency needs an invariant with boundary")
    bare = not any(a >= 2 for a, _ in inv.pairs)
    return bare and _chi_underlying(inv.genus_code, inv.boundary_count) == 0
