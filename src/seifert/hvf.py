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
``decide_hvf``, decides closed and bounded fiberings alike.  Its ``_solve``
folds the congruences into one class ``d = r (mod m)``, pair by pair in
input order, with one modular inverse per pair, and then applies the Euler
pin.  It reports a failure as integers and builds no record, so only
``decide_hvf`` builds an obstruction, for a decision with no field.  The
Euler pin is integer arithmetic: multiplied by the product P of the alphas,
``d * e = chi`` reads ``d * -sum(b_i P/a_i) = chi_u P - sum((a_i - 1)
P/a_i)``, so no orbifold and no fraction is built unless a decision with no
field reports a mismatch.  The fold that gives e and chi over P is
``invariant._fold``, which the report reads as well.  The covering target,
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


def _solve(inv: SeifertInvariant):
    """The degree set of ``inv`` and, when it is empty, the first failed
    condition as integers.  The congruences ``d * b = -1 (mod a)`` merge in
    input order into one class ``d = r (mod m)``, ``r`` in ``[0, m)``.  The
    failure is None when the set is non-empty; an int ``j`` when pair ``j``
    is the first that contradicts the merge of the pairs before it; or the
    4-tuple ``(eb, x, P, pin)`` of an Euler mismatch ``d * -eb = x`` over
    the product P of the alphas.  Every empty set is the one ``_EMPTY``."""
    r, m = 0, 1
    for j, (a, b) in enumerate(inv.pairs):
        # d = r + m*t solves pair j when m*b*t = -c (mod a); b is a unit mod
        # a, so this needs g | c, and then fixes t modulo a/g
        g = math.gcd(m, a)
        c = 1 + r * b
        if c % g:
            return _EMPTY, j
        step = a // g  # coprime to m // g; a == 1 gives step 1 and t = 0
        r += m * (-(c // g) * pow(m // g * b, -1, step) % step)
        m *= step
    if not inv.closed:
        return DegreeProgression(r, m), None
    # over the product P of the alphas: e = -eb/P and chi = x/P
    eb, x, p = _fold(inv)
    if eb:
        # d * e = chi is d * -eb = x
        pin = -x // eb if x % eb == 0 else None
        if pin is not None and pin != 0 and pin % m == r:
            return SingleDegree(pin), None
        return _EMPTY, (eb, x, p, pin)
    if x == 0:
        return DegreeProgression(r, m), None
    return _EMPTY, (0, x, p, None)


def allowable_degrees(inv: SeifertInvariant) -> DegreeSet:
    """Degrees of fiberwise coverings onto the base's unit tangent bundle.

    Each pair demands ``d = -b_i^{-1} (mod a_i)``; the congruences merge into
    a single class when compatible.  Closed case: a non-zero Euler number
    pins ``d = chi/e`` (a single degree, valid only if it is a non-zero
    integer in the class), while ``e = 0`` admits the whole class if
    ``chi = 0`` and nothing otherwise.  With boundary the merged class is the
    answer; its modulus divides the lcm of the alphas.  A failed condition
    builds no record: every empty set is one shared ``EmptyDegrees()``.
    """
    return _solve(inv)[0]


def decide_hvf(inv: SeifertInvariant) -> HvfDecision:
    """Decide existence of a horizontal vector field, closed or bounded.

    The section mechanism needs a bare base surface that carries a
    nowhere-zero vector field: any bounded one, or chi = 0 when closed (the
    torus and the Klein bottle).  The covering mechanism needs a non-empty
    degree set; its target is the unit tangent bundle of the base, built in
    canonical form by ``invariant._unit_tangent``.  With no field, the
    obstruction is built here from the integers of ``_solve``.  For a clash
    at pair ``j``, a gcd test on the earlier pairs names the first one that
    contradicts pair ``j`` on its own.
    """
    cones = [a for a, _ in inv.pairs if a >= 2]
    mechanisms = []
    if not cones and (not inv.closed or _chi_underlying(inv.genus_code, inv.boundary_count) == 0):
        mechanisms.append(SurfaceSection())
    degrees, obstruction = _solve(inv)
    if not degrees.is_empty():
        target = _unit_tangent(inv.genus_code, inv.boundary_count, cones)
        mechanisms.append(Covering(degrees, target))
    if mechanisms:
        return HvfDecision(True, tuple(mechanisms), None)
    if isinstance(obstruction, int):
        # pairwise solvability implies joint solvability, so some earlier
        # pair clashes with pair j on its own; -b^{-1} is a bijection on the
        # units mod gcd(a_k, a), so the betas tell it directly
        j = obstruction
        a, b = inv.pairs[j]
        i = next(k for k, (ak, bk) in enumerate(inv.pairs[:j]) if (bk - b) % math.gcd(ak, a))
        obstruction = CongruenceClash(i, j)
    else:
        eb, x, p, pin = obstruction
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
