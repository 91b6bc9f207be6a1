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
``d = r (mod m)``, in input order, one modular inverse per cone point.  A
decision with no field names a clash by one pairwise scan: congruences are
jointly solvable exactly when every two of them are, and two clash exactly
when their betas differ modulo the gcd of their alphas.  The Euler pin is
integer arithmetic: multiplied by the product P of the alphas, ``d * e =
chi`` reads ``d * -sum(b_i P/a_i) = chi_u P - sum((a_i - 1) P/a_i)``, so no
orbifold and no fraction is built unless ``decide_hvf`` reports a mismatch.
The fold that gives e and chi over P is ``invariant._fold``; a decision
folds once.  The covering target, the base's unit tangent bundle, is the
canonical form that ``invariant._unit_tangent`` builds, as
``unit_tangent_invariant`` is.

One body, ``_verdict``, decides: given the fold, it returns the mechanisms
and, for a congruence clash, the two fiber indices as integers.
``decide_hvf`` wraps it in records and is the one builder of the
obstruction records and of a mismatch's two Fractions.  The report passes
the fold it already holds for e and chi, and renders its verdict itself;
the homotopy catalog reads the mechanisms.  ``has_hvf`` answers yes or no
from the same section test, ``_section``, and the same solve, and builds
no record.
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
    "has_hvf",
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


def _section(inv: SeifertInvariant) -> bool:
    """Whether the section mechanism fires: no cone point, over a bare base
    surface that carries a nowhere-zero vector field, which is any bounded
    one, or one with chi = 0 when closed (the torus and the Klein bottle)."""
    if inv.closed and _chi_underlying(inv.genus_code, 0):
        return False
    return all(a == 1 for a, _ in inv.pairs)


def _pin(eb: int, x: int) -> int | None:
    """The forced degree ``chi/e = -x/eb`` of a closed fibering, given its
    fold's ``eb`` and ``x``, when that ratio is an integer; None otherwise."""
    return -x // eb if eb and x % eb == 0 else None


def _verdict(inv: SeifertInvariant, fold) -> tuple[tuple, tuple[int, int] | None]:
    """The one decision body, given ``fold = _fold(inv)`` when closed and
    None with boundary: ``(mechanisms, clash)``.  ``clash`` is the pair of
    fiber indices ``(i, j)`` when a congruence clash blocks the field, and
    None otherwise, so no mechanism and no clash is an Euler mismatch.  It
    builds no obstruction record and no Fraction.

    With no field, ``j`` is the first pair that clashes with an earlier one
    and ``i`` the first earlier pair it clashes with.  Congruences are
    jointly solvable exactly when every two are, so that ``j`` is the first
    pair that contradicts the merge of the pairs before it, as ``_merge``
    would name it; two pairs clash exactly when ``(b_i - b_j) % gcd(a_i,
    a_j)`` is non-zero, since ``-b^{-1}`` is a bijection on the units mod
    that gcd.  A pair with ``a = 1`` clashes with none."""
    mechanisms = []
    if _section(inv):
        mechanisms.append(SurfaceSection())
    degrees = _solve(inv, fold)
    if degrees is not _EMPTY:
        cones = [a for a, _ in inv.pairs if a >= 2]
        target = _unit_tangent(inv.genus_code, inv.boundary_count, cones)
        mechanisms.append(Covering(degrees, target))
    if mechanisms:
        return tuple(mechanisms), None
    pairs = inv.pairs
    for j, (a, b) in enumerate(pairs):
        for i in range(j):
            ai, bi = pairs[i]
            if (bi - b) % math.gcd(ai, a):
                return (), (i, j)
    # the congruences hold, so the fibering is closed and d * e = chi failed
    return (), None


def has_hvf(inv: SeifertInvariant) -> bool:
    """Whether the fibering carries a horizontal vector field, closed or
    bounded: ``decide_hvf(inv).exists``, by the same section test and the
    same solve, with no record built."""
    return _section(inv) or _solve(inv, _fold(inv) if inv.closed else None) is not _EMPTY


def decide_hvf(inv: SeifertInvariant) -> HvfDecision:
    """Decide existence of a horizontal vector field, closed or bounded.

    The section mechanism needs a bare base surface that carries a
    nowhere-zero vector field: any bounded one, or chi = 0 when closed (the
    torus and the Klein bottle).  The covering mechanism needs a non-empty
    degree set, decided as by ``allowable_degrees`` (the Euler pin first)
    from one fold; its target is the unit tangent bundle of the base, built
    in canonical form by ``invariant._unit_tangent``.  With no field, one
    pairwise gcd test names the obstruction: the first pair ``j`` that
    clashes with an earlier pair, and the first such earlier pair ``i``,
    give a clash; with no clash the Euler condition failed.  The decision is
    ``_verdict``'s, which the report reads too; this function adds only the
    records, and is the one builder of the obstruction records and the
    mismatch's two Fractions.
    """
    fold = _fold(inv) if inv.closed else None
    mechanisms, clash = _verdict(inv, fold)
    if mechanisms:
        return HvfDecision(True, mechanisms, None)
    if clash is not None:
        return HvfDecision(False, (), CongruenceClash(*clash))
    eb, x, p = fold
    return HvfDecision(False, (), EulerMismatch(_fraction(-eb, p), _fraction(x, p), _pin(eb, x)))


def boundary_tangency(inv: SeifertInvariant) -> bool:
    """Whether a horizontal field everywhere tangent (equivalently, everywhere
    transverse) to the boundary exists: exactly when the base has no cone
    point and its surface has chi 0, which with boundary means the annulus
    or the Mobius band."""
    if inv.closed:
        raise ValueError("boundary tangency needs an invariant with boundary")
    bare = not any(a >= 2 for a, _ in inv.pairs)
    return bare and _chi_underlying(inv.genus_code, inv.boundary_count) == 0
