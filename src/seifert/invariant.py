"""Seifert invariants of oriented circle fiberings.

An invariant ``(g; (a1,b1), ..., (an,bn))`` encodes the fibering obtained by
gluing ``n`` solid tori into the trivial circle bundle over a genus-``g``
surface with ``n`` disks removed, the torus ``i`` glued so its meridian wraps
``a_i`` times around the excised boundary circle and ``b_i`` times around the
fiber.  Non-negative ``g`` means an orientable base of genus ``g``; negative
``g`` means a non-orientable base with ``|g|`` cross caps.  The total space
is always oriented.

Two invariants describe the same fibering exactly when they are related by

  * re-ordering the pairs,
  * inserting or removing pairs ``(1, 0)``, and
  * adding integers to the ratios ``b_i/a_i`` while keeping their sum fixed
    (with boundary present, the sum need not be kept fixed).

``normalize`` picks one representative per equivalence class, and everything
else in this module is phrased in terms of that canonical form.
"""

from __future__ import annotations

import math

from ._record import Record, integral
from .errors import BoundaryNotSupported, MixedBoundary, NotCoprime, ZeroDegree

__all__ = [
    "SeifertInvariant",
    "CanonicalForm",
    "AlternateFibering",
    "normalize",
    "equal",
    "euler_number",
    "reverse_orientation",
    "fiberwise_quotient",
    "alternate_fiberings",
]


class SeifertInvariant(Record):
    """``(g; (a1,b1), ..., (an,bn))`` with an optional boundary count.

    Every pair needs ``a_i >= 1`` and ``gcd(a_i, b_i) = 1``; violating pairs
    raise NotCoprime with the offending index.  Every number must be
    integral: ``Fraction(2)`` becomes 2, while 2.5 raises ValueError.  A
    tuple of pairs of plain ints that passes these checks is stored as
    given; any other input is converted field by field.
    """

    __slots__ = ("genus_code", "pairs", "boundary_count")
    genus_code: int
    pairs: tuple[tuple[int, int], ...]
    boundary_count: int

    def __init__(self, genus_code, pairs=(), boundary_count=0):
        if not _plain(genus_code, pairs, boundary_count):
            # the converting loop, and the only place that raises
            genus_code = integral(genus_code, "genus code")
            boundary_count = integral(boundary_count, "boundary count")
            checked = []
            for i, (a, b) in enumerate(pairs):
                ia, ib = int(a), int(b)
                if ia != a or ib != b:
                    raise ValueError(f"pair {i}: alpha and beta must be integers, not {(a, b)!r}")
                if ia < 1:
                    raise ValueError(f"pair {i}: alpha must be a positive integer")
                if math.gcd(ia, ib) != 1:
                    raise NotCoprime(i)
                checked.append((ia, ib))
            if boundary_count < 0:
                raise ValueError("boundary count must be non-negative")
            pairs = tuple(checked)
        object.__setattr__(self, "genus_code", genus_code)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "boundary_count", boundary_count)

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0


def _plain(genus_code, pairs, boundary_count) -> bool:
    """Whether the fields pass every check of ``SeifertInvariant`` as they
    are, so that converting them would change nothing: plain ints (``type(x)
    is int``, so no bool and no int subclass), a non-negative boundary count,
    and a tuple of 2-tuples with ``a >= 1`` and ``gcd(a, b) = 1``."""
    if type(genus_code) is not int or type(boundary_count) is not int or type(pairs) is not tuple:
        return False
    if boundary_count < 0:
        return False
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        a, b = pair
        if type(a) is not int or type(b) is not int or a < 1 or math.gcd(a, b) != 1:
            return False
    return True


class CanonicalForm(Record):
    """Normal form of an invariant.

    Every beta is reduced into ``[0, alpha)``, pairs with ``alpha = 1`` are
    dropped, and the pairs are sorted.  For a closed fibering the integer
    shifts stripped from the betas accumulate in ``b`` (the fibering is the
    canonical pairs together with one extra pair ``(1, b)``).  With boundary
    the shifts are free moves, so ``b`` is None.
    """

    __slots__ = ("genus_code", "boundary_count", "pairs", "b")
    genus_code: int
    boundary_count: int
    pairs: tuple[tuple[int, int], ...]
    b: int | None

    def invariant(self) -> SeifertInvariant:
        """A representative SeifertInvariant, the ``(1, b)`` pair first."""
        pairs = _with_shift(self.pairs, self.b)
        return SeifertInvariant(self.genus_code, pairs, self.boundary_count)


def _with_shift(pairs: tuple, b: int | None) -> tuple:
    """A representative's pairs: ``(1, b)``, unless b is 0 or None, then ``pairs``."""
    return ((1, b),) + pairs if b else pairs


def normalize(inv: SeifertInvariant) -> CanonicalForm:
    """Reduce an invariant to its canonical form.  Idempotent."""
    reduced = []
    shift = 0
    for a, b in inv.pairs:
        q, r = divmod(b, a)
        shift += q
        if a >= 2:
            reduced.append((a, r))
    reduced.sort()
    b = shift if inv.closed else None
    return CanonicalForm(inv.genus_code, inv.boundary_count, tuple(reduced), b)


def equal(a: SeifertInvariant, b: SeifertInvariant) -> bool:
    """Whether two invariants define the same fibering (same canonical form)."""
    if a.closed != b.closed:
        raise MixedBoundary("cannot compare a closed fibering with a bounded one")
    return normalize(a) == normalize(b)


_Fraction = None


def _fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)``, the one way the library builds a Fraction.
    ``fractions`` is imported on the first call, not with the package, so a
    query that builds none does not load it.  The class is kept after that:
    an import statement costs about 0.8 us each time it runs (CPython 3.11),
    which an Euler mismatch would pay twice."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(num, den)


def _chi_underlying(g: int, n: int) -> int:
    """Euler characteristic of the surface of genus code ``g`` with ``n``
    boundary circles, cone points forgotten: ``2 - 2g - n`` when orientable
    (``g >= 0``) and ``2 + g - n`` with ``-g`` cross caps.  The one statement
    of it: ``orbifold.chi_underlying``, the fold, ``_unit_tangent``, the
    section test and boundary tangency all read it.  It is 0 exactly on the
    bare surfaces that carry a nowhere-zero field (tangent to any boundary):
    the torus, the Klein bottle, the annulus and the Mobius band."""
    return (2 - 2 * g if g >= 0 else 2 + g) - n


def _fold(inv: SeifertInvariant) -> tuple[int, int, int]:
    """The Euler number and the base orbifold's chi over one denominator, the
    product P of the alphas: ``(eb, x, P)`` with ``e = -eb/P`` and ``chi =
    x/P``, from ``eb = sum(b_i P/a_i)`` and ``x = chi_u P - sum((a_i - 1)
    P/a_i)``.  Integer arithmetic only; neither ratio need be in lowest
    terms."""
    eb, cone, p = 0, 0, 1
    for a, b in inv.pairs:
        eb = eb * a + b * p
        cone = cone * a + (a - 1) * p
        p *= a
    return eb, _chi_underlying(inv.genus_code, inv.boundary_count) * p - cone, p


def _unit_tangent(g: int, n: int, cone_orders) -> SeifertInvariant:
    """The unit tangent bundle of the orbifold of genus code ``g``, ``n``
    boundary circles and cone orders ``a >= 2``, in canonical form: one
    ``(a, a - 1)`` per sorted cone order, after ``(1, -chi_u)`` when closed
    and ``chi_u != 0``.  Pair by pair it is ``(1, k - chi_u)`` for k cone
    points, then ``(a, -1)`` each.  ``_fold`` of it gives the orbifold's chi
    as ``x/P``, and when closed its Euler number is that chi.  The covering
    target, ``unit_tangent_invariant`` and every orbifold chi read it."""
    cones = tuple((a, a - 1) for a in sorted(cone_orders))
    return SeifertInvariant(g, _with_shift(cones, 0 if n else -_chi_underlying(g, n)), n)


def euler_number(inv: SeifertInvariant) -> Fraction:
    """The Euler number ``-sum(b_i / a_i)`` of a closed fibering.

    Invariant under the moves listed in the module docstring; with boundary
    the independent integer shifts make it meaningless, so bounded input is
    rejected.
    """
    return _fraction(*_euler_ratio(inv))


def _euler_ratio(inv: SeifertInvariant) -> tuple[int, int]:
    """The Euler number of a closed fibering as ``(-eb, P)`` off ``_fold``,
    not in lowest terms; bounded input is rejected as by ``euler_number``."""
    if not inv.closed:
        raise BoundaryNotSupported("Euler number is not defined with boundary")
    eb, _, p = _fold(inv)
    return -eb, p


def reverse_orientation(inv: SeifertInvariant) -> SeifertInvariant:
    """The same fibering on the oppositely oriented manifold: negate every beta."""
    if not inv.closed:
        raise BoundaryNotSupported("orientation reversal is defined for closed fiberings")
    return SeifertInvariant(inv.genus_code, tuple((a, -b) for a, b in inv.pairs))


def fiberwise_quotient(inv: SeifertInvariant, d: int) -> SeifertInvariant:
    """The fibering covered by ``inv`` with degree ``d``: each beta times ``d``.

    The quotient by the order-``d`` subgroup of the circle action is free (and
    the result a smooth Seifert fibering) only when ``d`` is coprime to every
    alpha; otherwise NotCoprime names the first offending pair.  The Euler
    number scales by ``d``.
    """
    if d == 0:
        raise ZeroDegree("covering degree must be non-zero")
    for i, (a, _) in enumerate(inv.pairs):
        if math.gcd(d, a) != 1:
            raise NotCoprime(i, f"degree {d} shares a factor with alpha {a} (pair {i})")
    return SeifertInvariant(
        inv.genus_code, tuple((a, d * b) for a, b in inv.pairs), inv.boundary_count
    )


class AlternateFibering(Record):
    """A different Seifert fibering carried by the same underlying manifold."""

    __slots__ = ("kind", "invariant", "note")
    kind: str  # "lens_dual", "klein_ut", or "lens_family"
    invariant: SeifertInvariant | None
    note: str


def _flip(a: int, b: int) -> tuple[int, int]:
    """The lens/prism duality on one non-zero ratio ``b/a``: the pair of
    ``a/b`` with a positive alpha, ``(|b|, sign(b) a)``.  It serves both
    directions."""
    return (b, a) if b > 0 else (-b, -a)


# The unit tangent bundles of the 2222 orbifold and of the Klein bottle, by
# canonical (genus code, pairs, b): the other one and the names of both bases.
_KLEIN_UT = {
    (0, ((2, 1),) * 4, -2): (_unit_tangent(-2, 0, ()), "2222 orbifold", "Klein bottle"),
    (-2, (), 0): (_unit_tangent(0, 0, (2,) * 4), "Klein bottle", "2222 orbifold"),
}


def alternate_fiberings(inv: SeifertInvariant) -> list[AlternateFibering]:
    """Other fiberings of the same closed oriented manifold, if any.

    Fiberings of closed oriented manifolds are unique up to isomorphism with
    three exceptions, matched here against the canonical form:

      * lens spaces: any genus-0 invariant with at most two exceptional
        fibers belongs to an infinite family of fiberings of one manifold
        (reported as a note; the lens module enumerates them);
      * the duality (0; (2,1), (2,-1), (a3,b3)) <-> (-1; (a1,b1)) with
        b3/a3 = a1/b1, covering prism manifolds and the remaining lens
        fiberings over the projective plane;
      * the unit tangent bundles of the 2222 orbifold and of the Klein
        bottle, which are diffeomorphic as manifolds.

    An empty list means the fibering is the unique one on its manifold.
    """
    if not inv.closed:
        raise BoundaryNotSupported("alternate fiberings are cataloged for closed fiberings")
    cf = normalize(inv)
    g, pairs = cf.genus_code, cf.pairs
    out: list[AlternateFibering] = []
    # the duality, read on either side: on the genus-0 side (2,1), (2,1)
    # with shift b is (2,1), (2,-1) with shift b + 1
    rest = None
    if g == 0 and pairs[:2] == ((2, 1), (2, 1)):
        rest, shift, head, side = pairs[2:], cf.b + 1, (), "a non-orientable base"
    elif g == -1:
        rest, shift, head, side = pairs, cf.b, ((2, 1), (2, -1)), "a genus-0 base"
    if rest is not None and len(rest) <= 1:
        a, c = rest[0] if rest else (1, 0)
        b = c + shift * a  # the remaining ratio b/a, with the shift
        if b:
            # genus codes 0 and -1 trade places
            dual = SeifertInvariant(-1 - g, head + (_flip(a, b),))
            note = f"the same manifold also fibers over {side}"
            out.append(AlternateFibering("lens_dual", dual, note))
    if (g, pairs, cf.b) in _KLEIN_UT:
        partner, base, other = _KLEIN_UT[g, pairs, cf.b]
        note = (
            f"unit tangent bundle of the {base}; diffeomorphic as a manifold to the "
            f"unit tangent bundle of the {other}"
        )
        out.append(AlternateFibering("klein_ut", partner, note))
    if g == 0 and len(pairs) <= 2:
        note = (
            "fibered marked lens space; the manifold carries infinitely many "
            "fiberings (see lens.enumerate_lens_fiberings)"
        )
        out.append(AlternateFibering("lens_family", None, note))
    return out
