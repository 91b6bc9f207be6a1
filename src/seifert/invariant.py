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
from fractions import Fraction

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
    integral: ``Fraction(2)`` becomes 2, while 2.5 raises ValueError.
    """

    __slots__ = ("genus_code", "pairs", "boundary_count")
    genus_code: int
    pairs: tuple[tuple[int, int], ...]
    boundary_count: int

    def __init__(self, genus_code, pairs=(), boundary_count=0):
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
        object.__setattr__(self, "genus_code", genus_code)
        object.__setattr__(self, "pairs", tuple(checked))
        object.__setattr__(self, "boundary_count", boundary_count)

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0


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
        pairs = self.pairs
        if self.b:
            pairs = ((1, self.b),) + pairs
        return SeifertInvariant(self.genus_code, pairs, self.boundary_count)


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


def _chi_underlying(g: int, n: int) -> int:
    """Euler characteristic of the surface of genus code ``g`` with ``n``
    boundary circles, cone points forgotten: ``2 - 2g - n`` when orientable
    (``g >= 0``) and ``2 + g - n`` with ``-g`` cross caps.  The one statement
    of it: ``orbifold.chi_underlying``, the fold, the section test and
    boundary tangency all read it.  It is 0 exactly on the bare surfaces that
    carry a nowhere-zero field (tangent to any boundary): the torus, the
    Klein bottle, the annulus and the Mobius band."""
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


def euler_number(inv: SeifertInvariant) -> Fraction:
    """The Euler number ``-sum(b_i / a_i)`` of a closed fibering.

    Invariant under the moves listed in the module docstring; with boundary
    the independent integer shifts make it meaningless, so bounded input is
    rejected.
    """
    if not inv.closed:
        raise BoundaryNotSupported("Euler number is not defined with boundary")
    eb, _, p = _fold(inv)
    return Fraction(-eb, p)


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
    out: list[AlternateFibering] = []

    if cf.genus_code == 0:
        pairs = cf.pairs
        # (0; (2,1), (2,-1), (a3,b3)) with the third pair read off canonically
        if len(pairs) in (2, 3) and pairs[0] == (2, 1) and pairs[1] == (2, 1):
            a3, c3 = pairs[2] if len(pairs) == 3 else (1, 0)
            b3 = c3 + (cf.b + 1) * a3
            if b3 != 0:
                dual = SeifertInvariant(-1, (_flip(a3, b3),))
                out.append(
                    AlternateFibering(
                        "lens_dual",
                        dual,
                        "the same manifold also fibers over a non-orientable base",
                    )
                )
        if pairs == ((2, 1), (2, 1), (2, 1), (2, 1)) and cf.b == -2:
            out.append(
                AlternateFibering(
                    "klein_ut",
                    SeifertInvariant(-2),
                    "unit tangent bundle of the 2222 orbifold; diffeomorphic as a "
                    "manifold to the unit tangent bundle of the Klein bottle",
                )
            )
        if len(pairs) <= 2:
            out.append(
                AlternateFibering(
                    "lens_family",
                    None,
                    "fibered marked lens space; the manifold carries infinitely many "
                    "fiberings (see lens.enumerate_lens_fiberings)",
                )
            )
    elif cf.genus_code == -1 and len(cf.pairs) <= 1:
        a1, c1 = cf.pairs[0] if cf.pairs else (1, 0)
        b1 = c1 + cf.b * a1
        if b1 != 0:
            dual = SeifertInvariant(0, ((2, 1), (2, -1), _flip(a1, b1)))
            out.append(
                AlternateFibering(
                    "lens_dual",
                    dual,
                    "the same manifold also fibers over a genus-0 base",
                )
            )
    elif cf.genus_code == -2 and not cf.pairs and cf.b == 0:
        out.append(
            AlternateFibering(
                "klein_ut",
                SeifertInvariant(0, ((1, -2), (2, 1), (2, 1), (2, 1), (2, 1))),
                "unit tangent bundle of the Klein bottle; diffeomorphic as a "
                "manifold to the unit tangent bundle of the 2222 orbifold",
            )
        )
    return out
