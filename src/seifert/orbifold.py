"""Two-dimensional orbifolds whose singularities are cone points.

An orbifold here is a compact surface (orientable or not, possibly with
boundary) together with a finite multiset of cone orders.  The Euler
characteristic counts a cone point of order ``a`` as ``1/a`` of a point:

    chi(orbifold) = chi(underlying surface) - sum(1 - 1/a_i).

Closed orbifolds split into the bad ones (spheres with one cone point, or two
of unequal orders; not quotients of any surface) and the good ones, which are
elliptic, parabolic or hyperbolic according to the sign of chi.  The unit
tangent bundle of any closed orbifold is an oriented Seifert fiber space whose
Euler number equals chi.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction

from ._record import Record, integral
from .errors import BoundaryNotSupported
from .invariant import SeifertInvariant

__all__ = [
    "Orbifold",
    "base_orbifold",
    "GeometryClass",
    "sphere",
    "projective_plane",
    "torus",
    "klein_bottle",
    "annulus",
    "mobius_band",
    "chi_underlying",
    "chi",
    "is_bad",
    "geometry_class",
    "elliptic_family",
    "parabolic_family",
    "elliptic_orbifolds",
    "unit_tangent_invariant",
    "fiberings_over",
    "is_torus",
    "is_klein_bottle",
]


class Orbifold(Record):
    """A compact 2-orbifold with cone points.

    ``genus`` counts handles when orientable and cross caps when not (so a
    non-orientable orbifold needs ``genus >= 1``).  Cone orders of 1 are
    accepted and silently dropped, making the representation canonical.  The
    genus, cone orders and boundary count must be integral.
    """

    __slots__ = ("orientable", "genus", "cone_orders", "boundary_count")
    orientable: bool
    genus: int
    cone_orders: tuple[int, ...]
    boundary_count: int

    def __init__(self, orientable, genus, cone_orders=(), boundary_count=0):
        genus = integral(genus, "genus")
        boundary_count = integral(boundary_count, "boundary count")
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if not orientable and genus == 0:
            raise ValueError("a non-orientable surface has at least one cross cap")
        if boundary_count < 0:
            raise ValueError("boundary count must be non-negative")
        given = tuple(cone_orders)
        orders = tuple(int(a) for a in given)
        if orders != given:
            raise ValueError(f"cone orders must be integers, not {given!r}")
        if any(a < 1 for a in orders):
            raise ValueError("cone orders must be positive integers")
        object.__setattr__(self, "orientable", bool(orientable))
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "cone_orders", tuple(sorted(a for a in orders if a > 1)))
        object.__setattr__(self, "boundary_count", boundary_count)

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0


def _base_fields(inv: SeifertInvariant) -> tuple[bool, int, list[int], int]:
    """The base orbifold's fields, in ``Orbifold``'s order and canonical form:
    orientable of genus ``g`` for genus code ``g >= 0`` and with ``-g``
    cross caps otherwise, the sorted orders of the pairs with ``alpha >= 2``,
    and the fibering's boundary circles."""
    g = inv.genus_code
    return g >= 0, abs(g), sorted(a for a, _ in inv.pairs if a >= 2), inv.boundary_count


def base_orbifold(inv: SeifertInvariant) -> Orbifold:
    """The base orbifold of a fibering: orientable of genus ``g`` for genus
    code ``g >= 0`` and with ``-g`` cross caps otherwise, one cone point per
    pair with ``alpha >= 2``, and the fibering's boundary circles."""
    return Orbifold(*_base_fields(inv))


def sphere(*cone_orders: int) -> Orbifold:
    return Orbifold(True, 0, cone_orders)


def projective_plane(*cone_orders: int) -> Orbifold:
    return Orbifold(False, 1, cone_orders)


def torus() -> Orbifold:
    return Orbifold(True, 1)


def klein_bottle() -> Orbifold:
    return Orbifold(False, 2)


def annulus() -> Orbifold:
    return Orbifold(True, 0, (), 2)


def mobius_band() -> Orbifold:
    return Orbifold(False, 1, (), 1)


class GeometryClass(Enum):
    BAD = "bad"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def chi_underlying(orb: Orbifold) -> int:
    """Euler characteristic of the underlying surface, cone points forgotten."""
    if orb.orientable:
        return 2 - 2 * orb.genus - orb.boundary_count
    return 2 - orb.genus - orb.boundary_count


def chi(orb: Orbifold) -> Fraction:
    """Orbifold Euler characteristic, exact."""
    num, den = 0, 1  # running value of sum(1 - 1/a)
    for a in orb.cone_orders:
        num = num * a + (a - 1) * den
        den *= a
    return chi_underlying(orb) - Fraction(num, den)


def _require_closed(orb: Orbifold, what: str):
    if not orb.closed:
        raise BoundaryNotSupported(f"{what} is defined for closed orbifolds")


def _is_bad(orientable: bool, genus: int, cone_orders) -> bool:
    """The bad-orbifold rule on a closed orbifold's fields: a sphere with a
    single cone point, or with exactly two of different orders."""
    if not orientable or genus != 0:
        return False
    c = cone_orders
    return len(c) == 1 or (len(c) == 2 and c[0] != c[1])


def _geometry(orientable: bool, genus: int, cone_orders, x) -> GeometryClass:
    """The geometry class of a closed orbifold from its fields and ``x``, a
    number of the sign of chi: bad, or else elliptic/parabolic/hyperbolic as
    chi is positive, zero or negative."""
    if _is_bad(orientable, genus, cone_orders):
        return GeometryClass.BAD
    if x > 0:
        return GeometryClass.ELLIPTIC
    if x == 0:
        return GeometryClass.PARABOLIC
    return GeometryClass.HYPERBOLIC


def is_bad(orb: Orbifold) -> bool:
    """Whether the orbifold is not a quotient of any surface by a finite
    isometry group: a sphere with a single cone point, or with exactly two
    cone points of different orders."""
    _require_closed(orb, "the good/bad dichotomy")
    return _is_bad(orb.orientable, orb.genus, orb.cone_orders)


def geometry_class(orb: Orbifold) -> GeometryClass:
    """Bad, or else elliptic/parabolic/hyperbolic by the sign of chi."""
    _require_closed(orb, "the geometry class")
    return _geometry(orb.orientable, orb.genus, orb.cone_orders, chi(orb))


def elliptic_family(orb: Orbifold) -> tuple[str, int] | None:
    """The elliptic family containing the orbifold, or None.

    There are exactly four families: spheres with two equal cone orders
    ("pp", covering the bare sphere at p = 1), "22p", "23q" with q in 3..5,
    and projective planes with at most one cone point ("px").
    """
    _require_closed(orb, "the elliptic family")
    c = orb.cone_orders
    if orb.orientable and orb.genus == 0:
        if len(c) == 0:
            return ("pp", 1)
        if len(c) == 2 and c[0] == c[1]:
            return ("pp", c[0])
        if len(c) == 3 and c[0] == 2 and c[1] == 2:
            return ("22p", c[2])
        if len(c) == 3 and c[0] == 2 and c[1] == 3 and 3 <= c[2] <= 5:
            return ("23q", c[2])
    elif not orb.orientable and orb.genus == 1:
        if len(c) == 0:
            return ("px", 1)
        if len(c) == 1:
            return ("px", c[0])
    return None


def parabolic_family(orb: Orbifold) -> str | None:
    """The parabolic orbifold's name, or None.  There are exactly seven:
    the torus, the Klein bottle, 236, 244, 333, 2222, and 22x."""
    _require_closed(orb, "the parabolic family")
    c = orb.cone_orders
    if orb.orientable and orb.genus == 1 and not c:
        return "T2"
    if not orb.orientable and orb.genus == 2 and not c:
        return "K"
    if orb.orientable and orb.genus == 0:
        named = {(2, 3, 6): "236", (2, 4, 4): "244", (3, 3, 3): "333", (2, 2, 2, 2): "2222"}
        return named.get(c)
    if not orb.orientable and orb.genus == 1 and c == (2, 2):
        return "22x"
    return None


def elliptic_orbifolds(max_order: int) -> list[Orbifold]:
    """Every closed elliptic orbifold whose cone orders are at most
    ``max_order``: the sphere and the projective plane, then pp, 22p and px
    for each order p, then 23q."""
    orbs = [sphere(), projective_plane()]
    for p in range(2, max_order + 1):
        orbs += [sphere(p, p), sphere(2, 2, p), projective_plane(p)]
    return orbs + [sphere(2, 3, q) for q in (3, 4, 5) if q <= max_order]


def unit_tangent_invariant(orb: Orbifold) -> SeifertInvariant:
    """Seifert invariant of the unit tangent bundle of a closed orbifold.

    With ``n`` cone points of orders ``a_1..a_n`` on an underlying surface of
    Euler characteristic ``chi0``, the invariant is one integer pair
    ``(1, n - chi0)`` followed by ``(a_i, -1)`` for each cone point; this
    holds for bad orbifolds as well, and always gives Euler number chi(orb).
    """
    _require_closed(orb, "the unit tangent bundle invariant")
    g = orb.genus if orb.orientable else -orb.genus
    n = len(orb.cone_orders)
    pairs = ((1, n - chi_underlying(orb)),) + tuple((a, -1) for a in orb.cone_orders)
    return SeifertInvariant(g, pairs)


def fiberings_over(orb: Orbifold, b_range):
    """The closed fiberings over ``orb``: one per choice of a beta in
    ``[1, a)`` prime to each cone order ``a`` and of ``b`` in ``b_range``,
    the integer pair ``(1, b)`` appended when ``b != 0``."""
    _require_closed(orb, "the fibering enumeration")
    g = orb.genus if orb.orientable else -orb.genus
    choices = [[c for c in range(1, a) if math.gcd(a, c) == 1] for a in orb.cone_orders]
    for betas in itertools.product(*choices):
        cones = tuple(zip(orb.cone_orders, betas))
        for b in b_range:
            yield SeifertInvariant(g, cones + ((1, b),) if b else cones)


def is_torus(orb: Orbifold) -> bool:
    return orb.closed and orb.orientable and orb.genus == 1 and not orb.cone_orders


def is_klein_bottle(orb: Orbifold) -> bool:
    return orb.closed and not orb.orientable and orb.genus == 2 and not orb.cone_orders
