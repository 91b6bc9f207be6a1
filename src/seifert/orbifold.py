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

An orbifold names its underlying surface by its genus code, the integer a
``SeifertInvariant`` names its base by: the genus ``g >= 0`` of an orientable
surface, or minus the number of cross caps.  The rules here read that code,
so the report, which reads the invariant and builds no ``Orbifold``, applies
the same rules.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum

from ._record import Record, integral
from .errors import BoundaryNotSupported
from .invariant import SeifertInvariant, _chi_underlying, _fold, _fraction, _unit_tangent

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
]


class Orbifold(Record):
    """A compact 2-orbifold with cone points.

    ``genus_code`` is the genus ``g >= 0`` of an orientable surface or minus
    the number of cross caps, as in ``SeifertInvariant``; every integer names
    a surface.  Cone orders of 1 are accepted and silently dropped, making the
    representation canonical.  The genus code, cone orders and boundary count
    must be integral.
    """

    __slots__ = ("genus_code", "cone_orders", "boundary_count")
    genus_code: int
    cone_orders: tuple[int, ...]
    boundary_count: int

    def __init__(self, genus_code, cone_orders=(), boundary_count=0):
        genus_code = integral(genus_code, "genus code")
        boundary_count = integral(boundary_count, "boundary count")
        if boundary_count < 0:
            raise ValueError("boundary count must be non-negative")
        given = tuple(cone_orders)
        orders = tuple(int(a) for a in given)
        if orders != given:
            raise ValueError(f"cone orders must be integers, not {given!r}")
        if any(a < 1 for a in orders):
            raise ValueError("cone orders must be positive integers")
        self._store(genus_code, tuple(sorted(a for a in orders if a > 1)), boundary_count)

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0


def base_orbifold(inv: SeifertInvariant) -> Orbifold:
    """The base orbifold of a fibering: its genus code, one cone point per
    pair with ``alpha >= 2``, and the fibering's boundary circles."""
    return Orbifold(inv.genus_code, [a for a, _ in inv.pairs if a >= 2], inv.boundary_count)


def sphere(*cone_orders: int) -> Orbifold:
    return Orbifold(0, cone_orders)


def projective_plane(*cone_orders: int) -> Orbifold:
    return Orbifold(-1, cone_orders)


def torus() -> Orbifold:
    return Orbifold(1)


def klein_bottle() -> Orbifold:
    return Orbifold(-2)


def annulus() -> Orbifold:
    return Orbifold(0, (), 2)


def mobius_band() -> Orbifold:
    return Orbifold(-1, (), 1)


class GeometryClass(Enum):
    BAD = "bad"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def chi_underlying(orb: Orbifold) -> int:
    """Euler characteristic of the underlying surface, cone points forgotten."""
    return _chi_underlying(orb.genus_code, orb.boundary_count)


def chi(orb: Orbifold) -> Fraction:
    """Orbifold Euler characteristic, exact."""
    _, x, p = _fold(_unit_tangent(orb.genus_code, orb.boundary_count, orb.cone_orders))
    return _fraction(x, p)


def _require_closed(orb: Orbifold, what: str):
    if not orb.closed:
        raise BoundaryNotSupported(f"{what} is defined for closed orbifolds")


def _is_bad(g: int, cone_orders) -> bool:
    """The bad-orbifold rule on a closed orbifold of genus code ``g`` and
    sorted cone orders: a sphere with a single cone point, or with exactly
    two of different orders."""
    c = cone_orders
    return g == 0 and (len(c) == 1 or (len(c) == 2 and c[0] != c[1]))


def _geometry(g: int, cone_orders, x) -> GeometryClass:
    """The geometry class of a closed orbifold from its genus code, its
    sorted cone orders and ``x``, a number of the sign of chi: bad, or else
    elliptic/parabolic/hyperbolic as chi is positive, zero or negative."""
    if _is_bad(g, cone_orders):
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
    return _is_bad(orb.genus_code, orb.cone_orders)


def geometry_class(orb: Orbifold) -> GeometryClass:
    """Bad, or else elliptic/parabolic/hyperbolic by the sign of chi."""
    _require_closed(orb, "the geometry class")
    _, x, _ = _fold(_unit_tangent(orb.genus_code, 0, orb.cone_orders))
    return _geometry(orb.genus_code, orb.cone_orders, x)


def elliptic_family(orb: Orbifold) -> tuple[str, int] | None:
    """The elliptic family containing the orbifold, or None.

    There are exactly four families: spheres with two equal cone orders
    ("pp", covering the bare sphere at p = 1), "22p", "23q" with q in 3..5,
    and projective planes with at most one cone point ("px").
    """
    _require_closed(orb, "the elliptic family")
    g, c = orb.genus_code, orb.cone_orders
    if g == 0:
        if len(c) == 0:
            return ("pp", 1)
        if len(c) == 2 and c[0] == c[1]:
            return ("pp", c[0])
        if len(c) == 3 and c[0] == 2 and c[1] == 2:
            return ("22p", c[2])
        if len(c) == 3 and c[0] == 2 and c[1] == 3 and 3 <= c[2] <= 5:
            return ("23q", c[2])
    elif g == -1:
        if len(c) == 0:
            return ("px", 1)
        if len(c) == 1:
            return ("px", c[0])
    return None


# the seven parabolic orbifolds, keyed by genus code and cone orders
_PARABOLIC = {
    (1, ()): "T2",
    (-2, ()): "K",
    (0, (2, 3, 6)): "236",
    (0, (2, 4, 4)): "244",
    (0, (3, 3, 3)): "333",
    (0, (2, 2, 2, 2)): "2222",
    (-1, (2, 2)): "22x",
}


def parabolic_family(orb: Orbifold) -> str | None:
    """The parabolic orbifold's name, or None.  There are exactly seven:
    the torus, the Klein bottle, 236, 244, 333, 2222, and 22x."""
    _require_closed(orb, "the parabolic family")
    return _PARABOLIC.get((orb.genus_code, orb.cone_orders))


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

    With cone points of orders ``a_i`` on an underlying surface of Euler
    characteristic ``chi0``, the bundle is ``(a_i, a_i - 1)`` per cone point
    after one integer pair ``(1, -chi0)``, dropped when ``chi0 = 0``: the
    canonical representative, so compare it with ``equal``.  This holds for
    bad orbifolds as well, and its Euler number is always chi(orb).
    """
    _require_closed(orb, "the unit tangent bundle invariant")
    return _unit_tangent(orb.genus_code, 0, orb.cone_orders)


def fiberings_over(orb: Orbifold, b_range):
    """The closed fiberings over ``orb``: one per choice of a beta in
    ``[1, a)`` prime to each cone order ``a`` and of ``b`` in ``b_range``,
    the integer pair ``(1, b)`` appended when ``b != 0``."""
    _require_closed(orb, "the fibering enumeration")
    g = orb.genus_code
    choices = [[c for c in range(1, a) if math.gcd(a, c) == 1] for a in orb.cone_orders]
    for betas in itertools.product(*choices):
        cones = tuple(zip(orb.cone_orders, betas))
        for b in b_range:
            yield SeifertInvariant(g, cones + ((1, b),) if b else cones)
