"""Connected components of the space of horizontal vector fields.

Over an oriented base orbifold, two horizontal vector fields are homotopic
through horizontal fields exactly when they have the same covering degree and
their angular difference, a map from the underlying surface to the circle, is
null-homotopic.  The components are therefore in bijection with pairs

    (allowable degree) x (first cohomology of the underlying surface),

where the cohomology is free abelian of rank ``2 * genus``.  The catalog is a
view of the one HVF decision, ``hvf._verdict``, whose mechanisms it reads: no
field means no catalog, the covering mechanism gives the degrees, and the
section mechanism (over an oriented base, only the bare 2-torus has it) adds
the degree-zero components.  It builds no decision record, so no obstruction
and no Fraction either.
"""

from __future__ import annotations

from ._record import Record
from .errors import BoundaryNotSupported, NoHvf, NonOrientedBase
from .hvf import (
    Covering,
    DegreeProgression,
    DegreeSet,
    EmptyDegrees,
    SingleDegree,
    SurfaceSection,
    _verdict,
)
from .invariant import SeifertInvariant, _fold

__all__ = ["ComponentCatalog", "homotopy_components"]


class ComponentCatalog(Record):
    """Component set of the space of horizontal vector fields: one component
    per (degree, cohomology class) pair."""

    __slots__ = ("degrees", "cohomology_rank", "unique_up_to_homotopy")
    degrees: DegreeSet
    cohomology_rank: int
    unique_up_to_homotopy: bool


def homotopy_components(inv: SeifertInvariant) -> ComponentCatalog:
    """Catalog the homotopy classes of horizontal vector fields.

    Defined for closed fiberings over oriented bases (``genus_code >= 0``);
    raises NoHvf when no horizontal vector field exists at all.  The field is
    unique up to homotopy exactly when the degree is pinned and the base is a
    sphere (cohomology rank zero).
    """
    if not inv.closed:
        raise BoundaryNotSupported("homotopy classes are cataloged for closed fiberings")
    if inv.genus_code < 0:
        raise NonOrientedBase("homotopy classes are cataloged over oriented bases only")
    mechanisms, _ = _verdict(inv, _fold(inv))
    return _catalog(inv, mechanisms)


def _catalog(inv: SeifertInvariant, mechanisms: tuple) -> ComponentCatalog:
    """The catalog of a closed fibering over an oriented base, read off the
    mechanisms of its HVF decision; none means no field."""
    if not mechanisms:
        raise NoHvf("no horizontal vector field exists on this fibering")
    match mechanisms:
        # the section mechanism, listed first, adds the degree-0 components
        case (SurfaceSection(), Covering(DegreeProgression(residue, modulus))):
            degrees = DegreeProgression(residue, modulus, include_zero=True)
        case (SurfaceSection(),):
            degrees = EmptyDegrees(include_zero=True)
        case (*_, Covering(degrees)):
            pass
    rank = 2 * inv.genus_code
    unique = isinstance(degrees, SingleDegree) and rank == 0
    return ComponentCatalog(degrees, rank, unique)
