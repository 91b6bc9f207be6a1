"""Connected components of the space of horizontal vector fields.

Over an oriented base orbifold, two horizontal vector fields are homotopic
through horizontal fields exactly when they have the same covering degree and
their angular difference, a map from the underlying surface to the circle, is
null-homotopic.  The components are therefore in bijection with pairs

    (allowable degree) x (first cohomology of the underlying surface),

where the cohomology is free abelian of rank ``2 * genus``.  Fiberings over
the bare 2-torus additionally admit the degree-zero section mechanism, which
contributes components of its own; for every other base the degree set is
exactly the covering degrees.
"""

from __future__ import annotations

from ._record import Record
from .errors import BoundaryNotSupported, NoHvf, NonOrientedBase
from .hvf import DegreeProgression, DegreeSet, EmptyDegrees, SingleDegree, allowable_degrees
from .invariant import SeifertInvariant

__all__ = ["ComponentCatalog", "homotopy_components"]


class ComponentCatalog(Record):
    """Component set of the space of horizontal vector fields: one component
    per (degree, cohomology class) pair."""

    __slots__ = ("degrees", "cohomology_rank", "unique_up_to_homotopy")
    degrees: DegreeSet
    cohomology_rank: int
    unique_up_to_homotopy: bool

    def __init__(self, degrees, cohomology_rank, unique_up_to_homotopy):
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "cohomology_rank", cohomology_rank)
        object.__setattr__(self, "unique_up_to_homotopy", unique_up_to_homotopy)


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
    return _catalog(inv, allowable_degrees(inv))


def _catalog(inv: SeifertInvariant, degrees: DegreeSet) -> ComponentCatalog:
    """The catalog of a closed fibering over an oriented base with covering
    degrees ``degrees``."""
    if inv.genus_code == 1 and all(a == 1 for a, _ in inv.pairs):
        # over the bare torus the section mechanism adds the degree-0 components
        if isinstance(degrees, DegreeProgression):
            degrees = DegreeProgression(degrees.residue, degrees.modulus, include_zero=True)
        elif isinstance(degrees, EmptyDegrees):
            degrees = EmptyDegrees(include_zero=True)
    elif degrees.is_empty():
        raise NoHvf("no horizontal vector field exists on this fibering")
    rank = 2 * inv.genus_code
    unique = isinstance(degrees, SingleDegree) and rank == 0
    return ComponentCatalog(degrees, rank, unique)
