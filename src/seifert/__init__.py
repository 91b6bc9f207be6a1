"""Horizontal vector fields on Seifert fiber spaces.

Exact-arithmetic computations with Seifert invariants and 2-orbifolds:
canonical forms, Euler numbers, unit tangent bundles, the allowable-degree
decision procedure for horizontal vector fields (closed and bounded cases),
marked lens spaces with their full classification, and homotopy catalogs.
"""

from .errors import (
    BoundaryNotSupported,
    IncompatibleCover,
    MixedBoundary,
    NoHvf,
    NonOrientedBase,
    NotALensForm,
    NotCoprime,
    ParseError,
    SeifertError,
    ZeroDegree,
)
from .invariant import (
    AlternateFibering,
    CanonicalForm,
    SeifertInvariant,
    alternate_fiberings,
    equal,
    euler_number,
    fiberwise_quotient,
    normalize,
    reverse_orientation,
)
from .orbifold import (
    GeometryClass,
    Orbifold,
    annulus,
    base_orbifold,
    chi,
    chi_underlying,
    elliptic_family,
    elliptic_orbifolds,
    fiberings_over,
    geometry_class,
    is_bad,
    klein_bottle,
    mobius_band,
    parabolic_family,
    projective_plane,
    sphere,
    torus,
    unit_tangent_invariant,
)
from .hvf import (
    Covering,
    CongruenceClash,
    DegreeProgression,
    DegreeSet,
    EmptyDegrees,
    EulerMismatch,
    HvfDecision,
    SingleDegree,
    SurfaceSection,
    allowable_degrees,
    boundary_tangency,
    decide_hvf,
    decide_hvf_boundary,
)
from .lens import (
    LensClassification,
    MarkedLens,
    Theorem1Case,
    classify_lens,
    enumerate_lens_fiberings,
    exceptional_lens_fibering,
    fibered_lens_hvf,
    homeomorphic,
    lens_census,
    lens_cover,
    lens_from_invariant,
    manifold_fiberings,
    manifold_markings,
    marked_equal,
    oriented_diffeomorphic,
    reverse_orientation_lens,
)
from .homotopy import ComponentCatalog, homotopy_components
from .notation import (
    invariant_report,
    parse_invariant,
    parse_orbifold,
    print_invariant,
    print_orbifold,
)

__version__ = "0.1.0"
