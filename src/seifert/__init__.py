"""Horizontal vector fields on Seifert fiber spaces.

Exact-arithmetic computations with Seifert invariants and 2-orbifolds:
canonical forms, Euler numbers, unit tangent bundles, the allowable-degree
decision procedure for horizontal vector fields (closed and bounded cases),
marked lens spaces with their full classification, and homotopy catalogs.

The package exports exactly the names in each module's ``__all__``.
"""

from .errors import *
from .invariant import *
from .orbifold import *
from .hvf import *
from .lens import *
from .homotopy import *
from .notation import *

__version__ = "0.1.0"
