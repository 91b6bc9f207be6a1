"""Exception types shared across the library.

Domain errors derive from SeifertError: malformed notation, a non-coprime
pair, a zero covering degree, or an operation that does not apply to the
given fibering.  A malformed argument raises a plain ValueError: a number
that is not an integer, a non-positive alpha or cone order, a negative
boundary count, ``p`` or ``max_p``, a search bound outside
[1, MAX_ENUMERATION_BOUND], a closed invariant given to a bounded-only
procedure, or a quotient degree too long for the digit budget.  SeifertError
is a ValueError, so ``except ValueError`` catches both.
"""

__all__ = [
    "SeifertError",
    "NotCoprime",
    "BoundaryNotSupported",
    "MixedBoundary",
    "ZeroDegree",
    "NotALensForm",
    "IncompatibleCover",
    "NonOrientedBase",
    "NoHvf",
    "ParseError",
]


class SeifertError(ValueError):
    """Base class of the library's domain errors; see the module docstring."""


class NotCoprime(SeifertError):
    """A pair (alpha, beta) with gcd(alpha, beta) > 1, or a non-coprime (p, q)."""

    def __init__(self, index=None, message=None):
        self.index = index
        if message is None:
            if index is None:
                message = "arguments must be coprime"
            else:
                message = f"pair {index} must have coprime entries"
        super().__init__(message)


class BoundaryNotSupported(SeifertError):
    """A closed-only operation was applied to an object with boundary."""


class MixedBoundary(SeifertError):
    """Tried to compare a closed invariant with a bounded one."""


class ZeroDegree(SeifertError):
    """Covering degree 0 requested; fiberwise coverings have non-zero degree."""


class NotALensForm(SeifertError):
    """Invariant is not a genus-zero fibering with at most two exceptional fibers."""


class IncompatibleCover(SeifertError):
    """The canonical marking representative shares a factor with the covering degree."""


class NonOrientedBase(SeifertError):
    """Homotopy catalogs are only defined over oriented base orbifolds."""


class NoHvf(SeifertError):
    """The fibering admits no horizontal vector field, so no catalog exists."""


class ParseError(SeifertError):
    """Malformed notation; carries the character offset of the problem."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
