"""Exception types shared across the library.

Everything derives from SeifertError (a ValueError), so callers that only
want a pass/fail split can catch the base class.
"""


class SeifertError(ValueError):
    """Base class for all input and domain errors raised by this library."""


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
