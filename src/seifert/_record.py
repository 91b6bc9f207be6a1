"""The base class of the library's immutable value types."""

from operator import attrgetter


class Record:
    """An immutable value whose fields are the names in its ``__slots__``.

    A subclass lists its fields in ``__slots__`` and sets each one in its own
    ``__init__`` with ``object.__setattr__``.  Records of the same class
    compare and hash as the tuple of their fields; records of different
    classes are never equal.  A record class is not subclassed further.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        cls.__match_args__ = names
        # ``_values(record)`` is the tuple of the record's fields
        if len(names) > 1:
            cls._values = attrgetter(*names)
        elif names:
            one = attrgetter(*names)
            cls._values = lambda record: (one(record),)
        else:
            cls._values = lambda record: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self.__class__._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._values(self))

    def __repr__(self):
        values = self.__class__._values(self)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self.__class__._values(self)


def integral(value, what: str) -> int:
    """``int(value)`` for an integral ``value`` such as ``Fraction(2)`` or
    ``True``; any other value, such as 2.5, raises ValueError instead of being
    truncated."""
    n = int(value)
    if n != value:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return n
