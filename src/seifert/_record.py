"""The base class of the library's immutable value types."""

from operator import attrgetter


class Record:
    """An immutable value whose fields are the names in its ``__slots__``.

    A subclass lists its fields in ``__slots__`` and the defaults of its
    trailing fields in a ``_defaults`` mapping.  Unless it writes its own
    ``__init__``, which it does only to convert or check its arguments, it
    gets one that takes each field, in slot order, and stores it.  Records of
    the same class compare and hash as the tuple of their fields; records of
    different classes are never equal.  A record class is not subclassed
    further.
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
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

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


def _constructor(cls):
    """The ``__init__`` that stores each field of ``cls``, in slot order.

    It is compiled from source, as ``dataclasses`` and ``namedtuple`` build
    theirs, so that importing the library does not import ``dataclasses``.
    The source holds only the slot names, which are identifiers.
    """
    names = cls.__slots__
    defaults = cls.__dict__.get("_defaults", {})
    if set(defaults) != set(names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: only the last fields may have defaults")
    params = ", ".join(("self",) + names)
    body = "".join(f"\n    setattr(self, {name!r}, {name})" for name in names) or " pass"
    namespace = {}
    exec(f"def __init__({params}):{body}", {"setattr": object.__setattr__}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults[name] for name in names if name in defaults) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


def integral(value, what: str) -> int:
    """``int(value)`` for an integral ``value`` such as ``Fraction(2)`` or
    ``True``; any other value, such as 2.5, raises ValueError instead of being
    truncated."""
    n = int(value)
    if n != value:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return n
