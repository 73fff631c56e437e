"""Exception types, the integer and order checks of inputs and the
immutable value base shared across the package."""


class DomainError(ValueError):
    """An argument violates a mathematical precondition (wrong parity, size
    mismatch, value outside the defined domain)."""


class ResourceCapError(RuntimeError):
    """A request's price, counted from its key before any work, exceeds a
    fixed cap: the steps of a Wick tree sum or elementary cumulant, the
    steps of either route of a Burnside row, the multiply-adds of the
    exponential formula of a connected covering series, the partitions
    that ``c_simple`` and the n-point check sum over, the tuples of a
    brute-force count.  Raised before the work starts."""


def as_int(value) -> int:
    """``value`` as an int: DomainError when it does not equal one (3.7,
    5/2, "3"), and int()'s own error when it has no integer value at all."""
    n = int(value)
    if n != value:
        raise DomainError(f"expected an integer, got {value!r}")
    return n


def as_order(value, what: str = "order") -> int:
    """``value`` through ``as_int``; DomainError when it is negative."""
    n = as_int(value)
    if n < 0:
        raise DomainError(f"{what} must be nonnegative")
    return n


class Record:
    """An immutable value whose fields are its class's ``__slots__``: equal
    to a value of the same class with equal fields, hashed by them, shown as
    ``Name(field=value, ...)``, and closed to assignment and deletion.  The
    default ``__init__`` takes every field, by position or by name; one that
    checks its fields stores them with ``object.__setattr__``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) + len(kwargs) != len(names) or (
                kwargs and not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _immutable(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _immutable
