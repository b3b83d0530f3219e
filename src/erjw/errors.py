"""Exception hierarchy.

Two branches matter for callers: MathInvariantError means a computation
produced something the underlying algebra forbids (a genuine bug or a broken
input object), InputError means the request itself was malformed.  The CLI
maps them to exit codes 1 and 2 respectively.

It also holds `Record`, the base of the package's small immutable records.
"""

from operator import attrgetter

_set = object.__setattr__


class ErjwError(Exception):
    """Base class for everything raised on purpose by this package."""


class MathInvariantError(ErjwError):
    """An internal consistency check failed; results cannot be trusted."""


class InputError(ErjwError, ValueError):
    """The caller asked for something malformed or out of range.

    Also a ValueError, so callers that catch bad arguments that way still do.
    """


class NonUnitDivisionError(MathInvariantError):
    """Division whose result would leave the 2-local integers."""


class IntegralityError(MathInvariantError):
    """A coefficient that must be 2-locally integral is not."""


class SymmetryError(MathInvariantError):
    """A polynomial expected to be symmetric in its roots is not."""


class PrecisionError(InputError):
    """The requested weight or series precision is too small for the answer."""


class ConstantTermError(InputError):
    """A substitution or inversion needs a different constant term."""


class ReductionError(MathInvariantError):
    """Rewriting against the relation set failed to behave (no progress)."""


class PageShapeError(MathInvariantError):
    """A page object does not have the shape the update step requires."""


class EmptyBasisError(InputError):
    """The requested window and caps leave no monomials to work with."""


class FlatnessCertificateError(InputError):
    """Base change requested without the certificate that legitimizes it."""


def check_ints(values: dict) -> None:
    """Raise InputError unless every value of {name: value} is an int (and
    no bool), so a float, str or bool argument is refused by name."""
    for name, value in values.items():
        if type(value) is not int:
            raise InputError(f"{name} must be an int, not {value!r}")


class Record:
    """An immutable record of the fields its class names in `_fields`.

    Each record class writes its own `__init__`, which checks its
    arguments and stores them with `_fill` (or field by field with
    `object.__setattr__`, as the hot ones do).  The base gives what a frozen
    dataclass of those fields would: the repr `Name(f=v!r, ...)`, `==`
    on equal field tuples of the same class (NotImplemented for another
    class), a hash of that tuple, and an AttributeError on assignment or
    deletion.  A class that sets `__hash__ = None` compares by value and
    is unhashable, as an eq-only dataclass is.  Values computed on first
    read (`functools.cached_property`) go straight to the instance dict.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # called as cls._values(record): one C call reads the field values
        cls._values = attrgetter(*cls._fields)

    def _fill(self, *values) -> None:
        # object.__setattr__ keeps the values inline, where reads are fast;
        # writing through __dict__ would make every later read slower
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
