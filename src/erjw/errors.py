"""Exception hierarchy.

Two branches matter for callers: MathInvariantError means a computation
produced something the underlying algebra forbids (a genuine bug or a broken
input object), InputError means the request itself was malformed.  The CLI
maps them to exit codes 1 and 2 respectively.
"""


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
