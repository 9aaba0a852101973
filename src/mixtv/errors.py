"""Exception hierarchy shared by all mixtv modules.

Every error derives from exactly one of three categories, and the category
alone decides the CLI exit code: :class:`ValidationError` (3) for input
outside what a solver accepts, :class:`TooLarge` (4) for a size guard, and
:class:`NumericalError` (5) for floating point failing on valid input.
"""


class MixtvError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MixtvError):
    """The input is malformed or outside the class a solver accepts."""


class NumericalError(MixtvError):
    """Floating point failed on an input that passed validation."""


class ShapeMismatch(ValidationError):
    """Array dimensions, coordinate counts, or value ranges are inconsistent."""


class NotAProbability(ValidationError):
    """An entry lies outside [0, 1] beyond the accepted rounding slack."""


class NormalizationError(ValidationError):
    """A weight vector or marginal row does not sum to 1 within tolerance."""


class NoActiveComponent(ValidationError):
    """Every mixing weight on one side of the coupling is zero."""


class ZeroDiscrepancy(ValidationError):
    """Conditional sampling was requested but the coupling never fails."""


class ZeroDenominator(NumericalError):
    """The failure mass of the queried configuration is zero."""


class FactViolation(NumericalError):
    """A probability ratio exceeded a bound that holds for every coupling.

    This indicates a bug in the transition construction or the dynamic
    program, not statistical noise, so it is raised rather than clamped.
    """


class NotASubcube(ValidationError):
    """A marginal is not 0, 1/2, or 1, so the exact subcube path is invalid."""


class WrongAlphabet(ValidationError):
    """A subcube operation was applied to a mixture with q != 2."""


class NotThreeCnf(ValidationError):
    """A CNF formula does not consist of 3-literal clauses over distinct variables."""


class TooLarge(MixtvError):
    """A size guard tripped before an exponential enumeration could start."""
