"""Exception types shared across the package."""


class CppLabError(Exception):
    """Base class for all package errors."""


class NonPrimeModulus(CppLabError):
    """The coefficient modulus q is not a prime number."""


class ZeroInverse(CppLabError):
    """Attempted to invert 0 in GF(q)."""


class DimensionMismatch(CppLabError):
    """Matrix/vector shapes are incompatible."""


class InvalidDimension(CppLabError):
    """Bad lattice dimension or extent."""


class NotATorus(CppLabError):
    """A torus-only operation was applied to a non-torus complex."""


# the default size guard of exact enumerations and dense allocations
DEFAULT_STATE_GUARD = 1 << 26


class TooLarge(CppLabError):
    """An exact enumeration or a dense allocation would exceed its size guard."""

    def __init__(self, states, limit, what="enumeration", unit="states"):
        self.states = states
        self.limit = limit
        super().__init__(f"{what} of {states} {unit} exceeds guard {limit}")


class BudgetExceeded(CppLabError):
    """A bounded exhaustive search ran out of budget before deciding."""


class DoesNotFit(CppLabError):
    """A loop or subcomplex does not fit inside the ambient complex."""


class DegenerateDenominator(CppLabError):
    """Ratio denominator is statistically indistinguishable from zero."""


class DegenerateParameter(CppLabError):
    """A parameter transform is undefined at this point (e.g. p = 0 dual)."""


class ValidationError(CppLabError):
    """Invalid user-supplied configuration."""
