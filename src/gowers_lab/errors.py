"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming mistakes that no
caller should catch.
"""


class GowersLabError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(GowersLabError):
    """Two functions (or a function and a partition) live on different Z_N."""


class NotPrimeError(GowersLabError):
    """The modulus N is required to be prime and is not."""


class EmptyDomainError(GowersLabError):
    """An averaging set or atom is empty."""


class InvalidDilationError(GowersLabError):
    """Dilation factor is 0 mod N (not invertible)."""


class InvalidCoefficientError(GowersLabError):
    """A coefficient exceeds its allowed modulus bound."""


class BoundednessError(GowersLabError):
    """An input required to satisfy max|f| <= 1 does not."""


class InvalidConfigurationError(GowersLabError):
    """Bad argument combination (repeated dilation constants, empty tuple, ...)."""


class MissingInputError(GowersLabError):
    """A required keyed input (e.g. a comparison function for some shift) is absent."""


class NumericalInconsistencyError(GowersLabError):
    """A quantity that must be real/non-negative came out outside tolerance."""


class UnsupportedOrderError(GowersLabError):
    """Requested order is outside the implemented range."""


class CertificateInvalidError(GowersLabError):
    """An almost-periodicity certificate failed verification."""

    def __init__(self, message, path=()):
        super().__init__(message)
        self.path = tuple(path)


class OrderMismatchError(GowersLabError):
    """Two certificates must have equal order; promote the lower one first."""


class ResourceLimitError(GowersLabError):
    """A configured node/step budget would be exceeded."""


class MeasurabilityError(GowersLabError):
    """Function is not measurable with respect to the given partition."""


class ApproximationBudgetError(GowersLabError):
    """Certified approximation missed its target L2 error."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class RefinementError(GowersLabError):
    """A partition that must refine another does not."""


class NormTooSmallError(GowersLabError):
    """A uniformity-norm lower bound required by a constructor fails."""

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


class NonTerminationError(GowersLabError):
    """The energy-increment driver exhausted its step budget."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ModeError(GowersLabError):
    """Requested computation mode is unavailable for these parameters."""


class SubproofError(GowersLabError):
    """A delegated sub-solver failed; carries the block index."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block
