"""Exception hierarchy for mgt_spectral."""


class MGTError(Exception):
    """Base class for all mgt_spectral errors."""


class InvalidInput(MGTError, ValueError):
    """An input lies outside the domain of the operation that received it."""


class NonDissipative(InvalidInput):
    """Model parameters violate the dissipativeness condition 0 < tau < beta."""


class NonFinite(InvalidInput):
    """A parameter or input value is NaN or infinite."""


class InvalidFrequency(InvalidInput):
    """Frequency magnitude is negative, NaN, or outside an operation's domain."""


class GridError(InvalidInput):
    """A grid is not in the order its operation requires."""


class QuadratureFailure(MGTError):
    """Adaptive quadrature could not meet its tolerance, or its integrand is not finite."""


class DegenerateFit(MGTError):
    """Slope fitting requested on points that are too few or nonpositive."""


class NonPositiveMargin(MGTError):
    """No positive decay margin exists; indicates a weight-recipe bug."""


class EmptyInput(InvalidInput):
    """A sweep was requested over an empty grid or sample list."""
