"""Exception hierarchy for mgt_spectral."""


class MGTError(Exception):
    """Base class for all mgt_spectral errors."""


class NonDissipative(MGTError):
    """Model parameters violate the dissipativeness condition 0 < tau < beta."""


class NonFinite(MGTError):
    """A parameter or input value is NaN or infinite."""


class InvalidFrequency(MGTError):
    """Frequency magnitude is negative, NaN, or outside an operation's domain."""


class GridError(MGTError):
    """A grid is unsorted, negative, or otherwise malformed."""


class QuadratureFailure(MGTError):
    """Adaptive quadrature could not meet its tolerance within the node budget."""


class DegenerateFit(MGTError):
    """Slope fitting requested on a window that is too short or nonpositive."""


class ToleranceFailure(MGTError):
    """A verified inequality ratio grows without bound along a sweep."""


class NonPositiveMargin(MGTError):
    """No positive decay margin exists; indicates a weight-recipe bug."""


class EmptyInput(MGTError):
    """A sweep was requested over an empty grid or sample list."""
