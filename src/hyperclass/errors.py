"""The typed errors of numeric evaluation.

`numerics` raises them and re-exports them; they live here so that the
command line can catch them without loading the numeric layer.
"""


class NumericsError(Exception):
    """Base class for numeric evaluation failures."""


class GammaPoleError(NumericsError):
    """Gamma evaluated at a non-positive integer."""


class DegeneracyError(NumericsError):
    """A connection/continuation formula degenerates (integer parameter)."""


class ConvergenceError(NumericsError):
    """A series failed to converge to the requested tolerance."""

    def __init__(self, message, best=None, estimate=None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate


class DomainError(NumericsError):
    """Argument outside the admissible domain of the evaluation."""
