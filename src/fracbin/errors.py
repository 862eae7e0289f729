"""Shared exception types, mapped to distinct CLI exit codes."""


class FracbinError(Exception):
    """Base class for all package-specific failures."""


class NonconvergenceError(FracbinError):
    """An iteration stopped short of the requested tolerance."""


class QuadratureError(NonconvergenceError):
    """An integral did not converge to the requested tolerance.

    Carries the best available estimate and the achieved error bound so
    callers can decide whether to proceed anyway.
    """

    def __init__(self, message: str, best: float, err: float):
        super().__init__(message)
        self.best = best
        self.err = err


class TruncationError(FracbinError):
    """A requested series-tail target is unachievable within the term cap."""


class CapExceededError(FracbinError):
    """An enumeration or table size exceeds the configured cap."""
