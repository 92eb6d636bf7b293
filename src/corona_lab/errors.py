"""Exception types shared across the package, and its integer check."""

import operator


class CoronaLabError(Exception):
    """Base class for all corona_lab errors."""


class IndexOutOfRange(CoronaLabError):
    """A negative index was queried on a sequence; past the horizon every
    sequence repeats its last phase."""


class PreconditionViolation(CoronaLabError):
    """An operation was called with arguments outside its contract."""


def as_int(x, what: str) -> int:
    """``x`` through ``operator.index``: a float or a bool is refused, not truncated."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise PreconditionViolation(f"{what} must be an integer, got {x!r}")


class TruncationExceeded(CoronaLabError):
    """A request went past the finite truncation of a set or matrix."""


class HorizonTooSmall(CoronaLabError):
    """The working horizon cannot accommodate the requested construction.

    ``min_horizon``, when known, is the smallest horizon that would suffice.
    """

    def __init__(self, message, min_horizon=None):
        super().__init__(message)
        self.min_horizon = min_horizon


class WitnessNotFound(CoronaLabError):
    """A norm-witness search failed; the model violates its hypothesis."""


class ConstructionError(CoronaLabError):
    """A constructed object failed its own invariants."""


class InvalidSes(CoronaLabError):
    """A short-exact-sequence tower failed exactness or commutation checks."""
