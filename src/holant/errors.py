"""Exception types shared across the package, and the one error for a result
past the float range."""


class HolantError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HolantError, ValueError):
    """Malformed instance file or literal."""


class NotInF0(HolantError, ValueError):
    """A signature has f(0, ..., 0) = 0, so the polymer translation is undefined."""


class InvalidFugacity(HolantError, ValueError):
    """Fugacity vector outside the admissible set (e.g. z_0 = 0)."""


class RegionViolation(HolantError, ValueError):
    """Parameters lie outside the certified zero-free region."""


class UnsupportedWeights(HolantError, ValueError):
    """Operation requires non-negative real weights."""


class ConditionViolated(HolantError, RuntimeError):
    """A runtime check of a convergence/sampling condition failed."""


class DegenerateDistribution(HolantError, ValueError):
    """Normalising constant is zero; no distribution exists."""


class GateExceeded(HolantError, RuntimeError):
    """Requested exhaustive computation exceeds the configured size gate."""


def outside_float_range(cause) -> ConditionViolated:
    """The error for a result past the float range: cause is the non-finite
    value, or the OverflowError that complex ** int raised on the way to it."""
    what = cause if isinstance(cause, OverflowError) else f"result evaluates to {cause}"
    return ConditionViolated(f"{what}, outside float range: no value")
