"""Exception types shared across the package, the one error for a result
past the float range, and the one work gate.

Every loop that can run long charges the elementary work it does, and work
known in advance is charged before the loop starts; a call raises
GateExceeded (`past_gate`) once the work it has charged passes WORK_GATE,
which each site reads at call time.
"""

WORK_GATE = 2 * 10**7


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
    """A computation charged more work than WORK_GATE allows."""


def outside_float_range(cause) -> ConditionViolated:
    """The error for a result past the float range: cause is the non-finite
    value, or the OverflowError that complex ** int raised on the way to it."""
    what = cause if isinstance(cause, OverflowError) else f"result evaluates to {cause}"
    return ConditionViolated(f"{what}, outside float range: no value")


def past_gate(work: int, what: str) -> GateExceeded:
    """The error for a call that has charged work units of what, past
    WORK_GATE."""
    return GateExceeded(f"{work} {what} exceed gate {WORK_GATE}")
