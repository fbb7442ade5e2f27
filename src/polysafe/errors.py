"""Exception hierarchy shared across the package.

Every error carries the command line's exit status for it in `exit_code`:
5, a failure while running (an infeasible filter, a non-finite state, a
solver breakdown), unless the class says otherwise.  A bad design
parameter exits 2, a bad constraint spec or barrier 3, and any other
malformed input or argument 64.
"""

import contextlib
import numbers

import numpy as np


class PolysafeError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 5


class ValidationError(PolysafeError):
    """Invalid constraint geometry or malformed input data."""

    exit_code = 3


class UsageError(PolysafeError):
    """A malformed command-line argument or scenario field."""

    exit_code = 64


class NumericalBreakdown(PolysafeError):
    """A solver hit its iteration limit or a singular basis."""


class EmptySet(PolysafeError):
    """A polyhedron that was required to be nonempty is empty."""

    exit_code = 3


class TooManyHalfspaces(PolysafeError):
    """Subset enumeration requested beyond the supported cap."""

    exit_code = 3


class AssumptionViolated(PolysafeError):
    """No interior witness point exists for an index set (margin <= 0)."""

    exit_code = 3


class UnboundedPositions(PolysafeError):
    """A term of the position constraint set is unbounded."""

    exit_code = 3


class ParameterViolation(PolysafeError):
    """The design parameters fail the strict gamma * delta > epsilon gate."""

    exit_code = 2


class NotInC(PolysafeError):
    """A position outside the constraint set was passed to the lift."""


class EmptyFacet(PolysafeError):
    """A candidate boundary facet is empty (not part of the boundary)."""


class NotRightInvertible(PolysafeError):
    """G2 has no right inverse at the sampled state."""


class NotPositiveDefinite(PolysafeError):
    """A QP cost matrix failed its Cholesky factorization."""


class Infeasible(PolysafeError):
    """A constrained program admits no feasible point."""


class InsufficientActuation(PolysafeError):
    """The input bound cannot dominate the potential forcing (d <= kG * k1)."""

    exit_code = 2


class SingularInertia(PolysafeError):
    """The arm inertia matrix is numerically singular."""


class NoSplit(PolysafeError):
    """The plant does not expose the potential/velocity force decomposition."""


class QpInfeasibleAt(PolysafeError):
    """The safeguarding QP became infeasible during a simulation."""

    def __init__(self, t, x, message=""):
        self.t = t
        self.x = x
        super().__init__(f"QP infeasible at t={t:.6g}: {message}")


class NonFinite(PolysafeError):
    """NaN or Inf detected in a simulated state."""


@contextlib.contextmanager
def parsing(name: str, error=UsageError):
    """Report a value read under `name` that is missing or malformed as `error`."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"{name} missing or malformed: {exc!r}") from exc


def integer(value, name: str) -> int:
    """`value` as an int: an integer, or a float with an integral value.

    A bool, a string or a fractional number raises ValueError naming `name`,
    so that a JSON field such as `"facets": 7.9` is not truncated.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{name!r} must be an integer, not {value!r}")
    return int(value)


def real(value, name: str):
    """`value` as a float, or a JSON list of numbers (or of equal-length
    lists of them) as a float array.

    A bool or a string, alone or inside a list, raises ValueError naming
    `name`, as `integer` does: float() and numpy would read `"10"` as 10.0
    and `true` as 1.0.
    """
    entries = np.asarray(value, dtype=object)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in entries.reshape(-1)):
        raise ValueError(f"{name!r} must be a number or a list of numbers, not {value!r}")
    return entries.astype(float) if entries.ndim else float(value)
