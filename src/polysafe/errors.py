"""Exception hierarchy shared across the package.

Every error carries the command line's exit status for it in `exit_code`,
and each of the four codes has a class of its own:

- `ParameterViolation` (2): a design parameter fails its gate
  (gamma * delta <= epsilon, an input bound d <= kG * k1);
- `ValidationError` (3): a bad constraint spec or barrier (an unbounded
  or empty term is refused when the spec is built), or a geometry the
  certificate refuses (more half-spaces than the enumeration cap, an index
  set with no interior witness);
- `UsageError` (64): any other malformed input or argument;
- `PolysafeError` (5): a failure while running, such as a position
  outside C passed to the lift, a G2 with no right inverse, a singular
  inertia matrix, a QP cost that is not positive definite, or a plant
  without the potential/velocity force split.

The other subclasses are raised by several modules (`NumericalBreakdown`,
`NonFinite`), caught inside the package (`Infeasible`), or
carry data (`QpInfeasibleAt`).
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


class ParameterViolation(PolysafeError):
    """A design parameter fails its gate: gamma * delta > epsilon, d > kG * k1."""

    exit_code = 2


class NumericalBreakdown(PolysafeError):
    """A solver hit its iteration limit or a singular basis."""


class Infeasible(PolysafeError):
    """A constrained program admits no feasible point."""


class QpInfeasibleAt(PolysafeError):
    """The safeguarding QP became infeasible during a simulation."""

    def __init__(self, t, x, message=""):
        self.t = t
        self.x = x
        super().__init__(f"QP infeasible at t={t:.6g}: {message}")


class NonFinite(PolysafeError):
    """NaN or Inf in a simulated state, or in the plant's G2 or f2."""


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
