"""Exception hierarchy shared by all umlr modules, and the checks of a
single knob.

Every error raised by the library derives from :class:`UmlrError`, so callers
(and the CLI) can catch one base class and map subclasses to stable error
codes. Each single-value knob has one check here, called by every reader of
the knob; a bad value raises :class:`InvalidInputError` as
``'key' must …; got …``. A count (resamples, folds, replicates, workers,
sizes, seeds, tree shapes) must be an integer, a numpy integer included.
"""

import math
from numbers import Integral


class UmlrError(Exception):
    """Base class for all umlr errors."""

    code = "umlr_error"


class InvalidInputError(UmlrError, ValueError):
    """Inputs violate a documented precondition (shape, domain, finiteness)."""

    code = "invalid_input"


class DegeneratePartitionError(UmlrError):
    """Outcome partition collapsed (above-mean group empty); anchoring undefined."""

    code = "degenerate_partition"


class SingularSystemError(UmlrError):
    """A linear system required by a fit has no unique solution."""

    code = "singular_system"


class RecalibrationSingularError(SingularSystemError):
    """Anchoring 2x2 system singular: base predictions have equal group means."""

    code = "recalibration_singular"


class ConvergenceError(UmlrError):
    """Iterative solver failed to reach its tolerance within the iteration cap."""

    code = "non_convergence"


class UndefinedSlopeError(UmlrError):
    """Calibration slope undefined because the reference outcome is constant."""

    code = "undefined_slope"


class OracleUnavailableError(UmlrError):
    """A computation needs simulation-only oracle quantities that are missing."""

    code = "oracle_unavailable"


class DivisionGuardError(UmlrError):
    """Inverse-probability weight would divide by a propensity of 0 or 1."""

    code = "division_guard"


class NoMatchesError(UmlrError):
    """Propensity matching produced zero pairs under the caliper."""

    code = "no_matches"


class ResamplingError(UmlrError):
    """A resampling scheme (cross-fitting fold, arm split) lost a treatment arm."""

    code = "resampling"


class UnstableBootstrapError(UmlrError):
    """Too many bootstrap resamples failed for the interval to be trusted."""

    code = "unstable_bootstrap"

    def __init__(self, failure_rate: float, message: str | None = None):
        self.failure_rate = failure_rate
        super().__init__(
            message or f"estimator failed on {failure_rate:.1%} of bootstrap resamples"
        )

    def __reduce__(self):  # rebuilt from both arguments, so it survives pickling
        return type(self), (self.failure_rate, *self.args)


class CsvParseError(InvalidInputError):
    """A CSV cell or column could not be parsed; carries row/column context."""

    code = "csv_parse"


# nan fails every comparison, so each check rejects it
def check_choice(key: str, value, choices) -> None:
    """Reject ``value`` unless it is one of ``choices``."""
    if value not in choices:
        raise InvalidInputError(f"{key!r} must be one of {', '.join(choices)}; got {value!r}")


def check_count(key: str, value, low: int) -> None:
    """Reject ``value`` unless it is an integer >= ``low``."""
    if not (isinstance(value, Integral) and value >= low):
        raise InvalidInputError(f"{key!r} must be an integer >= {low}; got {value!r}")


def check_nonnegative(key: str, value) -> None:
    """Reject ``value`` unless it is finite and >= 0."""
    if not 0 <= value < math.inf:
        raise InvalidInputError(f"{key!r} must be finite and >= 0; got {value!r}")


def check_unit(key: str, value, ends: str = "()") -> None:
    """Reject ``value`` outside the unit interval, each end open or closed
    as ``ends`` ("()", "(]" or "[]") writes it."""
    if not ((value >= 0 if ends[0] == "[" else value > 0)
            and (value <= 1 if ends[1] == "]" else value < 1)):
        raise InvalidInputError(f"{key!r} must lie in {ends[0]}0, 1{ends[1]}; got {value!r}")
