"""Exception types shared across the package, and the integer rule of
the records that raise them.

The CLI maps these onto exit codes: configuration problems exit 2, input
parse problems exit 3, numeric failures exit 4.
"""

from __future__ import annotations

from numbers import Integral


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's; a bool is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class TarStopError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TarStopError):
    """Malformed input file; message carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateEntryError(ParseError):
    """Duplicate key within a parsed file (qrels key or run doc_id)."""


class TopicNotFoundError(TarStopError):
    """Requested topic is absent from the parsed run."""


class ValidationError(TarStopError):
    """Domain object built from invalid field values."""


class ConfigError(TarStopError):
    """Stopping/baseline configuration violates its invariants."""


class InsufficientDataError(TarStopError):
    """Too few observations to carry out the requested estimation."""


class DegenerateDataError(TarStopError):
    """Observations carry no usable signal (e.g. all-zero relevance)."""


class FitFailureError(TarStopError):
    """Least-squares minimizer did not converge."""


class UndefinedRangeError(TarStopError):
    """Observed values have zero range, so range-normalized error is undefined."""


class DegenerateDistributionError(TarStopError):
    """No valid probability mass remains after constraint filtering."""
