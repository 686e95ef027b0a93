"""Exception and warning types shared across the package.

The hierarchy keeps three concerns separate so the CLI can map them to
stable exit codes: bad values fed to the math (DomainError), bad input
documents (ParseError / ValidationError), and bad run configuration
(ConfigError / UsageError).
"""

from __future__ import annotations


class RainlinkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RainlinkError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedRegimeError(DomainError):
    """The inputs fall in a regime the implementation deliberately rejects,
    e.g. elevation below 5 degrees where the low-angle prediction branch
    is not implemented."""


class ParseError(RainlinkError):
    """An input document could not be parsed.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(RainlinkError):
    """A parsed document violates a structural rule (duplicate names,
    empty catalog, mismatched station sets)."""


class ConfigError(RainlinkError):
    """A scenario or source descriptor is inconsistent or incomplete."""


class UsageError(RainlinkError):
    """The caller asked for something the interface does not offer
    (unknown format, unknown source label)."""


class SeparationWarning(UserWarning):
    """Two catalog stations are closer than the recommended minimum
    great-circle separation."""


class CadenceWarning(UserWarning):
    """A statistically weak cadence/strategy combination, e.g. empirical
    exceedance over a monthly-mean series."""


class CoverageWarning(UserWarning):
    """A series too short for the statistic drawn from it, e.g. empirical
    exceedance at 0.01% from 10,000 samples or fewer."""


class ClampWarning(UserWarning):
    """A computed factor was clamped to its physical range."""


class DuplicateWarning(UserWarning):
    """Duplicate request entries were collapsed."""
