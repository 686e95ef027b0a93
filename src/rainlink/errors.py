"""Exception and warning types shared across the package; Record, the
base of every one of its immutable records; Choice, the base of its
enumerations; and read_text and read_packaged, the readers of input and
packaged files, which raise them.

The hierarchy keeps three concerns separate so the CLI can map them to
stable exit codes: bad values fed to the math (DomainError), bad input
documents (ParseError / ValidationError), and bad run configuration
(ConfigError / UsageError).
"""

from __future__ import annotations

import os
from enum import Enum

# sets an attribute past Record.__setattr__
_set = object.__setattr__


class Record:
    """An immutable record with a frozen dataclass's init, equality (within
    one class), hash and repr, and no generated code. Its fields are the
    subclass's annotations, their defaults its class attributes of those
    names. The dataclasses functions apply to no record; a copy with one
    field changed is built by keyword from _fields and _values()."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: value for name, value in cls.__dict__.items() if name in cls._fields}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # else every field is given by position
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]) \
                    or len(values) != len(fields):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}; got "
                                f"{len(args)} positional and {', '.join(kwargs) or 'no'} "
                                "keyword arguments")
            args = map(values.__getitem__, fields)
        # one at a time, in field order, so that instances share their dict keys
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields once they are set; nothing to check here."""

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class Choice(str, Enum):
    """A string enumeration whose lookup of any other value is a
    DomainError listing the members' values."""

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(member.value for member in cls)
        raise DomainError(f"must be one of {choices}, got {value!r}")


class SeparationWarning(UserWarning):
    """Two catalog stations are closer than the recommended minimum
    great-circle separation."""


class CadenceWarning(UserWarning):
    """A statistically weak cadence/strategy combination, e.g. empirical
    exceedance over a monthly-mean series."""


class CoverageWarning(UserWarning):
    """A series too short for the statistic drawn from it, e.g. empirical
    exceedance at 0.01% from 10,000 samples or fewer."""


class DuplicateWarning(UserWarning):
    """Duplicate request entries were collapsed."""


def read_text(path: str, error: type[RainlinkError] = ParseError) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark. Bytes that
    are not UTF-8 raise error, naming the file and the byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 at byte {exc.start}") from exc


def read_packaged(name: str) -> str:
    """The text of the data file name packaged under rainlink/data."""
    return read_text(os.path.join(os.path.dirname(__file__), "data", name))
