"""Exception family shared across the package.

Each class carries the exit code the CLI returns for it, and a subclass
inherits its parent's. Exit 3, data: FormatError (with BadMagicError,
UnsupportedDatatypeError and TruncatedFileError), DataError, ConfigError,
DomainError, and an OSError from the file system. Exit 4, compute:
GeometryError, CapacityError, TrainingError, a bare EvcsegError and a
MemoryError. Usage errors never reach this module: argparse exits 2 for
them.
"""

from __future__ import annotations

import numbers


class EvcsegError(Exception):
    """Base class for every error raised by this package: a compute failure."""

    exit_code = 4


class GeometryError(EvcsegError):
    """Inconsistent shapes, affines, or provenance metadata."""


class FormatError(EvcsegError):
    """A file does not conform to its on-disk format."""

    exit_code = 3


class BadMagicError(FormatError):
    """Magic bytes do not identify a supported format."""


class UnsupportedDatatypeError(FormatError):
    """The file declares a datatype this reader does not handle."""


class TruncatedFileError(FormatError):
    """The payload ends before the header says it should."""


class DataError(EvcsegError):
    """Missing or unusable input data."""

    exit_code = 3


class ConfigError(EvcsegError):
    """Invalid configuration, or a checkpoint whose config does not match."""

    exit_code = 3


class CapacityError(EvcsegError):
    """A computation was asked to exceed its size guard."""


class DomainError(EvcsegError):
    """A metric was evaluated outside its mathematical domain."""

    exit_code = 3


class TrainingError(EvcsegError):
    """Training produced non-finite values and cannot continue."""


def whole_number(name: str, value, minimum: int) -> int:
    """``value`` as a Python int, or a ConfigError unless it is a whole
    number at or above ``minimum``: bools, floats and strings are refused,
    numpy ints accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
