"""Exception family shared across the package.

The CLI maps these onto exit codes: file/format/checkpoint problems are
data errors (exit 3), geometry/capacity/training problems are compute
errors (exit 4). Usage errors never reach this module.
"""

from __future__ import annotations


class EvcsegError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(EvcsegError):
    """Inconsistent shapes, affines, or provenance metadata."""


class FormatError(EvcsegError):
    """A file does not conform to its on-disk format."""


class BadMagicError(FormatError):
    """Magic bytes do not identify a supported format."""


class UnsupportedDatatypeError(FormatError):
    """The file declares a datatype this reader does not handle."""


class TruncatedFileError(FormatError):
    """The payload ends before the header says it should."""


class DataError(EvcsegError):
    """Missing or unusable input data."""


class ConfigError(EvcsegError):
    """Invalid configuration, or a checkpoint whose config does not match."""


class CapacityError(EvcsegError):
    """A computation was asked to exceed its size guard."""


class DomainError(EvcsegError):
    """A metric was evaluated outside its mathematical domain."""


class TrainingError(EvcsegError):
    """Training produced non-finite values and cannot continue."""
