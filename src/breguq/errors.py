"""Shared exception types."""

from __future__ import annotations

__all__ = [
    "ConfigError",
    "InputFormatError",
    "GridFormatError",
    "CheckpointFormatError",
    "NumericalAbortError",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration; the message names the offending
    section and key, or the command-line flag."""


class InputFormatError(ValueError):
    """Malformed input file; the message names the file and, for a binary
    file, the byte offset where it departs from the format."""


class GridFormatError(InputFormatError):
    """Malformed portable grid file."""


class CheckpointFormatError(InputFormatError):
    """Malformed weight checkpoint or checkpoint directory."""


class NumericalAbortError(RuntimeError):
    """A solver hit non-finite values; diagnostics hold the last good state."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
