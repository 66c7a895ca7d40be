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
    """Invalid or unknown configuration; carries the offending key if known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class InputFormatError(ValueError):
    """Malformed input file; `offset` is the failing byte offset when known."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


class GridFormatError(InputFormatError):
    """Malformed portable grid file."""


class CheckpointFormatError(InputFormatError):
    """Malformed weight checkpoint or checkpoint directory."""


class NumericalAbortError(RuntimeError):
    """A solver hit non-finite values; diagnostics hold the last good state."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
