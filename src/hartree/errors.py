"""The package's error taxonomy: each error class names its exit code.

A ``ConfigError`` means the request cannot be run as asked: malformed
input, an option out of range, or a problem larger than the byte budget.
A ``NumericalError`` means a stage ran and its numerics failed. The command
line exits with the class's ``exit_code``.
"""

from __future__ import annotations

USAGE_EXIT = 2
NUMERICAL_EXIT = 3


class HartreeError(Exception):
    """Base of every error the package raises on purpose; one of unknown
    kind exits as a numerical failure."""

    exit_code = NUMERICAL_EXIT


class ConfigError(HartreeError, ValueError):
    """The request is malformed, out of range, or too large to hold."""

    exit_code = USAGE_EXIT


class NumericalError(HartreeError):
    """A computation ran and failed numerically (exit 3)."""
