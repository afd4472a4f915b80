"""Exception hierarchy shared across the toolkit.

Every error that can surface through the CLI carries a machine-parsable
category string and a distinct process exit code.
"""

from __future__ import annotations


class EquifairError(Exception):
    """Base class for all toolkit errors."""

    category = "error"
    exit_code = 1


class ValidationError(EquifairError):
    """Input violates a documented precondition or value constraint."""

    category = "invalid-input"
    exit_code = 6


class EmptyInputError(ValidationError):
    """Input contains no samples."""

    category = "empty-input"
    exit_code = 5


class FormatError(EquifairError):
    """A file does not conform to its declared format."""

    category = "format-error"
    exit_code = 4


class DegenerateInputError(EquifairError):
    """Input is structurally valid but degenerate for the requested operation."""

    category = "degenerate-input"
    exit_code = 7


class GroupMismatchError(ValidationError):
    """Group labels do not match between fitted parameters and data."""

    category = "group-mismatch"
    exit_code = 8


def name_groups(groups) -> str:
    """Group labels as an error message lists them: the list itself up to
    five labels, else its first five and how many more there are, so a
    message stays short however many groups it names."""
    groups = list(groups)
    return repr(groups) if len(groups) <= 5 else f"{groups[:5]!r} and {len(groups) - 5} more"
