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
    """Group labels as an error message lists them: at most the first five,
    then how many more there are, each past 40 characters cut to those and
    a count of the rest, so a message stays short whatever groups it names."""
    groups = list(groups)
    shown = [f"{g[:40]!r}... ({len(g) - 40} more characters)" if isinstance(g, str) and len(g) > 40 else repr(g) for g in groups[:5]]
    return f"[{', '.join(shown)}]" + (f" and {len(groups) - 5} more" if len(groups) > 5 else "")
