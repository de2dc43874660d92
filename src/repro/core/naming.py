"""Logical/target name validation and wildcard handling.

Logical names (LFNs) are unique identifiers for data content; target names
(usually physical file names, PFNs) are replica locations.  The RLS client
interface supports wildcard queries using ``*`` (any run) and ``?`` (any
single character), which map onto SQL ``LIKE``'s ``%`` and ``_``.
"""

from __future__ import annotations

from repro.core.errors import InvalidNameError

#: Maximum name length, from the ``varchar(250)`` columns in Figure 3.
MAX_NAME_LENGTH = 250

_WILDCARD_CHARS = ("*", "?")


def validate_name(name: str, kind: str = "name") -> str:
    """Validate an LFN/PFN; returns it unchanged or raises InvalidNameError."""
    if not isinstance(name, str):
        raise InvalidNameError(f"{kind} must be a string, got {type(name).__name__}")
    if not name:
        raise InvalidNameError(f"{kind} must not be empty")
    if len(name) > MAX_NAME_LENGTH:
        raise InvalidNameError(
            f"{kind} exceeds {MAX_NAME_LENGTH} characters ({len(name)})"
        )
    if "\x00" in name:
        raise InvalidNameError(f"{kind} must not contain NUL")
    return name


def has_wildcard(pattern: str) -> bool:
    """True if ``pattern`` contains RLS wildcard characters."""
    return any(ch in pattern for ch in _WILDCARD_CHARS)


def wildcard_to_like(pattern: str) -> str:
    """Translate an RLS wildcard pattern to a SQL LIKE pattern.

    ``*`` → ``%`` and ``?`` → ``_``; literal ``%``/``_`` in names cannot be
    escaped in this dialect (they do not occur in grid file names).
    """
    return pattern.replace("*", "%").replace("?", "_")
