"""Namespace partitioning of soft-state updates (§3.5).

When partitioning is enabled, logical names are matched against regular
expressions and updates for different subsets of the namespace go to
different RLIs.  A target with no patterns receives the whole namespace.

``filter_names`` runs over every name an update sends, so each target's
pattern list is compiled once into a single alternation
(``(?:p1)|(?:p2)|...``): one C-level ``search`` per name instead of a
Python-level ``any()`` over k patterns.  Patterns containing
backreferences cannot be joined safely (group numbers shift inside an
alternation), so those targets keep the per-pattern path.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable, Sequence

from repro.core.lrc import RLITarget

#: Backreference forms (``\1`` ... ``\99``, ``(?P=name)``) whose meaning
#: would change inside a joined alternation.
_BACKREF = re.compile(r"\\[1-9]|\(\?P=")


def _combine(patterns: Sequence[str]) -> re.Pattern[str] | None:
    """One alternation matching iff any pattern matches, or ``None`` when
    the patterns cannot be combined without changing semantics."""
    if any(_BACKREF.search(p) for p in patterns):
        return None
    return re.compile("|".join(f"(?:{p})" for p in patterns))


def _matcher(patterns: Sequence[str]) -> Callable[[str], Any] | None:
    """A search matching iff any pattern matches, or ``None`` for a
    target with no patterns (the whole namespace)."""
    if not patterns:
        return None
    combined = _combine(patterns)
    if combined is not None:
        return combined.search
    compiled = [re.compile(p) for p in patterns]
    return lambda lfn: any(p.search(lfn) for p in compiled)


class PartitionRouter:
    """Picks the logical names each RLI target should receive."""

    def __init__(self, targets: Sequence[RLITarget]) -> None:
        self._match = {t.name: _matcher(t.patterns) for t in targets}

    def filter_names(self, target: RLITarget, lfns: Iterable[str]) -> list[str]:
        """Subset of ``lfns`` that ``target`` should receive: names any of
        its patterns finds (``re.search`` semantics, like Globus partition
        regexes), or every name when it has none."""
        match = self._match[target.name]
        if match is None:
            return list(lfns)
        return [lfn for lfn in lfns if match(lfn)]
