"""Trial statistics (§4: several trials, mean rate reported)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class TrialStats:
    """Summary over repeated trials of a rate measurement."""

    rates: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.rates) / len(self.rates)

    @property
    def stdev(self) -> float:
        if len(self.rates) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((r - mu) ** 2 for r in self.rates) / (len(self.rates) - 1)
        )

    @property
    def minimum(self) -> float:
        return min(self.rates)

    @property
    def maximum(self) -> float:
        return max(self.rates)

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"{self.mean:.1f} ± {self.stdev:.1f} ops/s (n={len(self.rates)})"


def summarize(rates: Sequence[float]) -> TrialStats:
    if not rates:
        raise ValueError("no trials")
    return TrialStats(tuple(rates))
