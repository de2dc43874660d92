"""Per-principal resource accounting and heavy-hitter sketches.

Multi-user catalogues need to answer *who* is consuming capacity, not
just *what* is slow (the gap every grid monitoring survey flags, and the
prerequisite for per-class admission control).  This module aggregates
the per-request cost vectors produced by the RPC layer:

* :class:`UsageAccountant` — exact per ``(principal, op_class)`` totals
  for a bounded set of principals (wall time, queue wait, rows examined,
  bytes in/out, WAL bytes, request/error counts), exported as
  ``usage.*`` metrics through the server registry so collectors and
  ``rls top`` see them like any other instrument.
* :class:`SpaceSavingSketch` — the Metwally et al. space-saving top-K
  structure, used twice: over principals (so heavy hitters survive even
  past the exact-table cap) and over LFN *prefixes* (namespace heat:
  which part of the catalogue is hot).  Memory is O(capacity); every
  reported count overestimates the true count by at most the entry's
  recorded ``error`` (bounded by N/capacity).

Both the accountant and the sketch produce plain-dict, mergeable
snapshots, mirroring :class:`repro.obs.metrics.MetricsSnapshot`, so
per-shard usage tables combine into a deployment view.

**Cardinality.**  Principals are client-influenced, so every labelled
surface is capped: at most ``max_principals`` distinct labels get exact
rows and their own metric label sets; later arrivals aggregate under
``OVERFLOW_PRINCIPAL`` (``<other>``), mirroring the bounded
``<unknown>`` rpc.errors label.  The sketches still track overflowed
principals individually (that is their job), in O(top_k) memory.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.obs.metrics import NULL_REGISTRY

#: Stable principal for unauthenticated or unmapped connections.
ANONYMOUS_PRINCIPAL = "anonymous"
#: Aggregate label once the exact-table principal cap is reached.
OVERFLOW_PRINCIPAL = "<other>"
#: Requests that classify to no operation class (admin/internal RPCs).
OTHER_CLASS = "other"
#: Transport-level byte costs (not attributable to one op class when
#: frames batch several requests).
NET_CLASS = "net"

#: Per-cell cost vector layout; order is the wire/meaning contract.
COST_FIELDS = (
    "requests",
    "errors",
    "wall_time",
    "queue_wait",
    "rows_examined",
    "bytes_in",
    "bytes_out",
    "wal_bytes",
)
_N_FIELDS = len(COST_FIELDS)
_I_REQUESTS = 0
_I_ERRORS = 1
_I_WALL = 2
_I_QUEUE = 3
_I_ROWS = 4
_I_BYTES_IN = 5
_I_BYTES_OUT = 6
_I_WAL = 7


def lfn_prefix(lfn: str) -> str:
    """Heat-map key for one logical file name.

    Path-style names keep their first two ``/``-separated segments
    (``/cms/run7/f001`` → ``/cms/run7``); flat names drop trailing
    digits (``lfn-000123`` → ``lfn-``), so serially-numbered families
    collapse into one bucket.
    """
    if "/" in lfn:
        parts = lfn.split("/")
        # A leading slash makes parts[0] == ""; keep two real segments.
        head = parts[:3] if parts[0] == "" else parts[:2]
        return "/".join(head) or "/"
    return lfn.rstrip("0123456789") or lfn


class SpaceSavingSketch:
    """Space-saving heavy-hitter sketch (Metwally, Agrawal, El Abbadi).

    Tracks at most ``capacity`` keys.  A new key arriving at capacity
    evicts the current minimum and inherits its count (recording that
    count as the new entry's ``error`` — the maximum overestimation).
    Any key whose true count exceeds N/capacity is guaranteed present.
    """

    __slots__ = ("capacity", "_counts", "_errors", "offered")

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("sketch capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        #: Total weight offered (N in the error bound N/capacity).
        self.offered = 0

    def __len__(self) -> int:
        return len(self._counts)

    def offer(self, key: str, weight: int = 1) -> None:
        self.offered += weight
        counts = self._counts
        if key in counts:
            counts[key] += weight
            return
        if len(counts) < self.capacity:
            counts[key] = weight
            self._errors[key] = 0
            return
        victim = min(counts, key=counts.__getitem__)
        floor = counts.pop(victim)
        del self._errors[victim]
        counts[key] = floor + weight
        self._errors[key] = floor

    def top(self, n: int | None = None) -> list[tuple[str, int, int]]:
        """``(key, count, error)`` rows, largest count first.

        ``count`` overestimates the true count by at most ``error``.
        """
        rows = sorted(
            self._counts.items(), key=lambda kv: kv[1], reverse=True
        )
        if n is not None:
            rows = rows[:n]
        return [(key, count, self._errors[key]) for key, count in rows]

    def count(self, key: str) -> int:
        return self._counts.get(key, 0)

    def merge(self, other: "SpaceSavingSketch") -> "SpaceSavingSketch":
        """Combine two sketches (e.g. the same surface from two shards).

        Shared keys sum counts and errors; the union is then trimmed
        back to this sketch's capacity, keeping the largest counts.
        Surviving counts remain upper bounds on the true totals.
        """
        merged = SpaceSavingSketch(self.capacity)
        merged.offered = self.offered + other.offered
        union: dict[str, tuple[int, int]] = {}
        for sketch in (self, other):
            for key, count in sketch._counts.items():
                prev_count, prev_err = union.get(key, (0, 0))
                union[key] = (
                    prev_count + count,
                    prev_err + sketch._errors[key],
                )
        kept = sorted(
            union.items(), key=lambda kv: kv[1][0], reverse=True
        )[: self.capacity]
        for key, (count, error) in kept:
            merged._counts[key] = count
            merged._errors[key] = error
        return merged

    def to_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "offered": self.offered,
            "entries": [
                {"key": key, "count": count, "error": error}
                for key, count, error in self.top()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpaceSavingSketch":
        sketch = cls(data["capacity"])
        sketch.offered = data.get("offered", 0)
        for row in data["entries"]:
            sketch._counts[row["key"]] = row["count"]
            sketch._errors[row["key"]] = row.get("error", 0)
        return sketch


class UsageSnapshot:
    """Plain-data view of an accountant: mergeable, wire-safe."""

    __slots__ = ("cells", "principals", "prefixes", "overflowed")

    def __init__(
        self,
        cells: dict[tuple[str, str], list[float]] | None = None,
        principals: SpaceSavingSketch | None = None,
        prefixes: SpaceSavingSketch | None = None,
        overflowed: int = 0,
    ) -> None:
        self.cells = cells or {}
        self.principals = principals or SpaceSavingSketch()
        self.prefixes = prefixes or SpaceSavingSketch()
        #: Requests folded under the overflow label since start.
        self.overflowed = overflowed

    def merge(self, other: "UsageSnapshot") -> "UsageSnapshot":
        cells: dict[tuple[str, str], list[float]] = {
            key: list(vec) for key, vec in self.cells.items()
        }
        for key, vec in other.cells.items():
            mine = cells.get(key)
            if mine is None:
                cells[key] = list(vec)
            else:
                for i, v in enumerate(vec):
                    mine[i] += v
        return UsageSnapshot(
            cells=cells,
            principals=self.principals.merge(other.principals),
            prefixes=self.prefixes.merge(other.prefixes),
            overflowed=self.overflowed + other.overflowed,
        )

    def principal_totals(self) -> dict[str, dict[str, float]]:
        """Cost vectors summed across op classes, keyed by principal."""
        totals: dict[str, dict[str, float]] = {}
        for (principal, _op_class), vec in self.cells.items():
            row = totals.setdefault(
                principal, dict.fromkeys(COST_FIELDS, 0.0)
            )
            for name, value in zip(COST_FIELDS, vec):
                row[name] += value
        return totals

    def to_dict(self) -> dict[str, Any]:
        principals: dict[str, dict[str, dict[str, float]]] = {}
        for (principal, op_class), vec in sorted(self.cells.items()):
            principals.setdefault(principal, {})[op_class] = dict(
                zip(COST_FIELDS, vec)
            )
        return {
            "fields": list(COST_FIELDS),
            "principals": principals,
            "top_principals": [
                {"principal": key, "count": count, "error": error}
                for key, count, error in self.principals.top()
            ],
            "top_prefixes": [
                {"prefix": key, "count": count, "error": error}
                for key, count, error in self.prefixes.top()
            ],
            "sketch": {
                "capacity": self.principals.capacity,
                "offered": self.principals.offered,
            },
            "overflowed": self.overflowed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "UsageSnapshot":
        cells: dict[tuple[str, str], list[float]] = {}
        for principal, classes in data.get("principals", {}).items():
            for op_class, row in classes.items():
                cells[(principal, op_class)] = [
                    float(row.get(name, 0.0)) for name in COST_FIELDS
                ]
        capacity = data.get("sketch", {}).get("capacity", 32)
        principals = SpaceSavingSketch(capacity)
        principals.offered = data.get("sketch", {}).get("offered", 0)
        for row in data.get("top_principals", ()):
            principals._counts[row["principal"]] = row["count"]
            principals._errors[row["principal"]] = row.get("error", 0)
        prefixes = SpaceSavingSketch(capacity)
        for row in data.get("top_prefixes", ()):
            prefixes._counts[row["prefix"]] = row["count"]
            prefixes._errors[row["prefix"]] = row.get("error", 0)
        return cls(
            cells=cells,
            principals=principals,
            prefixes=prefixes,
            overflowed=data.get("overflowed", 0),
        )


class UsageAccountant:
    """Attributes request cost vectors to ``(principal, op_class)``.

    One instance per server.  ``account`` runs once per RPC on the
    handler thread; its cost is a handful of dict operations, so the
    accounting path stays inside the benchmarked per-request budget
    (``benchmarks/check_overhead.py::time_usage_account``).
    """

    def __init__(
        self,
        metrics: Any = None,
        top_k: int = 32,
        max_principals: int = 64,
    ) -> None:
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.top_k = top_k
        self.max_principals = max_principals
        self._lock = threading.Lock()
        self._cells: dict[tuple[str, str], list[float]] = {}
        self._instruments: dict[tuple[str, str], tuple] = {}
        self._principal_sketch = SpaceSavingSketch(top_k)
        self._prefix_sketch = SpaceSavingSketch(top_k)
        self._labels: dict[str, str] = {}
        self._overflowed = 0

    # -- label management ------------------------------------------------

    def label_for(self, principal: str) -> str:
        """Bounded metric label for ``principal`` (``<other>`` past cap)."""
        label = self._labels.get(principal)
        if label is not None:
            return label
        with self._lock:
            label = self._labels.get(principal)
            if label is None:
                if len(self._labels) < self.max_principals:
                    label = principal
                else:
                    label = OVERFLOW_PRINCIPAL
                self._labels[principal] = label
        return label

    def _cell(self, label: str, op_class: str) -> tuple[list[float], tuple]:
        key = (label, op_class)
        vec = self._cells.get(key)
        if vec is None:
            with self._lock:
                vec = self._cells.get(key)
                if vec is None:
                    vec = [0.0] * _N_FIELDS
                    self._cells[key] = vec
                    self._instruments[key] = (
                        self.metrics.counter(
                            "usage.requests", principal=label, **{"class": op_class}
                        ),
                        self.metrics.counter(
                            "usage.errors", principal=label, **{"class": op_class}
                        ),
                        self.metrics.counter(
                            "usage.wall_time", principal=label, **{"class": op_class}
                        ),
                        self.metrics.counter(
                            "usage.rows_examined",
                            principal=label,
                            **{"class": op_class},
                        ),
                        self.metrics.counter(
                            "usage.wal_bytes", principal=label, **{"class": op_class}
                        ),
                        self.metrics.counter(
                            "usage.bytes_in", principal=label, **{"class": op_class}
                        ),
                        self.metrics.counter(
                            "usage.bytes_out", principal=label, **{"class": op_class}
                        ),
                    )
        return vec, self._instruments[key]

    # -- the hot path ----------------------------------------------------

    def account(
        self,
        principal: str,
        op_class: str | None,
        wall_time: float = 0.0,
        queue_wait: float = 0.0,
        rows_examined: int = 0,
        wal_bytes: int = 0,
        error: bool = False,
        lfn: str | None = None,
    ) -> None:
        """Charge one completed request's cost vector."""
        label = self.label_for(principal)
        cls = op_class or OTHER_CLASS
        vec, instruments = self._cell(label, cls)
        if label == OVERFLOW_PRINCIPAL and principal != OVERFLOW_PRINCIPAL:
            self._overflowed += 1
        # Benign races (+= on floats) lose at most one sample's worth;
        # per-connection threads make same-cell contention rare.
        vec[_I_REQUESTS] += 1
        vec[_I_WALL] += wall_time
        instruments[0].inc()
        instruments[2].inc(wall_time)
        if error:
            vec[_I_ERRORS] += 1
            instruments[1].inc()
        if queue_wait:
            vec[_I_QUEUE] += queue_wait
        if rows_examined:
            vec[_I_ROWS] += rows_examined
            instruments[3].inc(rows_examined)
        if wal_bytes:
            vec[_I_WAL] += wal_bytes
            instruments[4].inc(wal_bytes)
        with self._lock:
            self._principal_sketch.offer(principal)
            if lfn is not None:
                self._prefix_sketch.offer(lfn_prefix(lfn))

    def record_bytes(
        self, principal: str, bytes_in: int = 0, bytes_out: int = 0
    ) -> None:
        """Charge transport bytes (class ``net`` — frames may batch ops)."""
        label = self.label_for(principal)
        vec, instruments = self._cell(label, NET_CLASS)
        if bytes_in:
            vec[_I_BYTES_IN] += bytes_in
            instruments[5].inc(bytes_in)
        if bytes_out:
            vec[_I_BYTES_OUT] += bytes_out
            instruments[6].inc(bytes_out)

    # -- read side -------------------------------------------------------

    def top_principals(self, n: int = 10) -> list[tuple[str, int, int]]:
        with self._lock:
            return self._principal_sketch.top(n)

    def top_prefixes(self, n: int = 10) -> list[tuple[str, int, int]]:
        with self._lock:
            return self._prefix_sketch.top(n)

    def snapshot(self) -> UsageSnapshot:
        with self._lock:
            cells = {key: list(vec) for key, vec in self._cells.items()}
            principals = self._principal_sketch.merge(
                SpaceSavingSketch(self._principal_sketch.capacity)
            )
            prefixes = self._prefix_sketch.merge(
                SpaceSavingSketch(self._prefix_sketch.capacity)
            )
            overflowed = self._overflowed
        return UsageSnapshot(
            cells=cells,
            principals=principals,
            prefixes=prefixes,
            overflowed=overflowed,
        )

    def to_dict(self) -> dict[str, Any]:
        data = self.snapshot().to_dict()
        data["enabled"] = True
        data["max_principals"] = self.max_principals
        data["principals_tracked"] = len(self._labels)
        return data


def merge_usage_dicts(dicts: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Merge several ``admin_usage`` payloads into one deployment view."""
    merged: UsageSnapshot | None = None
    for data in dicts:
        snap = UsageSnapshot.from_dict(data)
        merged = snap if merged is None else merged.merge(snap)
    result = (merged or UsageSnapshot()).to_dict()
    result["enabled"] = True
    return result
