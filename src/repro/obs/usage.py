"""Per-principal resource accounting and heavy-hitter sketches.

Multi-user catalogues need to answer *who* is consuming capacity, not
just *what* is slow (the gap every grid monitoring survey flags, and the
prerequisite for per-class admission control).  This module aggregates
the per-request cost vectors produced by the RPC layer:

* :class:`UsageAccountant` — exact per ``(principal, op_class)`` totals
  for a bounded set of principals (wall time, queue wait, rows examined,
  bytes in/out, WAL bytes, request/error counts), exported as
  ``usage.*`` metrics through the server registry so ``rls stats`` and
  ``GET /metrics`` show them like any other instrument.
* :class:`SpaceSavingSketch` — the Metwally et al. space-saving top-K
  structure, used twice: over principals (so heavy hitters survive even
  past the exact-table cap) and over LFN *prefixes* (namespace heat:
  which part of the catalogue is hot).  Memory is O(capacity); every
  reported count overestimates the true count by at most the entry's
  recorded ``error`` (bounded by N/capacity).

Both the accountant and the sketch produce plain-dict, mergeable
snapshots, mirroring :class:`repro.obs.metrics.MetricsSnapshot`, so
per-shard usage tables combine into a deployment view.  The accountant
merges the same way inside one server: each request thread writes its own
:class:`UsageSnapshot` (one writer, no lock) and readers merge them.

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

from repro.obs.metrics import metric_key
from repro.obs.reqctx import ANONYMOUS_PRINCIPAL, RequestCosts  # noqa: F401

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
    (``/cms/run7/f001`` → ``/cms/run7``); names with a scheme keep it, the
    authority and the first directory under it (``lfn://host/run7/f1`` →
    ``lfn://host/run7``, ``lfn://exp/f001`` → ``lfn://exp``); flat names
    drop trailing digits (``lfn-000123`` → ``lfn-``), so serially-numbered
    families collapse into one bucket.
    """
    if "/" not in lfn:
        return lfn.rstrip("0123456789") or lfn
    parts = lfn.split("/", 4)
    first = parts[0]
    if first == "":
        keep = 3  # a leading slash opens an empty segment; two real ones
    elif first[-1] == ":" and len(first) > 1 and parts[1] == "":
        # ``scheme:``, ``""``, authority — and a directory if one follows.
        keep = 4 if len(parts) > 4 else 3
    else:
        keep = 2
    return "/".join(parts[:keep]) or "/"


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
        ``other`` may be a sketch one other thread is still offering to:
        it is read through ``dict.copy`` and ``dict.get``, one C call
        each, never by iterating a dict that may change size.
        """
        merged = SpaceSavingSketch(self.capacity)
        merged.offered = self.offered + other.offered
        union: dict[str, tuple[int, int]] = {}
        for sketch in (self, other):
            for key, count in sketch._counts.copy().items():
                prev_count, prev_err = union.get(key, (0, 0))
                union[key] = (
                    prev_count + count,
                    prev_err + sketch._errors.get(key, 0),
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
        self.cells = {} if cells is None else cells
        # ``is None``, not ``or``: an empty sketch has length 0.
        self.principals = SpaceSavingSketch() if principals is None else principals
        self.prefixes = SpaceSavingSketch() if prefixes is None else prefixes
        #: Requests folded under the overflow label since start.
        self.overflowed = overflowed

    def merge(self, other: "UsageSnapshot") -> "UsageSnapshot":
        """The sum of both, sharing nothing with either; ``other`` may be
        one that a single other thread is still accounting into."""
        cells: dict[tuple[str, str], list[float]] = {
            key: list(vec) for key, vec in self.cells.items()
        }
        for key, vec in other.cells.copy().items():
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

    One instance per server, subscribed to its dispatcher
    (``RPCServer(observers=[accountant])``): ``finished`` charges each
    completed request, ``record_bytes`` each frame.  Each request thread
    accounts into a *shard* of its own — a :class:`UsageSnapshot` only
    that thread writes, found through a thread-local — so the hot path
    takes no lock and loses no update; readers merge the shards, and an
    exited thread's shard is folded into one remainder, so memory follows
    live connections.  Every cost lives in the cells alone: the
    ``usage.*`` counters are read out of the merged cells when the
    registry is snapshotted.
    """

    def __init__(
        self,
        metrics: Any = None,
        top_k: int = 32,
        max_principals: int = 64,
    ) -> None:
        self.top_k = top_k
        self.max_principals = max_principals
        self._lock = threading.Lock()  # labels and shards; never per request
        self._labels: dict[str, str] = {}
        self._shards: dict[threading.Thread, UsageSnapshot] = {}
        # Per thread: ``shard`` (its own in ``_shards``) and ``net``, the
        # ``(principal, cell)`` its last frame's bytes went to.
        self._local = threading.local()
        self._folded = self._new_shard()
        if metrics is not None:
            metrics.register_counters(self._counters)

    def _new_shard(self) -> UsageSnapshot:
        return UsageSnapshot(
            principals=SpaceSavingSketch(self.top_k),
            prefixes=SpaceSavingSketch(self.top_k),
        )

    def _fold_dead_shards(self) -> None:
        """Merge exited threads' shards into the remainder (lock held)."""
        for thread in [t for t in self._shards if not t.is_alive()]:
            self._folded = self._folded.merge(self._shards.pop(thread))

    def _shard(self) -> UsageSnapshot:
        """The calling thread's shard (the dict changes only under the lock)."""
        try:
            return self._local.shard
        except AttributeError:
            with self._lock:
                self._fold_dead_shards()
                shard = self._shards[threading.current_thread()] = self._new_shard()
            self._local.shard = shard
            return shard

    # -- label management ------------------------------------------------

    def label_for(self, principal: str) -> str:
        """Bounded metric label for ``principal`` (``<other>`` past cap)."""
        label = self._labels.get(principal)
        if label is None:
            with self._lock:
                capped = len(self._labels) >= self.max_principals
                label = self._labels.setdefault(
                    principal, OVERFLOW_PRINCIPAL if capped else principal
                )
        return label

    # -- the hot path ----------------------------------------------------

    def finished(self, r: RequestCosts) -> None:
        """Charge one completed request's cost vector."""
        shard = self._shard()
        principal = r.principal
        label = self._labels.get(principal) or self.label_for(principal)
        if label == OVERFLOW_PRINCIPAL and principal != OVERFLOW_PRINCIPAL:
            shard.overflowed += 1
        key = (label, r.op_class or OTHER_CLASS)
        vec = shard.cells.get(key) or shard.cells.setdefault(key, [0.0] * _N_FIELDS)
        vec[_I_REQUESTS] += 1
        vec[_I_ERRORS] += r.error is not None
        vec[_I_WALL] += r.end - r.start
        vec[_I_QUEUE] += r.queue_wait
        vec[_I_ROWS] += r.rows_examined
        vec[_I_WAL] += r.wal_bytes
        shard.principals.offer(principal)
        if r.lfn is not None:
            shard.prefixes.offer(lfn_prefix(r.lfn))

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
        """Charge a cost vector given field by field (tests, tools)."""
        self.finished(
            RequestCosts(
                "", op_class, principal, queue_wait=queue_wait, lfn=lfn,
                start=0.0, end=wall_time, rows_examined=rows_examined,
                wal_bytes=wal_bytes, error="error" if error else None,
            )
        )

    def record_bytes(
        self, principal: str, bytes_in: int = 0, bytes_out: int = 0
    ) -> None:
        """Charge transport bytes (class ``net`` — frames may batch ops).
        A connection's frames come on one thread under one principal, so
        the cell is looked up when that changes, not per frame."""
        charged, vec = getattr(self._local, "net", (None, None))
        if charged is not principal:
            key = (self.label_for(principal), NET_CLASS)
            vec = self._shard().cells.setdefault(key, [0.0] * _N_FIELDS)
            self._local.net = principal, vec
        vec[_I_BYTES_IN] += bytes_in
        vec[_I_BYTES_OUT] += bytes_out

    # -- read side -------------------------------------------------------

    def top_principals(self, n: int = 10) -> list[tuple[str, int, int]]:
        return self.snapshot().principals.top(n)

    def top_prefixes(self, n: int = 10) -> list[tuple[str, int, int]]:
        return self.snapshot().prefixes.top(n)

    def snapshot(self) -> UsageSnapshot:
        with self._lock:
            self._fold_dead_shards()
            merged = self._folded
            live = list(self._shards.values())
        for shard in live:
            merged = merged.merge(shard)
        return merged

    def _counters(self) -> dict[str, float]:
        """The ``usage.*`` series, read out of the merged cells."""
        series: dict[str, float] = {}
        for (principal, op_class), vec in self.snapshot().cells.items():
            labels = metric_key("", {"principal": principal, "class": op_class})
            for name, value in zip(COST_FIELDS, vec):
                if name != "queue_wait":  # in the payload, never a series
                    # Seconds stay a float once charged; counts are ints.
                    series[f"usage.{name}{labels}"] = (
                        value if name == "wall_time" and value else int(value)
                    )
        return series

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
