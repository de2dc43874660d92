"""Cluster-wide trace assembly and critical-path analysis.

One logical request in a sharded deployment crosses several servers
(combined client -> shard master -> mirrors), and each node's tracer and
:class:`~repro.obs.tracing.SpanSink` retain only their *local* fragments
of the span tree.  A :class:`TraceAssembler` gathers the fragments for a
``trace_id`` from a set of :class:`TraceSource`\\ s, deduplicates by span
id, and stitches them into a single cross-node tree.

Fragments are expected to be *partial*: a node may have restarted, its
trace may have been evicted (orphan fragments, retained by the sink with
reason ``...,orphan``), or the node may simply be unreachable.  Missing
parents are made explicit with synthetic **gap markers** rather than the
children being silently dropped, and unreachable sources are reported in
``missing`` instead of failing the whole assembly.

The assembled tree supports **critical-path** extraction: a cursor walk
that attributes every moment of the root span's wall time to a segment —
client routing (``cluster.*`` own time), network/queue wait (the gap
between ``rpc.call``/``rpc.attempt`` and the server's ``rpc.handle``
start), server dispatch, authorization, DB operators, the WAL flush
barrier, or mirror replication.  In-process timestamps come from one
``time.perf_counter()`` clock, so segment durations sum to the root span
duration exactly; over TCP the per-process clocks make the net.wait
segments approximate, which is flagged in the payload (``clock``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.tracing import Span, SpanSink, Tracer

__all__ = [
    "AssembledTrace",
    "Segment",
    "TraceAssembler",
    "TraceSource",
    "cluster_sources",
    "render_critical_path",
    "render_trace",
    "segment_kind",
    "sink_source",
    "tracer_source",
]


@dataclass(frozen=True)
class TraceSource:
    """One node's fragment feed: ``fetch(trace_id)`` returns its spans.

    ``fetch`` may return :class:`Span` objects or wire dicts (the
    ``admin_trace_fragments`` payload shape); exceptions are tolerated —
    the assembler records the node as missing and keeps stitching.
    """

    name: str
    fetch: Callable[[str], Iterable[Any]]


def tracer_source(
    name: str, tracer: Tracer, node: str | None = None
) -> TraceSource:
    """Source over a local tracer (store + sink orphans).

    With ``node=`` the fragments are filtered to spans tagged
    ``node=<node>`` — this partitions a *shared in-process* tracer into
    per-node feeds, which is how single-process cluster tests model
    multiple processes' sinks.  Untagged spans belong to the client and
    are returned only by the ``node=None`` source.
    """

    def fetch(trace_id: str) -> list[Span]:
        spans = tracer.fragments(trace_id)
        if node is None:
            return spans
        return [s for s in spans if str(s.tags.get("node", "")) == node]

    return TraceSource(name=name, fetch=fetch)


def sink_source(name: str, sink: SpanSink) -> TraceSource:
    """Source over a bare span sink (retained fragments only)."""
    return TraceSource(name=name, fetch=sink.trace)


def cluster_sources(
    shard_map: Mapping[str, Any],
    connect: Callable[[str], Any],
    skip: str | None = None,
) -> list[TraceSource]:
    """One source per endpoint of a shard map (its wire ``to_dict`` form):
    each master followed by its mirrors, ``skip`` left out.

    A fetch opens its own connection with ``connect(name)`` (an
    :class:`~repro.core.client.RLSClient` factory) and asks that node for
    its ``trace_fragments``; a node that cannot be reached raises there,
    which the assembler reports under ``missing``.
    """

    def remote(name: str) -> Callable[[str], list[dict[str, Any]]]:
        def fetch(trace_id: str) -> list[dict[str, Any]]:
            with connect(name) as peer:
                return peer.trace_fragments(trace_id).get("spans", [])

        return fetch

    mirrors = shard_map.get("mirrors", {})
    return [
        TraceSource(name=name, fetch=remote(name))
        for shard in shard_map["shards"]
        for name in (shard, *mirrors.get(shard, ()))
        if name != skip
    ]


# -- segment classification -------------------------------------------------

#: Span-name prefix -> critical-path segment kind.  Order matters: the
#: first matching prefix wins.
_SEGMENT_KINDS: tuple[tuple[str, str], ...] = (
    ("cluster.", "client.routing"),
    ("rpc.call", "net.wait"),
    ("rpc.attempt", "net.wait"),
    ("rpc.drain", "net.wait"),
    ("rpc.handle", "server.handle"),
    ("acl.check", "acl"),
    ("sql.", "db"),
    ("wal.", "wal"),
    ("mirror", "replication"),
    ("update", "replication"),
)


def segment_kind(span_name: str) -> str:
    """Critical-path segment kind for a span's *own* (un-childed) time."""
    for prefix, kind in _SEGMENT_KINDS:
        if span_name.startswith(prefix):
            return kind
    return span_name


@dataclass
class Segment:
    """One critical-path slice: ``duration`` seconds of the root span's
    wall clock attributed to ``kind`` inside span ``name`` on ``node``."""

    kind: str
    name: str
    node: str
    start: float
    duration: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "duration": self.duration,
        }


@dataclass
class AssembledTrace:
    """The stitched cross-node view of one trace."""

    trace_id: str
    spans: list[Span] = field(default_factory=list)
    #: source name -> number of spans that source contributed
    nodes: dict[str, int] = field(default_factory=dict)
    #: source name -> error string for sources that could not be reached
    missing: dict[str, str] = field(default_factory=dict)
    #: parent span ids referenced but never gathered (gap markers)
    gaps: list[str] = field(default_factory=list)

    # -- tree --------------------------------------------------------------

    def tree(self) -> list[dict[str, Any]]:
        """Forest of ``{span, children, gap}`` nodes, children by start.

        Spans whose parent id was never gathered hang under a synthetic
        gap node (``gap=True``, ``span=None``, ``span_id=<missing id>``)
        so partial fragments stay visibly partial instead of floating up
        as fake roots.
        """
        by_id = {s.span_id: s for s in self.spans}
        nodes: dict[str, dict[str, Any]] = {
            sid: {"span": s, "span_id": sid, "gap": False, "children": []}
            for sid, s in by_id.items()
        }
        gap_nodes: dict[str, dict[str, Any]] = {}
        roots: list[dict[str, Any]] = []
        for s in sorted(self.spans, key=lambda s: s.start):
            node = nodes[s.span_id]
            if s.parent_id is None:
                roots.append(node)
            elif s.parent_id in nodes:
                nodes[s.parent_id]["children"].append(node)
            else:
                gap = gap_nodes.get(s.parent_id)
                if gap is None:
                    gap = {
                        "span": None,
                        "span_id": s.parent_id,
                        "gap": True,
                        "children": [],
                    }
                    gap_nodes[s.parent_id] = gap
                    roots.append(gap)
                gap["children"].append(node)
        return roots

    # -- critical path -----------------------------------------------------

    def _root_node(self) -> dict[str, Any] | None:
        """The tree to walk: the root covering the most wall time."""

        def extent(node: dict[str, Any]) -> float:
            span = node["span"]
            if span is not None:
                return span.duration
            ends = [
                c["span"].start + c["span"].duration
                for c in node["children"]
                if c["span"] is not None
            ]
            starts = [
                c["span"].start
                for c in node["children"]
                if c["span"] is not None
            ]
            if not starts:
                return 0.0
            return max(ends) - min(starts)

        forest = self.tree()
        if not forest:
            return None
        return max(forest, key=extent)

    def critical_path(self) -> list[Segment]:
        """Wall-time attribution of the (largest) root span.

        A cursor walks each span's interval backwards from its end: the
        child that ends last is on the path and is attributed
        recursively, and the cursor moves to its start; a child that ends
        after the cursor ran alongside the path and is off it.  Time
        between path children is the span's *own* time
        (:func:`segment_kind`); for ``rpc.call`` / ``rpc.attempt`` /
        ``rpc.drain`` it *is* network + server queue wait, the gap around
        the server's ``rpc.handle``.  An async request carries its
        caller's span, so its ``rpc.handle`` is a *sibling* of the
        ``rpc.drain`` waiting for it: a waiting path child adopts the
        overlapping siblings that are not themselves waiting.
        """
        root = self._root_node()
        if root is None:
            return []
        segments: list[Segment] = []

        def end_of(node: dict[str, Any]) -> float:
            return node["span"].start + node["span"].duration

        def walk(node: dict, inherited: str, hi: float, adopted=()) -> float:
            """Attribute ``node`` up to ``hi``; return where the path
            leaves it (its start, or earlier through an adopted span)."""
            span = node["span"]
            items = sorted(
                [c for c in node["children"] if c["span"] is not None]
                + list(adopted),
                key=end_of,
                reverse=True,
            )
            if span is None:
                # Gap marker: nothing is known about the parent, so only
                # the children's intervals can be attributed.
                for child in items:
                    walk(child, inherited, end_of(child))
                return hi
            kind = segment_kind(span.name)
            # Only rpc.handle spans carry a node= tag; everything nested
            # under one (acl, sql, wal, ...) ran on the same server.
            label = str(span.tags.get("node", "")) or inherited
            end = cursor = min(end_of(node), hi)
            for i, child in enumerate(items):
                child_end = min(end_of(child), end)
                if child_end > cursor:
                    continue
                if cursor > child_end:
                    segments.append(
                        Segment(kind, span.name, label, child_end,
                                cursor - child_end)
                    )
                waited_for = [
                    s for s in items[i + 1:]
                    if end_of(s) > child["span"].start
                    and segment_kind(s["span"].name) != "net.wait"
                ] if segment_kind(child["span"].name) == "net.wait" else []
                cursor = min(cursor, walk(child, label, child_end, waited_for))
            if cursor > span.start:
                segments.append(
                    Segment(kind, span.name, label, span.start,
                            cursor - span.start)
                )
            return min(cursor, span.start)

        walk(root, "client", float("inf"))
        return sorted(segments, key=lambda seg: seg.start)

    def root_duration(self) -> float:
        root = self._root_node()
        if root is None:
            return 0.0
        span = root["span"]
        if span is not None:
            return span.duration
        ends = [
            c["span"].start + c["span"].duration
            for c in root["children"]
            if c["span"] is not None
        ]
        starts = [
            c["span"].start for c in root["children"]
            if c["span"] is not None
        ]
        return (max(ends) - min(starts)) if starts else 0.0

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        def encode(node: dict[str, Any]) -> dict[str, Any]:
            return {
                "span": (
                    node["span"].to_dict() if node["span"] is not None
                    else None
                ),
                "span_id": node["span_id"],
                "gap": node["gap"],
                "children": [encode(c) for c in node["children"]],
            }

        path = self.critical_path()
        root_duration = self.root_duration()
        covered = sum(seg.duration for seg in path)
        return {
            "trace_id": self.trace_id,
            "spans": [s.to_dict() for s in self.spans],
            "tree": [encode(n) for n in self.tree()],
            "critical_path": [seg.to_dict() for seg in path],
            "root_duration": root_duration,
            "path_duration": covered,
            "coverage": (covered / root_duration) if root_duration else 0.0,
            "nodes": dict(self.nodes),
            "missing": dict(self.missing),
            "gaps": list(self.gaps),
            # One perf_counter clock in-process; per-process clocks over
            # TCP make cross-node gaps approximate.
            "clock": "shared",
        }


class TraceAssembler:
    """Stitches per-node span fragments into one cross-node trace."""

    def __init__(self, sources: Sequence[TraceSource]) -> None:
        self.sources = list(sources)

    def gather(
        self, trace_id: str
    ) -> tuple[dict[str, list[Span]], dict[str, str]]:
        """Fetch fragments from every source; failures don't abort.

        Returns ``(fragments_by_source, errors_by_source)``.
        """
        fragments: dict[str, list[Span]] = {}
        errors: dict[str, str] = {}
        for source in self.sources:
            try:
                raw = source.fetch(trace_id)
            except Exception as exc:  # noqa: BLE001 - partial by design
                errors[source.name] = f"{type(exc).__name__}: {exc}"
                continue
            spans: list[Span] = []
            for item in raw or ():
                if isinstance(item, Span):
                    spans.append(item)
                else:
                    spans.append(Span.from_dict(item))
            fragments[source.name] = spans
        return fragments, errors

    def assemble(self, trace_id: str) -> AssembledTrace:
        fragments, errors = self.gather(trace_id)
        by_id: dict[str, Span] = {}
        nodes: dict[str, int] = {}
        for name, spans in fragments.items():
            contributed = 0
            for span in spans:
                if span.trace_id != trace_id:
                    continue
                if span.span_id not in by_id:
                    by_id[span.span_id] = span
                    contributed += 1
            nodes[name] = contributed
        spans = sorted(by_id.values(), key=lambda s: s.start)
        gaps = sorted(
            {
                s.parent_id
                for s in spans
                if s.parent_id is not None and s.parent_id not in by_id
            }
        )
        return AssembledTrace(
            trace_id=trace_id,
            spans=spans,
            nodes=nodes,
            missing=errors,
            gaps=gaps,
        )


# -- rendering --------------------------------------------------------------
#
# These operate on the *wire payload* (AssembledTrace.to_dict() or the
# admin_trace RPC result) so the CLI renders server-assembled and
# client-assembled traces identically.


def render_trace(payload: dict[str, Any]) -> str:
    """Indented stitched tree, one line per span, gaps marked."""
    lines = [
        f"trace {payload.get('trace_id', '?')}: "
        f"{len(payload.get('spans', []))} spans from "
        f"{len(payload.get('nodes', {}))} nodes"
    ]
    for name, count in sorted(payload.get("nodes", {}).items()):
        lines.append(f"  node {name}: {count} spans")
    for name, err in sorted(payload.get("missing", {}).items()):
        lines.append(f"  node {name}: MISSING ({err})")

    def emit(node: dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        span = node.get("span")
        if span is None:
            lines.append(
                f"{indent}[gap: missing span {node.get('span_id')}]"
            )
        else:
            tags = span.get("tags", {})
            extra = "".join(
                f" {k}={tags[k]}"
                for k in ("node", "method", "shard", "endpoint", "failover")
                if k in tags
            )
            err = f" ERROR:{span['error']}" if span.get("error") else ""
            lines.append(
                f"{indent}{span['name']} "
                f"{span.get('duration', 0.0) * 1e3:.3f}ms{extra}{err}"
            )
        for child in node.get("children", []):
            emit(child, depth + 1)

    for root in payload.get("tree", []):
        emit(root, 1)
    return "\n".join(lines)


def render_critical_path(payload: dict[str, Any]) -> str:
    """Critical-path table: per-segment and per-kind attribution."""
    path = payload.get("critical_path", [])
    root = payload.get("root_duration", 0.0) or 0.0
    lines = [
        "critical path "
        f"({payload.get('path_duration', 0.0) * 1e3:.3f}ms of "
        f"{root * 1e3:.3f}ms root, "
        f"{payload.get('coverage', 0.0) * 100:.1f}% attributed):"
    ]
    for seg in path:
        pct = (seg["duration"] / root * 100) if root else 0.0
        lines.append(
            f"  {seg['duration'] * 1e3:9.3f}ms {pct:5.1f}%  "
            f"{seg['kind']:<14} {seg['name']} @ {seg['node']}"
        )
    by_kind: dict[str, float] = {}
    for seg in path:
        by_kind[seg["kind"]] = by_kind.get(seg["kind"], 0.0) + seg["duration"]
    if by_kind:
        lines.append("by kind:")
        for kind, total in sorted(
            by_kind.items(), key=lambda kv: -kv[1]
        ):
            pct = (total / root * 100) if root else 0.0
            lines.append(f"  {total * 1e3:9.3f}ms {pct:5.1f}%  {kind}")
    return "\n".join(lines)
