"""Per-principal usage accounting: sketches, accountant, cardinality."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.client import connect, connect_tcp_server
from repro.core.config import ServerRole
from repro.core.errors import MappingNotFoundError
from repro.net.errors import RemoteError
from repro.obs.metrics import MetricsRegistry
from repro.obs.usage import (
    ANONYMOUS_PRINCIPAL,
    COST_FIELDS,
    OVERFLOW_PRINCIPAL,
    SpaceSavingSketch,
    UsageAccountant,
    UsageSnapshot,
    lfn_prefix,
    merge_usage_dicts,
)


class TestLfnPrefix:
    def test_path_names_keep_two_segments(self):
        assert lfn_prefix("/cms/run7/f001") == "/cms/run7"
        assert lfn_prefix("/cms/run7") == "/cms/run7"
        assert lfn_prefix("exp/raw/a/b") == "exp/raw"

    def test_scheme_names_keep_authority_and_first_directory(self):
        # Every ``scheme://`` name used to land in one bucket, ``lfn:/``.
        assert lfn_prefix("lfn://exp/file001") == "lfn://exp"
        assert lfn_prefix("lfn://h/run7/f1") == "lfn://h/run7"
        assert lfn_prefix("lfn://h/run7/sub/f1") == "lfn://h/run7"
        assert lfn_prefix("gsiftp://se00.site/data/f") == "gsiftp://se00.site/data"
        assert lfn_prefix("lfn://exp") == "lfn://exp"
        assert lfn_prefix("lfn://exp/") == "lfn://exp"
        assert lfn_prefix("lfn://") == "lfn://"
        # Not a scheme: "://" without a name before it, or after a slash.
        assert lfn_prefix("://x/y/z") == ":/"
        assert lfn_prefix("dir/a://b/c") == "dir/a:"

    def test_flat_serial_names_collapse(self):
        assert lfn_prefix("lfn-000123") == "lfn-"
        assert lfn_prefix("lfn-000999") == "lfn-"
        assert lfn_prefix("file42") == "file"

    def test_degenerate_names(self):
        assert lfn_prefix("/") == "/"
        assert lfn_prefix("12345") == "12345"  # all digits: keep as-is
        assert lfn_prefix("plain") == "plain"


class TestSpaceSavingSketch:
    def test_exact_under_capacity(self):
        sketch = SpaceSavingSketch(capacity=8)
        for key, n in (("a", 5), ("b", 3), ("c", 1)):
            for _ in range(n):
                sketch.offer(key)
        assert sketch.top() == [("a", 5, 0), ("b", 3, 0), ("c", 1, 0)]
        assert sketch.count("a") == 5
        assert sketch.count("missing") == 0
        assert sketch.offered == 9

    def test_eviction_inherits_min_count_as_error(self):
        sketch = SpaceSavingSketch(capacity=2)
        for _ in range(10):
            sketch.offer("hot")
        sketch.offer("warm")
        sketch.offer("new")  # evicts "warm" (count 1), inherits its count
        assert len(sketch) == 2
        rows = dict((k, (c, e)) for k, c, e in sketch.top())
        assert rows["hot"] == (10, 0)
        assert rows["new"] == (2, 1)  # count 1+1, error = evicted floor

    def test_heavy_hitter_guaranteed_present(self):
        # Any key with true count > N/capacity must survive.
        sketch = SpaceSavingSketch(capacity=4)
        for i in range(60):
            sketch.offer("heavy")  # 60 of 120 offers
            sketch.offer(f"noise-{i}")  # 60 distinct singletons
        assert sketch.count("heavy") >= 60
        top_keys = [k for k, _, _ in sketch.top(1)]
        assert top_keys == ["heavy"]

    def test_counts_are_upper_bounds_within_error(self):
        sketch = SpaceSavingSketch(capacity=4)
        truth: dict[str, int] = {}
        for i in range(200):
            key = f"k{i % 9}"
            truth[key] = truth.get(key, 0) + 1
            sketch.offer(key)
        for key, count, error in sketch.top():
            true = truth.get(key, 0)
            assert count >= true  # never undercounts
            assert count - error <= true  # overshoot bounded by error
            assert error <= sketch.offered / sketch.capacity

    def test_merge_sums_shared_keys_and_trims(self):
        a, b = SpaceSavingSketch(3), SpaceSavingSketch(3)
        for _ in range(5):
            a.offer("x")
        for _ in range(3):
            b.offer("x")
            b.offer("y")
        merged = a.merge(b)
        assert merged.count("x") == 8
        assert merged.count("y") == 3
        assert merged.offered == a.offered + b.offered
        assert len(merged) <= 3

    def test_round_trip(self):
        sketch = SpaceSavingSketch(capacity=2)
        for key in ("a", "a", "b", "c"):
            sketch.offer(key)
        clone = SpaceSavingSketch.from_dict(sketch.to_dict())
        assert clone.top() == sketch.top()
        assert clone.offered == sketch.offered
        assert clone.capacity == sketch.capacity

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)


class TestUsageAccountant:
    def test_account_accumulates_cost_vectors(self):
        acct = UsageAccountant()
        acct.account(
            "cms",
            "add",
            wall_time=0.25,
            queue_wait=0.05,
            rows_examined=7,
            wal_bytes=120,
            lfn="/cms/data/f1",
        )
        acct.account("cms", "add", wall_time=0.75, error=True)
        acct.account("cms", "query", wall_time=0.5, lfn="/cms/data/f2")
        payload = acct.to_dict()
        add = payload["principals"]["cms"]["add"]
        assert add["requests"] == 2
        assert add["errors"] == 1
        assert add["wall_time"] == pytest.approx(1.0)
        assert add["queue_wait"] == pytest.approx(0.05)
        assert add["rows_examined"] == 7
        assert add["wal_bytes"] == 120
        assert payload["principals"]["cms"]["query"]["requests"] == 1
        assert payload["fields"] == list(COST_FIELDS)

    def test_unclassified_ops_land_in_other(self):
        acct = UsageAccountant()
        acct.account("ops", None, wall_time=0.1)
        assert acct.to_dict()["principals"]["ops"]["other"]["requests"] == 1

    def test_record_bytes_uses_net_class(self):
        acct = UsageAccountant()
        acct.record_bytes("cms", bytes_in=100, bytes_out=900)
        net = acct.to_dict()["principals"]["cms"]["net"]
        assert net["bytes_in"] == 100
        assert net["bytes_out"] == 900
        assert net["requests"] == 0

    def test_sketches_track_principals_and_prefixes(self):
        acct = UsageAccountant(top_k=8)
        for _ in range(9):
            acct.account("cms", "add", lfn="/cms/data/f1")
        acct.account("ligo", "add", lfn="/ligo/cal/f1")
        assert acct.top_principals(1)[0][0] == "cms"
        assert acct.top_prefixes(1)[0][0] == "/cms/data"

    def test_principal_cap_folds_overflow_label(self):
        registry = MetricsRegistry()
        acct = UsageAccountant(metrics=registry, max_principals=3)
        for i in range(10):
            acct.account(f"tenant-{i}", "query", lfn=f"/t{i}/d/f")
        payload = acct.to_dict()
        # Exact rows: 3 real principals + the overflow aggregate.
        assert set(payload["principals"]) == {
            "tenant-0",
            "tenant-1",
            "tenant-2",
            OVERFLOW_PRINCIPAL,
        }
        assert payload["principals"][OVERFLOW_PRINCIPAL]["query"][
            "requests"
        ] == 7
        assert payload["overflowed"] == 7
        assert payload["principals_tracked"] == 10
        assert payload["max_principals"] == 3
        # Metric-label cardinality is bounded the same way: the registry
        # never grows one label set per client-supplied principal
        # (mirrors the bounded `<unknown>` rpc.errors label).
        labels = {
            key
            for key in registry.snapshot().counters
            if key.startswith("usage.requests")
        }
        assert len(labels) == 4
        assert any(OVERFLOW_PRINCIPAL in key for key in labels)

    def test_sketch_still_ranks_overflowed_principals(self):
        # The exact table caps, but the sketch's whole job is to keep
        # heavy hitters visible past the cap.
        acct = UsageAccountant(top_k=8, max_principals=2)
        acct.account("a", "query")
        acct.account("b", "query")
        for _ in range(50):
            acct.account("late-but-heavy", "query")
        assert acct.top_principals(1)[0][0] == "late-but-heavy"

    def test_anonymous_is_a_stable_label(self):
        acct = UsageAccountant()
        acct.account(ANONYMOUS_PRINCIPAL, "query")
        acct.account(ANONYMOUS_PRINCIPAL, "query")
        payload = acct.to_dict()
        assert payload["principals"][ANONYMOUS_PRINCIPAL]["query"][
            "requests"
        ] == 2
        assert payload["principals_tracked"] == 1


class TestUsageSnapshot:
    def make(self, principal="cms", requests=3.0):
        acct = UsageAccountant()
        for _ in range(int(requests)):
            acct.account(
                principal, "add", wall_time=0.1, lfn=f"/{principal}/d/f1"
            )
        return acct.snapshot()

    def test_merge_sums_cells_and_sketches(self):
        merged = self.make("cms", 3).merge(self.make("cms", 2))
        totals = dict(zip(COST_FIELDS, merged.cells[("cms", "add")]))
        assert totals["requests"] == 5
        assert totals["wall_time"] == pytest.approx(0.5)
        assert merged.principals.count("cms") == 5

    def test_merge_keeps_distinct_principals(self):
        merged = self.make("cms", 3).merge(self.make("ligo", 2))
        requests = COST_FIELDS.index("requests")
        assert merged.cells[("cms", "add")][requests] == 3
        assert merged.cells[("ligo", "add")][requests] == 2

    def test_dict_round_trip(self):
        snap = self.make("cms", 4)
        clone = UsageSnapshot.from_dict(snap.to_dict())
        assert clone.to_dict() == snap.to_dict()

    def test_merge_usage_dicts_combines_payloads(self):
        a = self.make("cms", 3).to_dict()
        b = self.make("cms", 2).to_dict()
        b["enabled"] = True
        merged = merge_usage_dicts([a, b])
        assert merged["enabled"] is True
        assert merged["principals"]["cms"]["add"]["requests"] == 5
        assert merged["top_principals"][0]["principal"] == "cms"
        assert merged["top_principals"][0]["count"] == 5

    def test_merge_usage_dicts_empty_input(self):
        merged = merge_usage_dicts([])
        assert merged["principals"] == {}
        assert merged["enabled"] is True


class TestReconciliationUnderConcurrency:
    """ROADMAP: "per-principal usage sums to RPC counts" — exactly, with
    ten request threads preempting each other every 10 us."""

    THREADS, CALLS, BURST = 10, 300, 20

    def worker(self, server, tid, sent, failures):
        """300 mixed in-process calls, 20 pipelined over TCP in one batch,
        half of it all under a principal first seen mid-run, past the cap."""
        name = server.config.name
        try:
            client = connect(name, principal=f"tenant-{tid % 3}")
            for i in range(self.CALLS):
                if i == self.CALLS // 2:
                    client.close()
                    client = connect(name, principal=f"late-{tid}")
                    host, port = server.tcp_address
                    tcp = connect_tcp_server(host, port, principal=f"late-{tid}")
                    burst = [
                        tcp.rpc.call_async("lrc_exists", f"/grid/f{n}")
                        for n in range(self.BURST)
                    ]
                    tcp.rpc.drain()
                    assert all(call.result() is True for call in burst)
                    tcp.close()
                    sent[tid] += self.BURST
                if i % 5 == 0:
                    with pytest.raises(MappingNotFoundError):
                        client.get_mappings(f"/ghost/{tid}/{i}")
                elif i % 7 == 0:
                    with pytest.raises(RemoteError, match="NoSuchMethodError"):
                        client.rpc.call(f"lrc_bulk_method_{i}_nobody_has")
                else:
                    assert client.get_mappings(f"/grid/f{i % 20}") == [f"pfn{i % 20}"]
                sent[tid] += 1
            client.close()
        except BaseException as exc:
            failures.append(exc)

    def reconcile(self, server, sent):
        """The four equalities; returns Σ rpc.errors."""
        counters = server.metrics.snapshot().counters

        def total(name, but=None):
            return sum(
                value
                for key, value in counters.items()
                if key.startswith(name + "{") and (but is None or but not in key)
            )

        assert total("usage.requests", but="class=net") == sent
        assert total("rpc.requests") + total("rpc.errors") == sent
        assert total("usage.errors") == total("rpc.errors")
        snapshot = server.usage.snapshot()
        assert snapshot.principals.offered == sent
        assert sum(v[0] for k, v in snapshot.cells.items() if k[1] != "net") == sent
        return total("rpc.errors")

    def test_usage_rpc_and_flight_totals_agree_exactly(self, make_server):
        server = make_server(ServerRole.LRC, tcp=True, usage_max_principals=4)
        setup = connect(server.config.name)
        for n in range(20):
            setup.create(f"/grid/f{n}", f"pfn{n}")
        setup.close()
        requests_before = 20
        events_before = server.flight.stats()["recorded"]

        sent = [0] * self.THREADS
        failures: list = []
        workers = [
            threading.Thread(target=self.worker, args=(server, t, sent, failures))
            for t in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers) and not failures
        assert sum(sent) == self.THREADS * (self.CALLS + self.BURST)

        total = requests_before + sum(sent)
        errors = self.reconcile(server, total)
        per_thread = len(range(0, self.CALLS, 5)) + len(
            [i for i in range(self.CALLS) if i % 7 == 0 and i % 5]
        )
        assert errors == self.THREADS * per_thread
        # Reads only since ``events_before``: two flight events a request.
        stats = server.flight.stats()
        assert stats["recorded"] - events_before == 2 * sum(sent)
        # Ten late principals met a table already holding anonymous and
        # three tenants: all their requests are in the overflow row.
        late = self.THREADS * (self.CALLS // 2 + self.BURST)
        payload = server.usage.to_dict()
        assert payload["overflowed"] == late
        assert sum(
            cell["requests"]
            for op_class, cell in payload["principals"][OVERFLOW_PRINCIPAL].items()
            if op_class != "net"
        ) == late

        # Churn: short-lived connections must not leave their shards behind.
        host, port = server.tcp_address
        for n in range(200):
            with connect_tcp_server(host, port, principal="tenant-0") as client:
                assert client.exists(f"/grid/f{n % 20}")
        active = server.metrics.gauge("net.connections_active", transport="tcp")
        deadline = time.monotonic() + 30.0
        while active.value and time.monotonic() < deadline:
            time.sleep(0.01)
        assert active.value == 0
        self.reconcile(server, total + 200)
        # One shard per request thread still alive (this one, at most) —
        # not one per connection ever served — plus the folded remainder.
        assert len(server.usage._shards) <= 1
