"""A Bloom-mode RLI answers from memory (§3.4): the relational switch and
the lock-free filter snapshot.

The statement counts are read from the engine's own ``db.statements``
counter, with ``test_lrc_statement_budget.py``'s reader.
"""

import sys
import threading
import time

import pytest

from repro.core.errors import MappingNotFoundError, WildcardNotSupportedError
from repro.core.rli import ReplicaLocationIndex
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.obs.metrics import MetricsRegistry
from tests.core.test_lrc_statement_budget import statements
from tests.core.test_rli import bloom_payload


def open_rli(engine, **kwargs) -> ReplicaLocationIndex:
    # The index keeps its gauges out of the engine's registry: rli.mappings
    # is itself SQL and would count.
    rli = ReplicaLocationIndex(Connection(engine, "memory-path"), **kwargs)
    rli.init_schema()
    return rli


@pytest.fixture
def engine():
    engine = MySQLEngine(
        flush_on_commit=False, sync_latency=0.0, metrics=MetricsRegistry()
    )
    engine.profiler.configure(enabled=True)  # db.statements counts when profiling
    return engine


def missing(rli, name):
    with pytest.raises(MappingNotFoundError):
        rli.query(name)


class TestRelationalSwitch:
    def test_bloom_only_rli_issues_no_sql_per_query(self, engine):
        rli = open_rli(engine)
        rli.apply_bloom_update("lrcA", *bloom_payload(["a", "b"]))
        rli.apply_bloom_update("lrcB", *bloom_payload(["b"]))
        assert statements(rli, lambda: rli.query("a")) == 0
        assert statements(rli, lambda: missing(rli, "ghost")) == 0
        assert statements(rli, lambda: rli.bulk_query(["a", "b", "ghost"])) == 0
        assert rli.bulk_query(["a", "b", "ghost"]) == {
            "a": ["lrcA"], "b": ["lrcA", "lrcB"],
        }

    @pytest.mark.parametrize("ingest", ["full", "incremental"])
    def test_any_relational_ingest_turns_the_select_on(self, engine, ingest):
        rli = open_rli(engine)
        rli.apply_bloom_update("lrcA", *bloom_payload(["a"]))
        assert statements(rli, lambda: rli.query("a")) == 0
        if ingest == "full":
            rli.apply_full_update("lrc-db", ["a", "only-db"])
        else:
            rli.apply_incremental_update("lrc-db", ["a", "only-db"], [])
        assert statements(rli, lambda: rli.query("only-db")) == 1
        assert rli.query("only-db") == ["lrc-db"]
        assert rli.query("a") == ["lrc-db", "lrcA"]
        assert statements(rli, lambda: missing(rli, "ghost")) == 1

    def test_opening_over_existing_relational_state_starts_switched_on(self, engine):
        open_rli(engine).apply_full_update("lrc-db", ["kept"])
        reopened = open_rli(engine)
        assert statements(reopened, lambda: reopened.query("kept")) == 1
        assert reopened.query("kept") == ["lrc-db"]

    def test_before_init_schema_the_switch_is_conservatively_on(self, engine):
        open_rli(engine).apply_full_update("lrc-db", ["kept"])
        bare = ReplicaLocationIndex(Connection(engine, "no-init"))
        assert bare.query("kept") == ["lrc-db"]

    def test_expiry_never_turns_a_live_source_off(self, engine):
        now = [1000.0]
        rli = open_rli(engine, timeout=60.0, clock=lambda: now[0])
        rli.apply_full_update("lrc-old", ["old"])
        now[0] += 50
        rli.apply_full_update("lrc-live", ["live"])
        now[0] += 20  # lrc-old's mapping is past the timeout, lrc-live's is not
        assert rli.expire_once() == 1
        assert rli.query("live") == ["lrc-live"]
        missing(rli, "old")
        now[0] += 100  # everything expired; a later update must still be found
        rli.expire_once()
        rli.apply_incremental_update("lrc-live", ["again"], [])
        assert rli.query("again") == ["lrc-live"]


class TestSharedLookup:
    def test_bulk_query_omits_absent_names_in_both_stores(self, engine):
        rli = open_rli(engine)
        rli.apply_full_update("lrc-db", ["both", "db-only"])
        rli.apply_bloom_update("lrc-bloom", *bloom_payload(["both", "bloom-only"]))
        assert rli.bulk_query(["both", "db-only", "bloom-only", "ghost"]) == {
            "both": ["lrc-db", "lrc-bloom"],
            "db-only": ["lrc-db"],
            "bloom-only": ["lrc-bloom"],
        }
        assert rli.bulk_query([]) == {}

    def test_wildcard_follows_the_published_snapshot(self, engine):
        now = [1000.0]
        rli = open_rli(engine, timeout=60.0, clock=lambda: now[0])
        rli.apply_full_update("lrc-db", ["run1/a"])
        rli.apply_bloom_update("lrc-bloom", *bloom_payload(["x"]))
        with pytest.raises(WildcardNotSupportedError):
            rli.query_wildcard("run1/*")
        now[0] += 30
        rli.apply_full_update("lrc-db", ["run1/a"])
        now[0] += 40  # the filter expires, the refreshed mapping does not
        assert rli.expire_once() == 1
        assert rli.bloom_filter_count() == 0
        assert rli.query_wildcard("run1/*") == [("run1/a", "lrc-db")]

    def test_readers_keep_the_snapshot_they_took(self, engine):
        rli = open_rli(engine)
        rli.apply_bloom_update("lrcA", *bloom_payload(["a"]))
        taken = rli._bloom.filters
        rli.apply_bloom_update("lrcB", *bloom_payload(["b"]))
        rli.apply_bloom_update("lrcA", *bloom_payload(["a2"]))
        assert list(taken) == ["lrcA"] and taken["lrcA"].updates_received == 1
        assert rli.bloom_stats()["lrcA"]["updates_received"] == 2
        assert rli.lrc_list() == ["lrcA", "lrcB"]


class TestConcurrentReplacement:
    def test_queries_race_replacement_and_expiry(self, engine):
        """Readers run while a writer replaces and expires filters.

        ``stable`` is in every generation of every long-lived filter, so a
        reader must always see it in all of them — a torn table (a name
        list and a filter list of different generations, a half-built
        snapshot) or a missed name breaks that.  ``flicker`` filters come
        and go through expiry; they may or may not be reported, but never
        anything else.
        """
        now = [1000.0]
        rli = open_rli(engine, timeout=60.0, clock=lambda: now[0])
        keepers = [f"keep{i}" for i in range(4)]
        for lrc in keepers:
            rli.apply_bloom_update(lrc, *bloom_payload(["stable", "gen0"]))
        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    found = rli.query("stable")
                    bulk = rli.bulk_query(["stable", "nobody-has-this"])
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(f"raised {exc!r}")
                    return
                for answer in (found, bulk.get("stable", [])):
                    if [n for n in answer if n in keepers] != keepers:
                        failures.append(f"missed a keeper: {answer}")
                    if any(n not in keepers and n != "flicker" for n in answer):
                        failures.append(f"unknown source: {answer}")
                if "nobody-has-this" in bulk:
                    failures.append("false hit on an absent name")

        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            deadline = time.monotonic() + 1.0
            generation = 0
            while time.monotonic() < deadline and not failures:
                generation += 1
                rli.apply_bloom_update("flicker", *bloom_payload(["stable"]))
                now[0] += 45
                for lrc in keepers:  # refreshed before the timeout: never expire
                    rli.apply_bloom_update(
                        lrc, *bloom_payload(["stable", f"gen{generation}"])
                    )
                now[0] += 45  # flicker is now 90 s old, the keepers 45 s
                assert rli.expire_once() == 1
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not failures, failures[:3]
        assert generation > 3
        assert rli.query(f"gen{generation}") == keepers

    def test_server_stop_under_bloom_queries_leaks_no_thread(self, make_server):
        """Over TCP, with a client still querying when the server stops;
        the autouse fixture fails the test if an ``rls-*`` thread survives."""
        from repro.core.client import connect_tcp_server
        from repro.core.config import ServerRole

        server = make_server(ServerRole.RLI, tcp=True).start()
        server.rli.apply_bloom_update("lrcA", *bloom_payload(["a"]))
        client = connect_tcp_server(*server.tcp_address)
        assert client.rli_query("a") == ["lrcA"]
        with pytest.raises(MappingNotFoundError):
            client.rli_query("ghost")
        assert client.rli_bulk_query(["a", "ghost"]) == {"a": ["lrcA"]}
        assert server.flight.last_dump["reason"] == "rli_query: MappingNotFoundError"
        stop = threading.Event()
        answered = []

        def hammer() -> None:
            try:
                while not stop.is_set():
                    answered.append(client.rli_query("a"))
            except Exception:  # noqa: BLE001 - the server went away, as intended
                pass

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            while len(answered) < 50:
                time.sleep(0.001)
            server.stop()
        finally:
            stop.set()
            thread.join(timeout=5.0)
            client.close()
        assert not thread.is_alive()
        assert all(answer == ["lrcA"] for answer in answered)
