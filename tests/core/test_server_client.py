"""RLSServer + RLSClient tests over the RPC layer."""

import pytest

from repro.core.client import connect, connect_tcp_server
from repro.core.config import ServerConfig, ServerRole
from repro.core.errors import (
    MappingExistsError,
    MappingNotFoundError,
    NotConfiguredError,
    WildcardNotSupportedError,
)
from repro.core.server import RLSServer


@pytest.fixture
def client(server):
    c = connect(server.config.name)
    yield c
    c.close()


class TestMappingOps:
    def test_create_query(self, client):
        client.create("lfn1", "pfn1")
        assert client.get_mappings("lfn1") == ["pfn1"]

    def test_typed_errors_cross_rpc(self, client):
        client.create("lfn1", "pfn1")
        with pytest.raises(MappingExistsError):
            client.create("lfn1", "pfn2")
        with pytest.raises(MappingNotFoundError):
            client.get_mappings("ghost")

    def test_add_delete(self, client):
        client.create("lfn1", "pfn1")
        client.add("lfn1", "pfn2")
        client.delete("lfn1", "pfn1")
        assert client.get_mappings("lfn1") == ["pfn2"]

    def test_get_lfns(self, client):
        client.create("a", "shared")
        client.create("b", "shared")
        assert sorted(client.get_lfns("shared")) == ["a", "b"]

    def test_wildcard(self, client):
        client.create("run/f1", "p1")
        client.create("run/f2", "p2")
        assert len(client.query_wildcard("run/*")) == 2

    def test_bulk_roundtrip(self, client):
        failures = client.bulk_create([("a", "p1"), ("b", "p2")])
        assert failures == []
        assert client.bulk_query(["a", "b", "zz"]) == {"a": ["p1"], "b": ["p2"]}

    def test_bulk_failures_returned(self, client):
        client.create("dup", "p")
        failures = client.bulk_create([("dup", "p2")])
        assert len(failures) == 1 and failures[0][0] == "dup"

    def test_exists_and_counts(self, client):
        client.create("a", "p")
        assert client.exists("a") and not client.exists("b")
        assert client.lfn_count() == 1
        assert client.mapping_count() == 1


class TestAttributeOps:
    def test_attribute_lifecycle(self, client):
        client.create("l", "p")
        client.define_attribute("size", "pfn", "int")
        client.add_attribute("p", "size", "pfn", 7)
        assert client.get_attributes("p", "pfn") == {"size": 7}
        client.modify_attribute("p", "size", "pfn", 9)
        assert client.query_by_attribute("size", "pfn", 8, ">") == [("p", 9)]
        client.remove_attribute("p", "size", "pfn")
        assert client.get_attributes("p", "pfn") == {}
        client.undefine_attribute("size", "pfn")

    def test_bulk_add_attribute(self, client):
        client.define_attribute("size", "pfn", "int")
        client.bulk_create([("l1", "p1"), ("l2", "p2")])
        failures = client.bulk_add_attribute(
            [("p1", "size", 1), ("p2", "size", 2)], "pfn"
        )
        assert failures == []


class TestRLIOps:
    def test_self_update_loop(self, client):
        """A BOTH server: its LRC updates its own RLI."""
        client.create("lfn1", "pfn1")
        client.add_rli(client.stats()["name"], bloom=False)
        client.trigger_full_update()
        assert client.rli_query("lfn1") == [client.stats()["name"]]

    def test_rli_bulk_query(self, client):
        name = client.stats()["name"]
        client.add_rli(name)
        client.bulk_create([("a", "p1"), ("b", "p2")])
        client.trigger_full_update()
        assert set(client.rli_bulk_query(["a", "b", "zz"])) == {"a", "b"}

    def test_rli_wildcard_uncompressed(self, client):
        name = client.stats()["name"]
        client.add_rli(name)
        client.create("run/x", "p")
        client.trigger_full_update()
        assert client.rli_query_wildcard("run/*") == [("run/x", name)]

    def test_rli_wildcard_rejected_with_bloom(self, client):
        name = client.stats()["name"]
        client.add_rli(name, bloom=True)
        client.create("x", "p")
        client.trigger_full_update()
        with pytest.raises(WildcardNotSupportedError):
            client.rli_query_wildcard("x*")

    def test_incremental_trigger(self, client):
        name = client.stats()["name"]
        client.add_rli(name)
        client.create("inc1", "p")
        assert client.trigger_incremental_update() == 1
        assert client.rli_query("inc1") == [name]

    def test_rli_lrc_list(self, client):
        name = client.stats()["name"]
        client.add_rli(name)
        client.create("x", "p")
        client.trigger_full_update()
        assert client.rli_lrc_list() == [name]

    def test_list_rlis(self, client):
        client.add_rli("some-rli", bloom=True, patterns=["^a"])
        entries = client.list_rlis()
        assert entries == [
            {"name": "some-rli", "bloom": True, "patterns": ["^a"]}
        ]
        client.remove_rli("some-rli")
        assert client.list_rlis() == []


class TestRoles:
    def test_lrc_only_rejects_rli_ops(self, make_server):
        server = make_server(ServerRole.LRC)
        client = connect(server.config.name)
        with pytest.raises(NotConfiguredError):
            client.rli_query("x")

    def test_rli_only_rejects_lrc_ops(self, make_server):
        server = make_server(ServerRole.RLI)
        client = connect(server.config.name)
        with pytest.raises(NotConfiguredError):
            client.create("x", "p")
        with pytest.raises(NotConfiguredError):
            client.trigger_full_update()

    def test_stats_reflect_roles(self, make_server):
        server = make_server(ServerRole.RLI)
        client = connect(server.config.name)
        stats = client.stats()
        assert stats["roles"] == {"lrc": False, "rli": True}
        assert "lrc" not in stats


class TestAdmin:
    def test_ping(self, client):
        assert client.ping() == "pong"

    def test_expire_once(self, client):
        assert client.expire_once() == 0

    def test_stats_counters(self, client):
        client.create("a", "p")
        stats = client.stats()
        assert stats["requests_served"] >= 1
        assert stats["lrc"]["lfns"] == 1

    def test_stats_totals_are_exact_under_concurrent_clients(self, server):
        # The totals are sums of the (locked) rpc.requests / rpc.errors
        # counters; an unsynchronised tally loses updates here.
        import sys
        import threading

        threads, calls = 8, 150
        failures: list = []

        def worker(tid: int) -> None:
            client = connect(server.config.name)
            try:
                for i in range(calls):
                    if i % 3 == 0:
                        with pytest.raises(MappingNotFoundError):
                            client.get_mappings(f"ghost-{tid}-{i}")
                    else:
                        client.exists(f"name-{tid}-{i}")
            except BaseException as exc:
                failures.append(exc)
            finally:
                client.close()

        workers = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        before = connect(server.config.name).stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers) and not failures
        after = connect(server.config.name).stats()
        errors = threads * len(range(0, calls, 3))
        assert after["errors_returned"] - before["errors_returned"] == errors
        # + 1: the admin_stats call that produced ``before`` itself.
        served = threads * calls - errors + 1
        assert after["requests_served"] - before["requests_served"] == served


class TestTCPServer:
    def test_full_stack_over_tcp(self):
        server = RLSServer(
            ServerConfig(
                name="tcp-test-server",
                role=ServerRole.BOTH,
                tcp=True,
                sync_latency=0.0,
            )
        ).start()
        try:
            host, port = server.tcp_address
            client = connect_tcp_server(host, port)
            client.create("tcp-lfn", "tcp-pfn")
            assert client.get_mappings("tcp-lfn") == ["tcp-pfn"]
            client.close()
        finally:
            server.stop()


class TestLifecycle:
    def test_context_manager(self):
        with RLSServer(
            ServerConfig(name="ctx-server", role=ServerRole.LRC, sync_latency=0.0)
        ) as server:
            client = connect("ctx-server")
            client.create("x", "p")
            client.close()
        # After stop, the local endpoint is gone.
        from repro.net.errors import TransportClosedError

        with pytest.raises(TransportClosedError):
            connect("ctx-server")

    def test_double_start_is_idempotent(self, make_server):
        server = make_server(ServerRole.BOTH)
        server.start()
        server.start()
        server.stop()
