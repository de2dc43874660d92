"""HTTP/JSON gateway tests (urllib against a live gateway)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import ServerRole
from repro.net.http_gateway import HTTPGateway


@pytest.fixture
def gateway(make_server):
    server = make_server(ServerRole.BOTH)
    gw = HTTPGateway(server.config.name)
    yield gw, server
    gw.close()


def http(method: str, url: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestMappings:
    def test_create_and_get(self, gateway):
        gw, _ = gateway
        status, body = http(
            "POST", f"{gw.url}/mappings", {"lfn": "web-lfn", "pfn": "web-pfn"}
        )
        assert status == 201
        status, body = http("GET", f"{gw.url}/mappings/web-lfn")
        assert status == 200 and body["pfns"] == ["web-pfn"]

    def test_add_mode(self, gateway):
        gw, _ = gateway
        http("POST", f"{gw.url}/mappings", {"lfn": "l", "pfn": "p1"})
        status, _ = http(
            "POST", f"{gw.url}/mappings", {"lfn": "l", "pfn": "p2", "mode": "add"}
        )
        assert status == 201
        _, body = http("GET", f"{gw.url}/mappings/l")
        assert sorted(body["pfns"]) == ["p1", "p2"]

    def test_reverse_query(self, gateway):
        gw, _ = gateway
        http("POST", f"{gw.url}/mappings", {"lfn": "a", "pfn": "shared"})
        http("POST", f"{gw.url}/mappings", {"lfn": "b", "pfn": "shared"})
        status, body = http("GET", f"{gw.url}/lfns/shared")
        assert status == 200 and sorted(body["lfns"]) == ["a", "b"]

    def test_delete(self, gateway):
        gw, _ = gateway
        http("POST", f"{gw.url}/mappings", {"lfn": "gone", "pfn": "p"})
        status, _ = http(
            "DELETE", f"{gw.url}/mappings", {"lfn": "gone", "pfn": "p"}
        )
        assert status == 200
        status, _ = http("GET", f"{gw.url}/mappings/gone")
        assert status == 404

    def test_missing_is_404(self, gateway):
        gw, _ = gateway
        status, body = http("GET", f"{gw.url}/mappings/never")
        assert status == 404 and "error" in body

    def test_duplicate_is_409(self, gateway):
        gw, _ = gateway
        http("POST", f"{gw.url}/mappings", {"lfn": "dup", "pfn": "p"})
        status, _ = http("POST", f"{gw.url}/mappings", {"lfn": "dup", "pfn": "q"})
        assert status == 409

    def test_bad_name_is_400(self, gateway):
        gw, _ = gateway
        status, _ = http("POST", f"{gw.url}/mappings", {"lfn": "", "pfn": "p"})
        assert status == 400

    def test_missing_field_is_400(self, gateway):
        gw, _ = gateway
        status, _ = http("POST", f"{gw.url}/mappings", {"lfn": "only"})
        assert status == 400

    def test_url_encoded_names(self, gateway):
        gw, _ = gateway
        lfn = "lfn://exp/file 1"
        http("POST", f"{gw.url}/mappings", {"lfn": lfn, "pfn": "p"})
        from urllib.parse import quote

        status, body = http("GET", f"{gw.url}/mappings/{quote(lfn, safe='')}")
        assert status == 200 and body["pfns"] == ["p"]


class TestIndexAndBulk:
    def test_rli_query_via_http(self, gateway):
        gw, server = gateway
        http("POST", f"{gw.url}/mappings", {"lfn": "idx-lfn", "pfn": "p"})
        server.lrc.add_rli(server.config.name)
        status, body = http("POST", f"{gw.url}/admin/update")
        assert status == 200 and body["duration"] >= 0
        status, body = http("GET", f"{gw.url}/index/idx-lfn")
        assert status == 200 and body["lrcs"] == [server.config.name]

    def test_bulk_query(self, gateway):
        gw, _ = gateway
        for i in range(3):
            http("POST", f"{gw.url}/mappings", {"lfn": f"bq{i}", "pfn": f"p{i}"})
        status, body = http(
            "POST", f"{gw.url}/bulk/query", {"lfns": ["bq0", "bq2", "nah"]}
        )
        assert status == 200
        assert body == {"bq0": ["p0"], "bq2": ["p2"]}

    def test_stats(self, gateway):
        gw, _ = gateway
        status, body = http("GET", f"{gw.url}/admin/stats")
        assert status == 200 and body["roles"] == {"lrc": True, "rli": True}

    def test_unknown_route_404(self, gateway):
        gw, _ = gateway
        status, _ = http("GET", f"{gw.url}/nope")
        assert status == 404
        status, _ = http("POST", f"{gw.url}/nope")
        assert status == 404


class TestAdminRoutes:
    def test_usage_shape_after_traffic(self, gateway):
        gw, _ = gateway
        http("POST", f"{gw.url}/mappings", {"lfn": "/cms/data/f1", "pfn": "p"})
        http("GET", f"{gw.url}/mappings//cms/data/f1")
        status, body = http("GET", f"{gw.url}/admin/usage")
        assert status == 200
        assert body["enabled"] is True
        assert set(body["fields"]) >= {"requests", "wall_time", "wal_bytes"}
        # The gateway's own client connections carry no credential and
        # declare no principal, so everything accounts as anonymous.
        totals = body["principals"]["anonymous"]
        assert sum(c["requests"] for c in totals.values()) >= 2
        assert body["top_principals"][0]["principal"] == "anonymous"
        assert {"capacity", "offered"} <= set(body["sketch"])
        assert body["principals_tracked"] >= 1

    def test_usage_disabled_degrades(self, make_server):
        from repro.net.http_gateway import HTTPGateway

        server = make_server(ServerRole.BOTH, usage_accounting=False)
        with HTTPGateway(server.config.name) as gw:
            status, body = http("GET", f"{gw.url}/admin/usage")
        assert status == 200
        assert body["enabled"] is False and body["top_principals"] == []

    def test_slo_shape(self, gateway):
        gw, _ = gateway
        status, body = http("GET", f"{gw.url}/admin/slo")
        assert status == 200
        assert body["enabled"] is True
        assert set(body["classes"]) == {"add", "query", "bulk", "wildcard"}
        assert isinstance(body["alerts"], list)

    def test_queries_shape_and_limit(self, gateway):
        gw, server = gateway
        # Everything retains with a zero threshold: drive one statement.
        server.engine.profiler.log.slow_threshold = 0.0
        http("POST", f"{gw.url}/mappings", {"lfn": "slow", "pfn": "p"})
        status, body = http("GET", f"{gw.url}/admin/queries?limit=1")
        assert status == 200
        assert body["enabled"] is True
        assert len(body["queries"]) == 1
        assert {"sql", "statement_class", "duration"} <= set(
            body["queries"][0]
        )
        assert body["stats"]["retained"] >= 1

    def test_shard_map_outside_a_cluster(self, gateway):
        gw, server = gateway
        status, body = http("GET", f"{gw.url}/admin/shard_map")
        assert status == 200
        assert body["self"] == server.config.name
        assert body["shard_map"] is None

    def test_unknown_trace_is_404_when_tracing(self, gateway):
        from repro.obs.tracing import SpanSink, Tracer, install_tracer

        gw, _ = gateway
        install_tracer(Tracer(sink=SpanSink()))
        try:
            status, body = http("GET", f"{gw.url}/admin/trace/deadbeef")
        finally:
            install_tracer(None)
        assert status == 404
        assert body["spans"] == []

    def test_unknown_trace_without_tracer_degrades(self, gateway):
        gw, _ = gateway
        status, body = http("GET", f"{gw.url}/admin/trace/deadbeef")
        assert status == 200
        assert body["enabled"] is False

    def test_unknown_admin_route_404(self, gateway):
        gw, _ = gateway
        status, body = http("GET", f"{gw.url}/admin/nope")
        assert status == 404 and "error" in body


class TestTraces:
    def test_disabled_without_tracer(self, gateway):
        gw, _ = gateway
        status, body = http("GET", f"{gw.url}/admin/traces")
        assert status == 200
        assert body["enabled"] is False and body["spans"] == []

    def test_tail_retained_spans_with_limit(self, gateway):
        from repro.obs.tracing import SpanSink, Tracer, install_tracer

        gw, _ = gateway
        install_tracer(Tracer(sink=SpanSink(latency_threshold=0.0)))
        try:
            for i in range(5):
                http("POST", f"{gw.url}/mappings", {"lfn": f"tr{i}", "pfn": "p"})
            status, body = http("GET", f"{gw.url}/admin/traces?limit=3")
        finally:
            install_tracer(None)
        assert status == 200
        assert body["enabled"] is True
        assert 0 < len(body["spans"]) <= 3
        assert body["stats"]["retained"] >= 5
        assert {"name", "trace_id", "duration"} <= set(body["spans"][0])


class TestQueryStringAndMetricsErrors:
    """The admin routes share one query-string parser and one error
    mapping (they are rows of ``repro.core.admin.SURFACES``)."""

    @pytest.mark.parametrize("route", ["traces", "queries", "flight"])
    def test_malformed_limit_is_400(self, gateway, route):
        gw, _ = gateway
        status, body = http("GET", f"{gw.url}/admin/{route}?limit=abc")
        assert status == 400
        assert body["error"].startswith("bad request: limit")

    def test_metrics_without_the_privilege_is_403(self):
        from repro.core.config import ServerConfig
        from repro.core.server import RLSServer
        from repro.security.acl import AccessControlList
        from repro.security.authorizer import SecurityPolicy
        from repro.security.credentials import CertificateAuthority
        from repro.security.gridmap import Gridmap

        reader = "/DC=org/DC=rls/CN=reader"
        ca = CertificateAuthority()
        acl = AccessControlList()
        acl.add(reader, ["lrc_read"])
        policy = SecurityPolicy(
            enabled=True, ca=ca, gridmap=Gridmap({reader: "reader"}), acl=acl
        )
        config = ServerConfig(name="gw-secure", security=policy, sync_latency=0.0)
        with RLSServer(config), HTTPGateway(
            "gw-secure", credential=ca.issue(reader).to_bytes()
        ) as gw:
            status, body = http("GET", f"{gw.url}/metrics")
            assert status == 403 and "privilege" in body["error"]
            status, _ = http("GET", f"{gw.url}/admin/shard_map")  # lrc_read
            assert status == 200
