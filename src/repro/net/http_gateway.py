"""OGSA-style web-service gateway (paper §7 direction).

"Through the OGSA Data Replication Services Working Group ... we are
working to standardize a web service interface for replica location
services.  A version of RLS based on this interface is planned for Globus
Toolkit Version 4."  This module is that interface for this
implementation: a small HTTP/JSON front end that proxies onto the binary
RPC protocol, so non-RLS clients (curl, portals) can use the service.

Routes (all request/response bodies are JSON):

====================  ======  =====================================
path                  method  action
====================  ======  =====================================
/mappings/<lfn>       GET     LRC query (replica list for one LFN)
/mappings             POST    {"lfn":..,"pfn":..,"mode":"create|add"}
/mappings             DELETE  {"lfn":..,"pfn":..}
/lfns/<pfn>           GET     reverse query
/index/<lfn>          GET     RLI query (LRC names)
/bulk/query           POST    {"lfns":[...]} -> {lfn: [pfn,...]}
/admin/stats          GET     server statistics
/admin/slo            GET     SLIs, burn rates, budget, alerts
/admin/usage          GET     per-principal usage + heavy hitters
/admin/shard_map      GET     cluster shard map (when clustered)
/admin/traces         GET     tail-retained spans (?limit=N)
/admin/trace/<id>     GET     cluster-stitched trace + critical path
/admin/queries        GET     slow/error statement log (?limit=N)
/admin/profile        GET     sampling-profiler folded stacks
/admin/threads        GET     thread dump + stuck-thread detections
/admin/flight         GET     flight-recorder events (?limit=N)
/admin/update         POST    force a full soft-state update
/metrics              GET     Prometheus-style text metrics dump
====================  ======  =====================================

``/metrics`` responds with ``text/plain`` (Prometheus exposition
format); every other route speaks JSON.  The ``/admin/*`` routes and
``/metrics`` are not written here: they are the rows of
:data:`repro.core.admin.SURFACES` that declare a route, looked up per
request, with ``?name=value`` converted by the row's parameter types.

Errors map to HTTP statuses: unknown names → 404, conflicts → 409,
validation (a malformed body or query value included) → 400,
authorization → 403, anything else → 500.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, unquote

from repro.core import admin
from repro.core.client import RLSClient, connect
from repro.core.errors import (
    InvalidNameError,
    MappingExistsError,
    MappingNotFoundError,
)
from repro.net.errors import AuthorizationError, RemoteError


class HTTPGateway:
    """HTTP/JSON bridge onto one RLS server endpoint."""

    def __init__(
        self,
        rls_endpoint: str,
        host: str = "127.0.0.1",
        port: int = 0,
        credential: bytes | None = None,
    ) -> None:
        self.rls_endpoint = rls_endpoint
        self.credential = credential
        gateway = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):  # silence default stderr logging
                pass

            def _client(self) -> RLSClient:
                return connect(gateway.rls_endpoint, gateway.credential)

            def _send(self, status: int, payload, text: bool = False) -> None:
                body = (payload if text else json.dumps(payload)).encode("utf-8")
                self.send_response(status)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4" if text else "application/json",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _body(self):
                length = int(self.headers.get("Content-Length", "0"))
                if length == 0:
                    return {}
                return json.loads(self.rfile.read(length).decode("utf-8"))

            def _handle(self, fn, text: bool = False) -> None:
                client = None
                try:
                    client = self._client()
                    status, payload = fn(client)
                    self._send(status, payload, text)
                except MappingNotFoundError as exc:
                    self._send(404, {"error": str(exc)})
                except MappingExistsError as exc:
                    self._send(409, {"error": str(exc)})
                except InvalidNameError as exc:
                    self._send(400, {"error": str(exc)})
                except (AuthorizationError,) as exc:
                    self._send(403, {"error": str(exc)})
                except RemoteError as exc:
                    if exc.error_type == "AuthorizationError":
                        self._send(403, {"error": exc.remote_message})
                    else:
                        self._send(500, {"error": str(exc)})
                except (json.JSONDecodeError, KeyError) as exc:
                    self._send(400, {"error": f"bad request: {exc}"})
                except Exception as exc:  # pragma: no cover - safety net
                    self._send(500, {"error": str(exc)})
                finally:
                    if client is not None:
                        client.close()

            def _admin(self, verb: str, path: str) -> bool:
                """Serve ``path`` from the admin table; ``False`` when the
                table has no such route."""
                bare, _, query = path.partition("?")
                found = admin.find_route(verb, bare)
                if found is None:
                    return False
                row, bound = found
                try:
                    args = row.arguments({**dict(parse_qsl(query)), **bound})
                except ValueError as exc:
                    self._send(400, {"error": f"bad request: {exc}"})
                    return True
                self._handle(
                    lambda c: row.route.reply(c.rpc.call(row.method, *args)),
                    text=row.route.text,
                )
                return True

            # -- GET ------------------------------------------------------

            def do_GET(self) -> None:
                path = unquote(self.path)
                if path.startswith("/mappings/"):
                    lfn = path[len("/mappings/"):]
                    self._handle(
                        lambda c: (200, {"lfn": lfn, "pfns": c.get_mappings(lfn)})
                    )
                elif path.startswith("/lfns/"):
                    pfn = path[len("/lfns/"):]
                    self._handle(
                        lambda c: (200, {"pfn": pfn, "lfns": c.get_lfns(pfn)})
                    )
                elif path.startswith("/index/"):
                    lfn = path[len("/index/"):]
                    self._handle(
                        lambda c: (200, {"lfn": lfn, "lrcs": c.rli_query(lfn)})
                    )
                elif not self._admin("GET", path):
                    self._send(404, {"error": f"no such route: {path}"})

            # -- POST -----------------------------------------------------

            def do_POST(self) -> None:
                path = unquote(self.path)
                if path == "/mappings":
                    body = self._body()

                    def create(c: RLSClient):
                        lfn, pfn = body["lfn"], body["pfn"]
                        if body.get("mode", "create") == "add":
                            c.add(lfn, pfn)
                        else:
                            c.create(lfn, pfn)
                        return 201, {"lfn": lfn, "pfn": pfn}

                    self._handle(create)
                elif path == "/bulk/query":
                    body = self._body()
                    self._handle(
                        lambda c: (200, c.bulk_query(list(body["lfns"])))
                    )
                elif not self._admin("POST", path):
                    self._send(404, {"error": f"no such route: {path}"})

            # -- DELETE ---------------------------------------------------

            def do_DELETE(self) -> None:
                path = unquote(self.path)
                if path == "/mappings":
                    body = self._body()

                    def delete(c: RLSClient):
                        c.delete(body["lfn"], body["pfn"])
                        return 200, {"deleted": [body["lfn"], body["pfn"]]}

                    self._handle(delete)
                else:
                    self._send(404, {"error": "no such route"})

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"rls-http-{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "HTTPGateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
