"""Shared fixtures.

Engines default to zero sync latency so tests run fast; timing-sensitive
behaviour is tested explicitly with injected fake clocks/sleepers.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import settings

from repro.core.config import ServerConfig, ServerRole
from repro.core.server import RLSServer
from repro.db.mysql_engine import MySQLEngine
from repro.db.postgres_engine import PostgresEngine


#: ``--hypothesis-profile=ci``: the example count CI's fault-injection job
#: runs tests/core/test_delivery_stateful.py at (tier-1 keeps the default).
settings.register_profile("ci", max_examples=500)


def _rls_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("rls-")}


@pytest.fixture(autouse=True)
def no_leaked_rls_threads():
    """Fail any test that leaves a transport thread (``rls-accept-*``,
    ``rls-conn-*``, ``rls-http-*``) running: whatever started a listener
    must close it.  A short grace period covers handler threads that are
    still noticing their client hung up."""
    before = _rls_threads()
    yield
    deadline = time.monotonic() + 2.0
    while (leaked := _rls_threads() - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not leaked, f"test leaked threads: {sorted(t.name for t in leaked)}"


@pytest.fixture
def mysql():
    """A MySQL-flavoured engine with flush disabled and no sync latency."""
    return MySQLEngine(flush_on_commit=False, sync_latency=0.0)


@pytest.fixture
def postgres():
    """A PostgreSQL-flavoured engine (MVCC storage, fsync off)."""
    return PostgresEngine(fsync=False, sync_latency=0.0)


_SERVER_COUNTER = [0]


@pytest.fixture
def make_server():
    """Factory for RLS servers with unique names and guaranteed cleanup."""
    servers: list[RLSServer] = []

    def factory(role: ServerRole = ServerRole.BOTH, **kwargs) -> RLSServer:
        _SERVER_COUNTER[0] += 1
        defaults = dict(
            name=f"test-server-{_SERVER_COUNTER[0]}",
            role=role,
            sync_latency=0.0,
        )
        defaults.update(kwargs)
        server = RLSServer(ServerConfig(**defaults))
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.stop()


@pytest.fixture
def server(make_server):
    """One LRC+RLI server, started."""
    return make_server(ServerRole.BOTH).start()
