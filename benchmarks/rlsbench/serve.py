"""Child launcher: build and load the servers one workload names.

Run as a script it builds a topology, prints one JSON line
(``{"ports": {name: port}, "setup_s": seconds, "pid": pid}``) and serves
until its standard input reaches end-of-file — which also happens when
the parent dies, so no server outlives its benchmark.  The parent side,
:class:`ServerProcess`, reaps the child on every exit path.

:func:`build` is also called in-process by the per-layer ladder, so the
rungs below the wire run against servers configured exactly like the
ones in the child.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any

import _env

_env.use_repo_sources()

from repro import (  # noqa: E402
    BloomFilter,
    BloomParameters,
    RLSServer,
    ServerConfig,
    ServerRole,
    connect_tcp_server,
)
from repro.cluster.ring import ShardMap  # noqa: E402
from repro.core import membership  # noqa: E402

import inputs as gen  # noqa: E402

HOST = "127.0.0.1"
SHARDS = ("shard0", "shard1")

#: ``ServerConfig`` fields the ladder's ``obs.tax_us`` rung switches off;
#: everywhere else they keep their shipping defaults, so default-on query
#: profiling, flight recording and usage accounting are priced.
OBS_OFF = {"profile_queries": False, "flight_capacity": 0, "usage_accounting": False}


def _config(name: str, role: ServerRole, tcp: bool, obs: bool, **extra: Any) -> ServerConfig:
    # sync_latency=0 and flush off: no modelled disk, so the numbers are
    # the program's own cost.  Every other field is the shipping default.
    fields: dict[str, Any] = dict(
        name=name, role=role, tcp=tcp, tcp_host=HOST, sync_latency=0.0
    )
    if not obs:
        fields.update(OBS_OFF)
    fields.update(extra)
    return ServerConfig(**fields)


def _lrc(name: str, pairs, tcp: bool, obs: bool, **extra: Any) -> RLSServer:
    server = RLSServer(_config(name, ServerRole.LRC, tcp, obs, **extra)).start()
    server.lrc.bulk_load(pairs)
    # bulk_load announces every name to the update manager; with no RLI
    # registered that backlog would be sorted and dropped by the first
    # background tick, inside the measurement.  Drop it here instead.
    server.update_manager.send_incremental_update()
    return server


def _build_lrc(inp: gen.Inputs, tcp: bool, obs: bool) -> dict[str, RLSServer]:
    return {"lrc": _lrc("lrc", inp.pairs("main", gen.LRC_SIZE), tcp, obs)}


def _build_rli_bloom(inp: gen.Inputs, tcp: bool, obs: bool) -> dict[str, RLSServer]:
    server = RLSServer(_config("rli", ServerRole.RLI, tcp, obs)).start()
    params = BloomParameters.for_entries(gen.BLOOM_LRC_SIZE)
    for j in range(gen.BLOOM_LRCS):
        names = inp.lfns(gen.bloom_site(j), gen.BLOOM_LRC_SIZE)
        bloom = BloomFilter.from_names(names, params)
        server.rli.apply_bloom_update(
            gen.bloom_lrc(j), bloom.to_bytes(), params.num_bits,
            params.num_hashes, bloom.approx_entries,
        )
    return {"rli": server}


def _build_softstate(inp: gen.Inputs, tcp: bool, obs: bool) -> dict[str, RLSServer]:
    """Two LRC->RLI pairs: A sends uncompressed name lists, B Bloom filters."""
    servers: dict[str, RLSServer] = {}
    for pair, bloom in (("A", False), ("B", True)):
        rli = RLSServer(_config(f"rli{pair}", ServerRole.RLI, True, obs)).start()
        # The LRC resolves its update target by name through the static
        # membership, which sends the update over TCP loopback.
        membership.DEFAULT.register_tcp(f"rli{pair}", *rli.tcp_address)
        lrc = _lrc(
            f"lrc{pair}", inp.pairs(f"soft{pair}", gen.SOFTSTATE_LRC_SIZE), tcp, obs
        )
        lrc.lrc.add_rli(f"rli{pair}", bloom)
        # First contact: the RLI starts from the LRC's full state, so
        # every measured update is a refresh, not the initial fill.
        lrc.update_manager.send_full_update()
        servers[f"rli{pair}"] = rli
        servers[f"lrc{pair}"] = lrc
    return servers


def _build_cluster(inp: gen.Inputs, tcp: bool, obs: bool) -> dict[str, RLSServer]:
    shard_map = ShardMap(shards=SHARDS)
    pfn_of = dict(inp.pairs("main", gen.LRC_SIZE))
    parts = shard_map.ring().partition(pfn_of)
    return {
        shard: _lrc(
            shard, [(lfn, pfn_of[lfn]) for lfn in parts.get(shard, [])],
            tcp, obs, cluster=shard_map,
        )
        for shard in SHARDS
    }


TOPOLOGIES = {
    "lrc": _build_lrc,
    "rli_bloom": _build_rli_bloom,
    "softstate": _build_softstate,
    "cluster": _build_cluster,
}


def build(topology: str, seed: int, tcp: bool = True, obs: bool = True) -> dict[str, RLSServer]:
    """Start and load the named topology; the caller stops the servers."""
    return TOPOLOGIES[topology](gen.Inputs(seed), tcp, obs)


def stop(servers: dict[str, RLSServer]) -> None:
    for name, server in servers.items():
        server.stop()
        membership.DEFAULT.unregister(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", required=True, choices=sorted(TOPOLOGIES))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    # Ctrl-C reaches the whole process group; the child ends only when
    # its parent closes the pipe, after the parent has stopped using it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    start = time.perf_counter()
    servers = build(args.topology, args.seed)
    try:
        ready = {
            "ports": {name: s.tcp_address[1] for name, s in servers.items()},
            "setup_s": time.perf_counter() - start,
            "pid": os.getpid(),
        }
        print(json.dumps(ready), flush=True)
        sys.stdin.buffer.read()  # serve until the parent closes the pipe
    finally:
        stop(servers)
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _read_line(fd: int, timeout: float) -> bytes:
    """One line from a pipe (empty at end-of-file), waiting at most
    ``timeout`` seconds for it."""
    deadline = time.monotonic() + timeout
    line = bytearray()
    while b"\n" not in line:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise TimeoutError(f"no line within {timeout:.0f} s")
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        line += chunk
    return bytes(line.partition(b"\n")[0])


class ServerProcess:
    """One child running :func:`main`; a context manager that always reaps.

    ``setup_s`` is what a user waits: from spawning the interpreter to the
    first answered ping on every server.  A child that is not ready within
    ``timeout`` seconds is killed.
    """

    def __init__(self, topology: str, seed: int, timeout: float = 120.0) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.fspath(_env.BENCH_DIR / "serve.py"),
             "--topology", topology, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            # One hash seed for every child: string hashes decide dict
            # layout, and a different layout each run is run-to-run noise.
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        try:
            line = _read_line(self.proc.stdout.fileno(), timeout)
            if not line:
                raise RuntimeError(
                    f"server child for {topology!r} exited with "
                    f"{self.proc.wait(timeout)} before it was ready"
                )
            ready = json.loads(line)
            self.ports: dict[str, int] = ready["ports"]
            for port in self.ports.values():
                with connect_tcp_server(HOST, port) as client:
                    client.ping()
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.proc.kill()  # it may never reach its read of stdin
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU time the child has used so far, all threads.

        Read from the child's process CPU clock (what
        ``clock_getcpuclockid(3)`` names): the ``utime + stime`` of
        ``/proc/<pid>/stat`` in nanoseconds instead of 10 ms ticks, which
        half-second segments need.
        """
        return time.clock_gettime((~self.pid << 3) | 2)

    def rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE / 1e6

    def close(self, timeout: float = 20.0) -> None:
        """End the child and wait for it: EOF first, then kill."""
        proc = self.proc
        try:
            if proc.stdin and not proc.stdin.closed:
                proc.stdin.close()
            proc.wait(timeout)
        except (subprocess.TimeoutExpired, OSError):
            proc.kill()
            proc.wait()
        finally:
            if proc.stdout:
                proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(main())
