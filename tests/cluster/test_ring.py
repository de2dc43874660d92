"""Consistent-hash ring: determinism, spread, and bounded key movement."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from repro.cluster.ring import DEFAULT_VNODES, HashRing, ShardMap


def lfns(n: int, prefix: str = "lfn") -> list[str]:
    return [f"{prefix}-{i:05d}" for i in range(n)]


class TestPlacement:
    def test_owner_is_a_member(self):
        ring = HashRing(["a", "b", "c"])
        for lfn in lfns(200):
            assert ring.owner(lfn) in ("a", "b", "c")

    def test_owner_stable_across_calls(self):
        ring = HashRing(["a", "b", "c"])
        names = lfns(500)
        first = [ring.owner(x) for x in names]
        assert [ring.owner(x) for x in names] == first

    def test_owner_independent_of_shard_declaration_order(self):
        names = lfns(500)
        r1 = HashRing(["a", "b", "c"])
        r2 = HashRing(["c", "a", "b"])
        assert [r1.owner(x) for x in names] == [r2.owner(x) for x in names]

    def test_owner_deterministic_across_processes(self):
        """Placement must not depend on PYTHONHASHSEED (Python ``hash``
        varies per process; hashlib does not)."""
        code = (
            "from repro.cluster.ring import HashRing;"
            "r = HashRing(['a', 'b', 'c']);"
            "print(','.join(r.owner(f'lfn-{i:05d}') for i in range(50)))"
        )
        import os
        import pathlib

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1", "12345")
        }
        assert len(outs) == 1
        in_process = HashRing(["a", "b", "c"])
        expected = ",".join(in_process.owner(f"lfn-{i:05d}") for i in range(50))
        assert outs == {expected + "\n"}

    def test_partition_round_trips_owner(self):
        ring = HashRing(["a", "b", "c"], vnodes=32)
        names = lfns(300)
        parts = ring.partition(names)
        assert sorted(x for group in parts.values() for x in group) == names
        for shard, group in parts.items():
            for lfn in group:
                assert ring.owner(lfn) == shard

    def test_property_style_round_trip_stability(self):
        """owner() answers survive arbitrary unrelated ring queries."""
        rng = random.Random(11)
        ring = HashRing(["s0", "s1", "s2", "s3"])
        probes = {x: ring.owner(x) for x in lfns(100, "probe")}
        for _ in range(2000):
            ring.owner(f"noise-{rng.randrange(10**9)}")
        assert {x: ring.owner(x) for x in probes} == probes


class TestSpread:
    def test_even_spread_with_vnodes(self):
        """With enough virtual nodes no shard hoards the namespace."""
        ring = HashRing(["a", "b", "c", "d"], vnodes=DEFAULT_VNODES)
        counts = ring.spread(lfns(8000))
        expected = 8000 / 4
        for shard, count in counts.items():
            assert count == pytest.approx(expected, rel=0.35), (
                f"{shard} holds {count} of 8000"
            )

    def test_single_shard_owns_everything(self):
        ring = HashRing(["only"])
        assert ring.spread(lfns(100)) == {"only": 100}


class TestMovement:
    def test_join_moves_bounded_fraction(self):
        """Adding shard N+1 must move about K/(N+1) keys, not rehash all."""
        names = lfns(6000)
        ring = HashRing(["a", "b", "c"])
        before = {x: ring.owner(x) for x in names}
        grown = ring.with_shard("d")
        moved = sum(1 for x in names if grown.owner(x) != before[x])
        ideal = len(names) / 4
        assert moved <= ideal * 1.5, f"{moved} keys moved (ideal ~{ideal:.0f})"
        # every moved key lands on the new shard, never between old shards
        for x in names:
            if grown.owner(x) != before[x]:
                assert grown.owner(x) == "d"

    def test_leave_moves_only_departed_keys(self):
        names = lfns(6000)
        ring = HashRing(["a", "b", "c", "d"])
        before = {x: ring.owner(x) for x in names}
        shrunk = ring.without_shard("d")
        for x in names:
            if before[x] != "d":
                assert shrunk.owner(x) == before[x]

    def test_with_shard_returns_new_ring(self):
        ring = HashRing(["a"])
        grown = ring.with_shard("b")
        assert len(ring) == 1 and len(grown) == 2


class TestShardMap:
    def test_round_trip(self):
        smap = ShardMap(
            shards=("s0", "s1"),
            mirrors={"s0": ("s0-m0", "s0-m1")},
            vnodes=32,
            version=3,
        )
        clone = ShardMap.from_dict(smap.to_dict())
        assert clone == smap
        assert clone.ring().owner("x") == smap.ring().owner("x")

    def test_mirror_keys_must_be_shards(self):
        with pytest.raises(ValueError):
            ShardMap(shards=("s0",), mirrors={"nope": ("m",)})

    def test_with_shard_bumps_version(self):
        smap = ShardMap(shards=("s0",))
        grown = smap.with_shard("s1", mirrors=("s1-m0",))
        assert grown.version == smap.version + 1
        assert grown.mirrors_of("s1") == ("s1-m0",)
        assert grown.mirrors_of("s0") == ()
        shrunk = grown.without_shard("s1")
        assert shrunk.shards == ("s0",)
        assert shrunk.version == grown.version + 1
