"""ReplicaLocationIndex tests: both stores, expiry, wildcard restrictions."""

import pytest

from repro.core.bloom import BloomFilter, BloomParameters
from repro.core.errors import MappingNotFoundError, WildcardNotSupportedError
from repro.core.rli import ReplicaLocationIndex
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def rli(clock):
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    index = ReplicaLocationIndex(
        Connection(engine, "rli-test"), name="rli-test", timeout=60.0, clock=clock
    )
    index.init_schema()
    return index


def bloom_payload(names, entries=None):
    params = BloomParameters.for_entries(entries or max(len(names), 16))
    bf = BloomFilter.from_names(names, params)
    return bf.to_bytes(), params.num_bits, params.num_hashes, len(names)


class TestFullUpdates:
    def test_update_then_query(self, rli):
        rli.apply_full_update("lrcA", ["lfn1", "lfn2"])
        assert rli.query("lfn1") == ["lrcA"]

    def test_multiple_lrcs_same_lfn(self, rli):
        rli.apply_full_update("lrcA", ["shared"])
        rli.apply_full_update("lrcB", ["shared"])
        assert sorted(rli.query("shared")) == ["lrcA", "lrcB"]

    def test_query_missing_raises(self, rli):
        rli.apply_full_update("lrcA", ["lfn1"])
        with pytest.raises(MappingNotFoundError):
            rli.query("ghost")

    def test_repeat_update_refreshes_not_duplicates(self, rli):
        rli.apply_full_update("lrcA", ["lfn1"])
        rli.apply_full_update("lrcA", ["lfn1"])
        assert rli.query("lfn1") == ["lrcA"]
        assert rli.mapping_count() == 1

    def test_returns_count(self, rli):
        assert rli.apply_full_update("lrcA", ["a", "b", "c"]) == 3
        assert rli.apply_full_update("lrcA", ["a", "a", "b"]) == 2
        assert rli.mapping_count() == 2

    def test_full_drops_what_it_no_longer_lists(self, rli):
        """A full is authoritative for its LRC: an omitted name goes now,
        not at the timeout, with its t_lfn row — at the same clock reading
        too, where a timestamp test would keep it."""
        rli.apply_full_update("lrcA", ["keep", "gone"])
        rli.apply_full_update("lrcA", ["keep"])
        with pytest.raises(MappingNotFoundError):
            rli.query("gone")
        assert rli.mapping_count() == 1
        assert rli.conn.execute("SELECT COUNT(*) FROM t_lfn").scalar() == 1

    def test_full_leaves_other_lrcs_alone(self, rli):
        rli.apply_full_update("lrcA", ["x"])
        rli.apply_full_update("lrcB", ["x", "y"])
        rli.apply_full_update("lrcA", [])
        assert rli.bulk_query(["x", "y"]) == {"x": ["lrcB"], "y": ["lrcB"]}

    def test_bulk_query(self, rli):
        rli.apply_full_update("lrcA", ["a", "b"])
        assert rli.bulk_query(["a", "b", "missing"]) == {
            "a": ["lrcA"],
            "b": ["lrcA"],
        }


class TestIncrementalUpdates:
    def test_adds_applied(self, rli):
        rli.apply_incremental_update("lrcA", ["new1"], [])
        assert rli.query("new1") == ["lrcA"]

    def test_removes_applied(self, rli):
        rli.apply_full_update("lrcA", ["x"])
        rli.apply_incremental_update("lrcA", [], ["x"])
        with pytest.raises(MappingNotFoundError):
            rli.query("x")

    def test_remove_respects_other_lrcs(self, rli):
        rli.apply_full_update("lrcA", ["x"])
        rli.apply_full_update("lrcB", ["x"])
        rli.apply_incremental_update("lrcA", [], ["x"])
        assert rli.query("x") == ["lrcB"]

    def test_remove_unknown_name_is_noop(self, rli):
        rli.apply_incremental_update("lrcA", [], ["never-seen"])  # no raise


class TestBloomStore:
    def test_update_and_query(self, rli):
        payload, nbits, k, n = bloom_payload(["lfn1", "lfn2"])
        rli.apply_bloom_update("lrcA", payload, nbits, k, n)
        assert rli.query("lfn1") == ["lrcA"]
        assert rli.bloom_filter_count() == 1

    def test_replacement_not_accumulation(self, rli):
        p1 = bloom_payload(["old"])
        rli.apply_bloom_update("lrcA", *p1)
        p2 = bloom_payload(["new"])
        rli.apply_bloom_update("lrcA", *p2)
        assert rli.query("new") == ["lrcA"]
        with pytest.raises(MappingNotFoundError):
            rli.query("old")
        assert rli.bloom_filter_count() == 1

    def test_combined_stores_in_one_query(self, rli):
        rli.apply_full_update("lrc-db", ["shared"])
        rli.apply_bloom_update("lrc-bloom", *bloom_payload(["shared"]))
        assert sorted(rli.query("shared")) == ["lrc-bloom", "lrc-db"]

    def test_multiple_filters_checked(self, rli):
        for i in range(5):
            rli.apply_bloom_update(f"lrc{i}", *bloom_payload([f"only{i}", "common"]))
        assert rli.query("only3") == ["lrc3"]
        assert len(rli.query("common")) == 5

    def test_stats(self, rli):
        rli.apply_bloom_update("lrcA", *bloom_payload(["a"]))
        rli.apply_bloom_update("lrcA", *bloom_payload(["a", "b"]))
        stats = rli.bloom_stats()["lrcA"]
        assert stats["updates_received"] == 2
        assert stats["size_bytes"] > 0


class TestWildcard:
    def test_wildcard_on_relational_store(self, rli):
        rli.apply_full_update("lrcA", ["run1/a", "run1/b", "run2/c"])
        hits = rli.query_wildcard("run1/*")
        assert sorted(lfn for lfn, _ in hits) == ["run1/a", "run1/b"]

    def test_wildcard_rejected_with_bloom_state(self, rli):
        """Paper §5.4: wildcard searches impossible with Bloom compression."""
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        with pytest.raises(WildcardNotSupportedError):
            rli.query_wildcard("x*")


class TestExpiry:
    def test_stale_mappings_expire(self, rli, clock):
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(61.0)
        assert rli.expire_once() == 1
        with pytest.raises(MappingNotFoundError):
            rli.query("lfn1")

    def test_fresh_mappings_survive(self, rli, clock):
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(30.0)
        assert rli.expire_once() == 0
        assert rli.query("lfn1") == ["lrcA"]

    def test_refresh_extends_lifetime(self, rli, clock):
        """The soft-state contract: periodic updates keep entries alive."""
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(40.0)
        rli.apply_full_update("lrcA", ["lfn1"])  # refresh
        clock.advance(40.0)  # 80s after first, 40s after refresh
        rli.expire_once()
        assert rli.query("lfn1") == ["lrcA"]

    def test_partial_expiry(self, rli, clock):
        rli.apply_full_update("lrcA", ["old"])
        clock.advance(40.0)
        rli.apply_full_update("lrcB", ["new"])
        clock.advance(30.0)  # old at 70s, new at 30s
        assert rli.expire_once() == 1
        assert rli.query("new") == ["lrcB"]

    def test_bloom_filters_expire(self, rli, clock):
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        clock.advance(61.0)
        assert rli.expire_once() == 1
        assert rli.bloom_filter_count() == 0

    def test_bloom_refresh_survives(self, rli, clock):
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        clock.advance(40.0)
        rli.apply_bloom_update("lrcA", *bloom_payload(["x"]))
        clock.advance(40.0)
        rli.expire_once()
        assert rli.bloom_filter_count() == 1

    def test_lfn_rows_pruned_when_last_mapping_expires(self, rli, clock):
        rli.apply_full_update("lrcA", ["lfn1"])
        clock.advance(61.0)
        rli.expire_once()
        assert rli.conn.execute("SELECT COUNT(*) FROM t_lfn").scalar() == 0


class TestManagement:
    def test_lrc_list_combines_stores(self, rli):
        rli.apply_full_update("db-lrc", ["a"])
        rli.apply_bloom_update("bloom-lrc", *bloom_payload(["b"]))
        assert rli.lrc_list() == ["bloom-lrc", "db-lrc"]

    def test_updates_applied_counter(self, rli):
        rli.apply_full_update("a", ["x"])
        rli.apply_incremental_update("a", ["y"], [])
        rli.apply_bloom_update("b", *bloom_payload(["z"]))
        assert rli.updates_applied == 3
