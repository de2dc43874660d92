"""Hash and ordered index tests, including hypothesis properties."""

import random
from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.index import RUN_LENGTH, HashIndex, OrderedIndex


class TestHashIndex:
    """A one-column index is keyed by the bare value, a wider one by the
    tuple of values."""

    def test_insert_lookup(self):
        idx = HashIndex("i", (0,))
        idx.insert("a", 1)
        idx.insert("a", 2)
        assert idx.lookup("a") == {1, 2}
        assert set(idx.lookup(("a",))) == set()  # a tuple is another key

    def test_lookup_missing_is_empty(self):
        assert set(HashIndex("i", (0,)).lookup("nope")) == set()

    def test_remove(self):
        idx = HashIndex("i", (0,))
        idx.insert("a", 1)
        idx.remove("a", 1)
        assert set(idx.lookup("a")) == set()
        assert len(idx) == 0

    def test_remove_nonexistent_is_noop(self):
        idx = HashIndex("i", (0,))
        idx.remove("a", 1)  # no raise

    def test_single_column_key_is_the_value(self):
        idx = HashIndex("i", (1,))
        assert idx.key_for(("ignored", "x")) == "x"

    def test_composite_key(self):
        idx = HashIndex("i", (0, 2))
        row = ["x", "ignored", 7]
        assert idx.key_for(row) == ("x", 7)

    def test_distinct_keys(self):
        idx = HashIndex("i", (0,))
        idx.insert_rows([(1, ("a", 0)), (2, ("b", 0)), (3, ("a", 1))])
        assert sorted(idx.distinct_keys()) == ["a", "b"]
        assert {key: set(rids) for key, rids in idx.postings()} == {
            "a": {1, 3},
            "b": {2},
        }


class TestOrderedIndex:
    def make(self, keys):
        idx = OrderedIndex("o", 0)
        for rid, key in enumerate(keys):
            idx.insert(key, rid)
        return idx

    def test_lookup(self):
        idx = self.make(["b", "a", "c"])
        assert set(idx.lookup("a")) == {1}

    def test_duplicate_keys_share_entry(self):
        idx = OrderedIndex("o", 0)
        idx.insert("k", 1)
        idx.insert("k", 2)
        assert idx.lookup("k") == {1, 2}
        assert len(idx) == 1

    def test_remove_last_rid_removes_key(self):
        idx = OrderedIndex("o", 0)
        idx.insert("k", 1)
        idx.remove("k", 1)
        assert len(idx) == 0
        assert list(idx.range_scan()) == []

    def test_range_scan_inclusive(self):
        idx = self.make(["a", "b", "c", "d"])
        keys = [k for k, _ in idx.range_scan("b", "c")]
        assert keys == ["b", "c"]

    def test_range_scan_exclusive(self):
        idx = self.make(["a", "b", "c", "d"])
        keys = [k for k, _ in idx.range_scan("a", "d", False, False)]
        assert keys == ["b", "c"]

    def test_range_scan_open_ends(self):
        idx = self.make(["a", "b", "c"])
        assert [k for k, _ in idx.range_scan()] == ["a", "b", "c"]

    def test_prefix_scan(self):
        idx = self.make(["lfn1", "lfn2", "other", "lfn3"])
        assert [k for k, _ in idx.prefix_scan("lfn")] == ["lfn1", "lfn2", "lfn3"]

    def test_prefix_scan_empty_prefix_scans_all(self):
        idx = self.make(["b", "a"])
        assert [k for k, _ in idx.prefix_scan("")] == ["a", "b"]

    def test_prefix_scan_no_match(self):
        idx = self.make(["abc"])
        assert list(idx.prefix_scan("zzz")) == []


@settings(max_examples=50)
@given(st.lists(st.text(min_size=0, max_size=8), max_size=40))
def test_ordered_index_keys_always_sorted(keys):
    """Property: internal key list stays sorted under arbitrary inserts."""
    idx = OrderedIndex("o", 0)
    for rid, key in enumerate(keys):
        idx.insert(key, rid)
    scanned = [k for k, _ in idx.range_scan()]
    assert scanned == sorted(set(keys))


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.integers(0, 5)),
        max_size=40,
    )
)
def test_ordered_index_insert_remove_roundtrip(ops):
    """Property: insert-then-remove of everything leaves an empty index."""
    idx = OrderedIndex("o", 0)
    for key, rid in ops:
        idx.insert(key, rid)
    for key, rid in ops:
        idx.remove(key, rid)
    assert len(idx) == 0


@settings(max_examples=50)
@given(
    st.lists(st.text("ab", min_size=0, max_size=6), max_size=30),
    st.text("ab", min_size=0, max_size=3),
)
def test_prefix_scan_matches_naive_filter(keys, prefix):
    """Property: prefix_scan equals filtering all keys by startswith."""
    idx = OrderedIndex("o", 0)
    for rid, key in enumerate(keys):
        idx.insert(key, rid)
    got = [k for k, _ in idx.prefix_scan(prefix)]
    expected = sorted({k for k in keys if k.startswith(prefix)})
    assert got == expected


def test_runs_hold_the_same_keys_however_they_arrive_and_scan_across_boundaries():
    """2 000 keys one at a time in random order (runs split anywhere) and
    the same keys as one statement in ascending order (only the last run
    ever splits) give the same keys, and ``range_scan`` agrees with
    bisecting a sorted list for bounds on, just inside and just outside
    every run boundary of both."""
    keys = random.Random(29).sample(range(0, 100_000, 2), 2000)  # odd numbers fall between
    one_by_one, as_one = OrderedIndex("o", 0), OrderedIndex("o", 0)
    for rid, key in enumerate(keys):
        one_by_one.insert(key, rid)
    as_one.insert_rows([(rid, (key,)) for rid, key in enumerate(sorted(keys))])
    oracle = sorted(keys)
    assert list(one_by_one.distinct_keys()) == list(as_one.distinct_keys()) == oracle
    for idx in (one_by_one, as_one):
        assert len(idx._runs) > 1 and all(len(run) < 2 * RUN_LENGTH for run in idx._runs)
        edges = {edge for run in idx._runs for edge in (run[0], run[-1])}
        bounds = [None, *sorted({edge + d for edge in edges for d in (-1, 0, 1)})]
        for low in bounds:
            for high in bounds:
                for include_low in (True, False):
                    for include_high in (True, False):
                        start = 0 if low is None else (
                            bisect_left if include_low else bisect_right)(oracle, low)
                        stop = len(oracle) if high is None else (
                            bisect_right if include_high else bisect_left)(oracle, high)
                        got = idx.range_scan(low, high, include_low, include_high)
                        assert [k for k, _ in got] == oracle[start:stop]
