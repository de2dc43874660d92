"""Index postings against a plain ``dict[key, set[rid]]`` model.

An index key holds the bare rid while one row carries it and a ``set`` only
from the second rid on (``repro.db.index.post`` / ``unpost``).  Readers are
promised "an iterable of rids, possibly empty", so everything here reads
through ``lookup`` / ``postings()`` / the scans and compares with a model
that keeps one set per key, the way the indexes used to.

* ``IndexMachine`` drives ``insert`` / ``insert_rows`` / ``remove`` /
  ``remove_rows`` on a bare ``HashIndex`` and a bare ``OrderedIndex``: few
  keys and few rids, so a key walks 0 → 1 → 2 → 1 → 0 rids, the same
  ``(key, rid)`` goes in twice and a rid the key does not hold is removed.
  ``SmallRunIndexMachine`` is the same over twelve keys with the ordered
  index's runs split at four keys, so runs split, empty and are dropped,
  and every scan crosses run boundaries.
* ``TableMachine`` drives a table of each engine flavour through
  ``insert_many`` / ``delete_many`` / ``lookup_index_many`` / ``vacuum``:
  under MVCC a unique key holds a dead and a live rid, and
  ``dead_index_hits`` must equal the model's count of dead entries skipped.
* The RLI shape (one ``pfn_id`` key, thousands of rids) and readers racing
  a writer that flips one key between one and two rids are plain tests.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db import index as index_module
from repro.db.errors import DuplicateKeyError
from repro.db.index import HashIndex, OrderedIndex
from repro.db.mysql_engine import MySQLEngine
from repro.db.postgres_engine import PostgresEngine

#: A rule draws a key as a slot into the machine's ``keys``: twelve slots
#: cover four keys evenly and twelve once.
SLOTS = st.integers(min_value=0, max_value=11)
RIDS = st.integers(min_value=0, max_value=5)
entries = st.lists(st.tuples(SLOTS, RIDS), min_size=1, max_size=6)
#: Scan bounds on, between and outside the keys.
bounds = st.one_of(st.none(), st.text("abcdz", max_size=3))


def held(idx) -> dict:
    """``postings()`` as a model-shaped dict; a set only from two rids up."""
    out = {}
    for key, rids in idx.postings():
        assert len(rids) >= 1
        assert not isinstance(rids, (set, frozenset)) or len(rids) >= 2, (key, rids)
        assert len(set(rids)) == len(rids)
        out[key] = set(rids)
    return out


class IndexMachine(RuleBasedStateMachine):
    """One hash and one ordered index over column 0, fed the same entries:
    both are keyed by the column's bare value, so one model serves both."""

    keys = ["a", "ab", "b", "c"]
    prefixes = ["a"]

    def __init__(self):
        super().__init__()
        self.hash = HashIndex("h", (0,))
        self.ordered = OrderedIndex("o", 0)
        self.model: dict[str, set[int]] = {}

    def _key(self, slot: int) -> str:
        return self.keys[slot % len(self.keys)]

    def _put(self, key, rid):
        self.model.setdefault(key, set()).add(rid)

    def _take(self, key, rid):
        rids = self.model.get(key)
        if rids is not None:
            rids.discard(rid)
            if not rids:
                del self.model[key]

    @rule(slot=SLOTS, rid=RIDS)
    def insert(self, slot, rid):
        key = self._key(slot)
        self.hash.insert(key, rid)
        self.ordered.insert(key, rid)
        self._put(key, rid)

    @rule(slot=SLOTS, rid=RIDS)
    def remove(self, slot, rid):
        key = self._key(slot)
        self.hash.remove(key, rid)
        self.ordered.remove(key, rid)
        self._take(key, rid)

    @rule(batch=entries)
    def insert_rows(self, batch):
        batch = [(self._key(slot), rid) for slot, rid in batch]
        pairs = [(rid, (key,)) for key, rid in batch]
        self.hash.insert_rows(pairs)
        self.ordered.insert_rows(pairs)
        for key, rid in batch:
            self._put(key, rid)

    @rule(batch=entries)
    def remove_rows(self, batch):
        batch = [(self._key(slot), rid) for slot, rid in batch]
        pairs = [(rid, (key,)) for key, rid in batch]
        self.hash.remove_rows(pairs)
        self.ordered.remove_rows(pairs)
        for key, rid in batch:
            self._take(key, rid)

    @rule(low=bounds, high=bounds, include_low=st.booleans(), include_high=st.booleans())
    def range_scan(self, low, high, include_low, include_high):
        def inside(key):
            return (
                (low is None or key > low or (include_low and key == low))
                and (high is None or key < high or (include_high and key == high))
            )

        got = self.ordered.range_scan(low, high, include_low, include_high)
        assert [(k, set(r)) for k, r in got] == sorted(
            (k, r) for k, r in self.model.items() if inside(k)
        )

    @invariant()
    def agrees_with_the_model(self):
        model = self.model
        assert held(self.hash) == held(self.ordered) == model
        assert len(self.hash) == len(self.ordered) == len(model)
        assert list(self.ordered.distinct_keys()) == sorted(model)
        assert sorted(self.hash.distinct_keys()) == sorted(model)
        for key in self.keys:
            want = model.get(key, set())
            assert set(self.hash.lookup(key)) == want
            assert set(self.ordered.lookup(key)) == want
        assert [(k, set(r)) for k, r in self.ordered.range_scan()] == sorted(model.items())
        for prefix in self.prefixes:
            assert [(k, set(r)) for k, r in self.ordered.prefix_scan(prefix)] == sorted(
                (k, r) for k, r in model.items() if k.startswith(prefix)
            )
        assert self.ordered.check_runs() == []


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


class SmallRunIndexMachine(IndexMachine):
    """Runs split at four keys (``RUN_LENGTH`` 2), over twelve keys."""

    keys = ["a", "aa", "ab", "abc", "b", "ba", "bb", "c", "ca", "cab", "d", "e"]
    prefixes = ["a", "ab", "b", "c", "ca", "d", "z"]

    def __init__(self):
        super().__init__()
        self.saved = index_module.RUN_LENGTH
        index_module.RUN_LENGTH = 2

    def teardown(self):
        index_module.RUN_LENGTH = self.saved


#: Tier-1 runs hypothesis' default example count; CI's storage oracle step
#: raises it with ``--hypothesis-profile=ci``.
TestSmallRunIndexMachine = SmallRunIndexMachine.TestCase
TestSmallRunIndexMachine.settings = settings(stateful_step_count=60, deadline=None)


# ---------------------------------------------------------------------------
# Through a table, on both engine flavours
# ---------------------------------------------------------------------------

DDL = [
    "CREATE TABLE t (id INT NOT NULL AUTO_INCREMENT, name VARCHAR(8) NOT NULL, "
    "tag VARCHAR(8) NOT NULL, PRIMARY KEY (id), UNIQUE (name))",
    "CREATE INDEX t_name_prefix ON t (name) USING BTREE",
    "CREATE INDEX t_tag ON t (tag)",
    "CREATE INDEX t_tag_prefix ON t (tag) USING BTREE",
]
NAMES = ["a", "ab", "b"]
TAGS = ["x", "xy", "y"]


def make_table(flavour: str):
    if flavour == "mysql":
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    else:
        engine = PostgresEngine(fsync=False, sync_latency=0.0, dead_hit_cost=0.0)
    for ddl in DDL:
        engine.execute(ddl)
    return engine.table("t")


class TableMachine(RuleBasedStateMachine):
    flavour = "mysql"

    def __init__(self):
        super().__init__()
        self.table = make_table(self.flavour)
        self.mvcc = not self.table.eager_index_cleanup
        #: rid -> (row, dead) for every row an index may still point at.
        self.rows: dict[int, tuple[tuple, bool]] = {}
        self.dead_hits = 0

    def _entries(self, position: int, value) -> list[bool]:
        """Dead flags of the index entries under ``value`` in a column."""
        return [dead for row, dead in self.rows.values() if row[position] == value]

    @rule(batch=st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(TAGS)),
                         min_size=1, max_size=4))
    def insert_many(self, batch):
        stored: list = []
        clash = False
        earlier: set[str] = set()
        for name, _tag in batch:  # row by row: the unique check skips dead entries
            flags = self._entries(1, name)
            self.dead_hits += sum(flags)
            if name in earlier or not all(flags):
                clash = True
                break
            earlier.add(name)
        values = [{"name": name, "tag": tag} for name, tag in batch]
        if clash:
            with pytest.raises(DuplicateKeyError):
                self.table.insert_many(values, stored)
        else:
            self.table.insert_many(values, stored)
            assert len(stored) == len(batch)
        for rid, row in stored:
            assert isinstance(row, tuple) and rid not in self.rows
            self.rows[rid] = (row, False)

    @rule(data=st.data())
    def delete_many(self, data):
        live = sorted(rid for rid, (_row, dead) in self.rows.items() if not dead)
        if not live:
            return
        victims = data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=3,
                                     unique=True))
        self.table.delete_many(victims)
        for rid in victims:
            if self.mvcc:
                self.rows[rid] = (self.rows[rid][0], True)
            else:
                del self.rows[rid]

    @rule(tag=st.sampled_from(TAGS))
    def lookup_by_tag(self, tag):
        found = self.table.lookup_index_many(self.table.get_index("t_tag"), [tag])
        assert sorted(found) == sorted(
            (rid, row) for rid, (row, dead) in self.rows.items()
            if row[2] == tag and not dead
        )
        self.dead_hits += sum(self._entries(2, tag))

    @rule()
    def vacuum(self):
        dead = [rid for rid, (_row, is_dead) in self.rows.items() if is_dead]
        assert self.table.vacuum() == len(dead)
        for rid in dead:
            del self.rows[rid]

    @invariant()
    def every_index_agrees_with_the_model(self):
        table = self.table
        for position, column in ((0, "id"), (1, "name"), (2, "tag")):
            want: dict = {}
            for rid, (row, _dead) in self.rows.items():
                want.setdefault(row[position], set()).add(rid)
            assert held(table.find_hash_index((column,))) == want
            ordered = table.find_ordered_index(column) if column != "id" else None
            if ordered is not None:
                assert held(ordered) == want
                assert [k for k, _ in ordered.range_scan()] == sorted(want)
        assert table.stats.dead_index_hits == self.dead_hits
        assert table.dead_tuple_count == sum(dead for _row, dead in self.rows.values())
        assert table.check_integrity() == []


class PostgresTableMachine(TableMachine):
    flavour = "postgresql"


TestTableMachineMySQL = TableMachine.TestCase
TestTableMachinePostgres = PostgresTableMachine.TestCase
TestTableMachineMySQL.settings = TestTableMachinePostgres.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_a_unique_key_holds_a_dead_and_a_live_rid_under_mvcc():
    table = make_table("postgresql")
    rid0, _ = table.insert({"name": "a", "tag": "x"})
    table.delete_rid(rid0)
    rid1, _ = table.insert({"name": "a", "tag": "x"})  # past one dead entry
    by_name = table.find_hash_index(("name",))
    assert set(by_name.lookup("a")) == {rid0, rid1}
    assert table.stats.dead_index_hits == 1
    with pytest.raises(DuplicateKeyError):
        table.insert({"name": "a", "tag": "y"})
    assert table.stats.dead_index_hits == 2
    assert table.vacuum() == 1 and held(by_name) == {"a": {rid1}}
    assert table.check_integrity() == []


def test_one_key_with_thousands_of_rids_and_back_to_one():
    """The RLI's ``t_map(pfn_id)``: every name of one LRC under one key,
    the bare value in a hash index as in an ordered one."""
    key = 7
    for idx in (HashIndex("h", (0,)), OrderedIndex("o", 0)):
        idx.insert_rows([(rid, (7,)) for rid in range(3000)])
        assert len(idx) == 1 and set(idx.lookup(key)) == set(range(3000))
        idx.remove_rows([(rid, (7,)) for rid in range(1, 3000)])
        assert held(idx) == {key: {0}} and list(idx.lookup(key)) == [0]
        idx.remove(key, 0)
        assert len(idx) == 0 and list(idx.lookup(key)) == [] and held(idx) == {}


def test_check_integrity_reports_a_posting_kept_as_a_small_set_and_key_list_drift(
    monkeypatch,
):
    monkeypatch.setattr(index_module, "RUN_LENGTH", 2)
    table = make_table("mysql")
    for n in range(6):
        table.insert({"name": f"n{n}", "tag": f"t{n}"})
    assert table.check_integrity() == []
    ordered = table.find_ordered_index("tag")
    runs, lasts = ordered._runs, ordered._lasts
    assert [len(run) for run in runs] == [2, 2, 2]  # split at four, twice
    ordered._map["t0"] = set(ordered.lookup("t0"))  # a one-element set left behind
    runs[0], runs[1] = runs[1], runs[0]  # two runs swapped, with their last keys
    lasts[0], lasts[1] = lasts[1], lasts[0]
    lasts[2] = "t4"  # a stale recorded last key
    problems = table.check_integrity()
    assert any("t_tag_prefix" in p and "set of 1" in p for p in problems)
    assert any(
        "t_tag_prefix runs" in p and "out of order" in p and "stale" in p for p in problems
    )
    assert len(problems) == 2


def test_readers_see_one_or_two_rows_while_a_writer_flips_the_posting():
    """Four readers against a writer that takes one key between one rid
    (an int) and two (a set) under a 10 us switch interval: every read
    sees the resident row and at most the visitor, whole."""
    table = make_table("mysql")
    table.insert({"name": "resident", "tag": "x"})
    by_tag, tag_prefix = table.get_index("t_tag"), table.get_index("t_tag_prefix")
    done = threading.Event()
    failures: list = []
    reads = [0] * 4
    flips = 1500

    def writer():
        try:
            for _ in range(flips):
                rid, _row = table.insert({"name": "visitor", "tag": "x"})
                table.delete_rid(rid)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)
        finally:
            done.set()

    def reader(slot: int):
        try:
            while not done.is_set():
                for rows in (table.lookup_index_many(by_tag, ["x"]),
                             table.prefix_index(tag_prefix, "x")):
                    names = sorted(row[1] for _rid, row in rows)
                    assert names in (["resident"], ["resident", "visitor"]), names
                reads[slot] += 1
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(slot,)) for slot in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert all(count > 0 for count in reads)
    assert table.stats.inserts == flips + 1 and table.check_integrity() == []
    assert held(by_tag) == {"x": {0}}
