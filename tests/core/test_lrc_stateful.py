"""Model-based (stateful) property test of the LocalReplicaCatalog.

Hypothesis drives random sequences of create/add/delete and attribute
attachment against the real catalog and a trivial dict model; after every
step the catalog must agree with the model on membership, mappings,
reverse mappings, counts and attribute values, and its own fsck
(``verify_integrity``) must come back clean.  This is the strongest guard
on the ref-counting/pruning logic: every branch of the folded write path
(new vs. shared PFN, last vs. surviving replica, values pruned with their
object) is checked after each step, on both storage flavours.  The WAL,
checkpointed every few records here, must rebuild the same tables.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

import pytest

from repro.core.errors import (
    AttributeExistsError,
    MappingExistsError,
    MappingNotFoundError,
)
from repro.core.lrc import LocalReplicaCatalog, ObjType
from repro.db import wal
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.postgres_engine import PostgresEngine
from tests.db._log import durable_records


@pytest.fixture(autouse=True, scope="module")
def frequent_checkpoints():
    """A floor of one record, so the gap between checkpoints is the last
    image's row count: every run crosses at least two.  (A run writes ~20
    records; with a floor of 64 none of 30 runs reached a checkpoint.)"""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal, "CHECKPOINT_MIN_RECORDS", 1)
        yield

LFNS = [f"lfn{i}" for i in range(6)]
PFNS = [f"pfn{i}" for i in range(4)]
#: Attribute definitions.  "size" exists in both namespaces on purpose:
#: LFN and PFN surrogate ids both count from 1, so a prune that ignored
#: the namespace would take the other object's value with it.
ATTRS = {
    (ObjType.LFN, "size"): "int",
    (ObjType.PFN, "size"): "int",
    (ObjType.LFN, "tag"): "str",
}


class LRCMachine(RuleBasedStateMachine):
    @staticmethod
    def make_engine():
        return MySQLEngine(flush_on_commit=False, sync_latency=0.0)

    def __init__(self):
        super().__init__()
        self.lrc = LocalReplicaCatalog(Connection(self.make_engine(), "sm"), name="sm")
        self.lrc.init_schema()
        for (objtype, name), attrtype in ATTRS.items():
            self.lrc.define_attribute(name, objtype, attrtype)
        self.model: dict[str, set[str]] = {}
        #: (objtype, object name) -> {attribute name: value}
        self.values: dict[tuple[ObjType, str], dict[str, object]] = {}

    def _live(self, objtype: ObjType, name: str) -> bool:
        if objtype is ObjType.LFN:
            return name in self.model
        return any(name in pfns for pfns in self.model.values())

    @rule(lfn=st.sampled_from(LFNS), pfn=st.sampled_from(PFNS))
    def create(self, lfn, pfn):
        if lfn in self.model:
            with pytest.raises(MappingExistsError):
                self.lrc.create_mapping(lfn, pfn)
        else:
            self.lrc.create_mapping(lfn, pfn)
            self.model[lfn] = {pfn}

    @rule(lfn=st.sampled_from(LFNS), pfn=st.sampled_from(PFNS))
    def add(self, lfn, pfn):
        if lfn not in self.model:
            with pytest.raises(MappingNotFoundError):
                self.lrc.add_mapping(lfn, pfn)
        elif pfn in self.model[lfn]:
            with pytest.raises(MappingExistsError):
                self.lrc.add_mapping(lfn, pfn)
        else:
            self.lrc.add_mapping(lfn, pfn)
            self.model[lfn].add(pfn)

    @rule(lfn=st.sampled_from(LFNS), pfn=st.sampled_from(PFNS))
    def delete(self, lfn, pfn):
        if lfn in self.model and pfn in self.model[lfn]:
            self.lrc.delete_mapping(lfn, pfn)
            self.model[lfn].discard(pfn)
            if not self.model[lfn]:
                del self.model[lfn]
            # Values go with the object that lost its last mapping.
            for objtype, name in ((ObjType.LFN, lfn), (ObjType.PFN, pfn)):
                if not self._live(objtype, name):
                    self.values.pop((objtype, name), None)
        else:
            with pytest.raises(MappingNotFoundError):
                self.lrc.delete_mapping(lfn, pfn)

    @rule(
        attr=st.sampled_from(sorted(ATTRS)),
        index=st.integers(min_value=0, max_value=5),
        number=st.integers(min_value=0, max_value=99),
    )
    def attach(self, attr, index, number):
        objtype, attr_name = attr
        pool = LFNS if objtype is ObjType.LFN else PFNS
        name = pool[index % len(pool)]
        value = number if ATTRS[attr] == "int" else f"v{number}"
        held = self.values.get((objtype, name), {})
        if not self._live(objtype, name):
            with pytest.raises(MappingNotFoundError):
                self.lrc.add_attribute(name, attr_name, objtype, value)
        elif attr_name in held:
            with pytest.raises(AttributeExistsError):
                self.lrc.add_attribute(name, attr_name, objtype, value)
        else:
            self.lrc.add_attribute(name, attr_name, objtype, value)
            self.values.setdefault((objtype, name), {})[attr_name] = value

    @invariant()
    def mappings_agree(self):
        assert self.lrc.lfn_count() == len(self.model)
        assert self.lrc.mapping_count() == sum(
            len(pfns) for pfns in self.model.values()
        )
        for lfn, pfns in self.model.items():
            assert set(self.lrc.get_mappings(lfn)) == pfns
        assert sorted(self.lrc.all_lfns()) == sorted(self.model)

    @invariant()
    def reverse_mappings_agree(self):
        reverse: dict[str, set[str]] = {}
        for lfn, pfns in self.model.items():
            for pfn in pfns:
                reverse.setdefault(pfn, set()).add(lfn)
        for pfn in PFNS:
            if pfn in reverse:
                assert set(self.lrc.get_lfns(pfn)) == reverse[pfn]
            else:
                with pytest.raises(MappingNotFoundError):
                    self.lrc.get_lfns(pfn)

    @invariant()
    def attribute_values_agree(self):
        for objtype, pool in ((ObjType.LFN, LFNS), (ObjType.PFN, PFNS)):
            for name in pool:
                if self._live(objtype, name):
                    assert self.lrc.get_attributes(name, objtype) == (
                        self.values.get((objtype, name), {})
                    )
        # Nothing outlives its object: the value tables hold exactly the
        # model's values.
        stored = sum(
            self.lrc.conn.execute(f"SELECT COUNT(*) FROM {table}").scalar()
            for table in ("t_int_attr", "t_str_attr", "t_flt_attr", "t_date_attr")
        )
        assert stored == sum(len(held) for held in self.values.values())

    @invariant()
    def catalog_fsck_is_clean(self):
        assert self.lrc.verify_integrity() == []

    @invariant()
    def the_wal_recovers_the_catalog(self):
        """Checkpoint image plus suffix replays to the live tables."""
        engine = self.lrc.conn.database
        engine.wal.flush()
        twin = LocalReplicaCatalog(Connection(self.make_engine(), "twin"), name="twin")
        twin.init_schema()
        twin.conn.database.apply_records(durable_records(engine.wal))
        for name in engine.table_names():
            assert Counter(twin.conn.database.table(name).live_rows()) == Counter(
                engine.table(name).live_rows()
            ), name
        assert twin.verify_integrity() == []


class PostgresLRCMachine(LRCMachine):
    """Same machine on MVCC storage: probes skip dead tuples, and a create
    after a delete re-inserts under a key whose old version is still in
    the indexes."""

    @staticmethod
    def make_engine():
        return PostgresEngine(fsync=False, sync_latency=0.0, dead_hit_cost=0.0)


_SETTINGS = settings(max_examples=30, stateful_step_count=30, deadline=None)
LRCMachine.TestCase.settings = _SETTINGS
PostgresLRCMachine.TestCase.settings = _SETTINGS
TestLRCStateful = LRCMachine.TestCase
TestLRCStatefulPostgres = PostgresLRCMachine.TestCase
