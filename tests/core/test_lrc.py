"""LocalReplicaCatalog tests: mappings, attributes, RLI targets, the
logical-name changes its log carries."""

import pytest

from repro.core.errors import (
    AttributeExistsError,
    AttributeNotFoundError,
    InvalidAttributeError,
    InvalidNameError,
    MappingExistsError,
    MappingNotFoundError,
    UpdateTargetError,
)
from repro.core.lrc import AttrType, LocalReplicaCatalog, ObjType
from repro.core.updates import UpdateManager
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.postgres_engine import PostgresEngine
from repro.testing.faults import NullSink


@pytest.fixture(params=["mysql", "postgresql"])
def lrc(request):
    """The LRC must behave identically on both back ends (paper §5.2)."""
    if request.param == "mysql":
        engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    else:
        engine = PostgresEngine(fsync=False, sync_latency=0.0)
    catalog = LocalReplicaCatalog(Connection(engine, "test"), name="lrc-test")
    catalog.init_schema()
    return catalog


class TestMappings:
    def test_create_and_query(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        assert lrc.get_mappings("lfn1") == ["pfn1"]

    def test_create_duplicate_lfn_rejected(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        with pytest.raises(MappingExistsError):
            lrc.create_mapping("lfn1", "pfn2")

    def test_add_second_replica(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.add_mapping("lfn1", "pfn2")
        assert sorted(lrc.get_mappings("lfn1")) == ["pfn1", "pfn2"]

    def test_add_to_missing_lfn_rejected(self, lrc):
        with pytest.raises(MappingNotFoundError):
            lrc.add_mapping("ghost", "pfn1")

    def test_add_duplicate_mapping_rejected(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        with pytest.raises(MappingExistsError):
            lrc.add_mapping("lfn1", "pfn1")

    def test_shared_pfn_across_lfns(self, lrc):
        lrc.create_mapping("lfn1", "shared-pfn")
        lrc.create_mapping("lfn2", "shared-pfn")
        assert sorted(lrc.get_lfns("shared-pfn")) == ["lfn1", "lfn2"]

    def test_query_missing_lfn_raises(self, lrc):
        with pytest.raises(MappingNotFoundError):
            lrc.get_mappings("ghost")

    def test_query_missing_pfn_raises(self, lrc):
        with pytest.raises(MappingNotFoundError):
            lrc.get_lfns("ghost")

    def test_invalid_names_rejected(self, lrc):
        with pytest.raises(InvalidNameError):
            lrc.create_mapping("", "pfn")
        with pytest.raises(InvalidNameError):
            lrc.create_mapping("lfn", "x" * 251)

    def test_counts(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.add_mapping("lfn1", "pfn2")
        lrc.create_mapping("lfn2", "pfn3")
        assert lrc.lfn_count() == 2
        assert lrc.mapping_count() == 3


class TestDelete:
    def test_delete_one_of_two_replicas(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.add_mapping("lfn1", "pfn2")
        lrc.delete_mapping("lfn1", "pfn1")
        assert lrc.get_mappings("lfn1") == ["pfn2"]

    def test_delete_last_mapping_removes_lfn(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.delete_mapping("lfn1", "pfn1")
        assert not lrc.exists("lfn1")
        assert lrc.lfn_count() == 0

    def test_orphaned_pfn_pruned(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.delete_mapping("lfn1", "pfn1")
        with pytest.raises(MappingNotFoundError):
            lrc.get_lfns("pfn1")

    def test_shared_pfn_survives_partial_delete(self, lrc):
        lrc.create_mapping("lfn1", "shared")
        lrc.create_mapping("lfn2", "shared")
        lrc.delete_mapping("lfn1", "shared")
        assert lrc.get_lfns("shared") == ["lfn2"]

    def test_delete_missing_raises(self, lrc):
        with pytest.raises(MappingNotFoundError):
            lrc.delete_mapping("nope", "pfn")

    def test_delete_existing_names_but_no_mapping(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.create_mapping("lfn2", "pfn2")
        with pytest.raises(MappingNotFoundError):
            lrc.delete_mapping("lfn1", "pfn2")

    def test_recreate_after_delete(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.delete_mapping("lfn1", "pfn1")
        lrc.create_mapping("lfn1", "pfn1")
        assert lrc.get_mappings("lfn1") == ["pfn1"]


class TestWildcardAndBulk:
    def test_wildcard_query(self, lrc):
        for i in range(5):
            lrc.create_mapping(f"run1/file{i}", f"pfn{i}")
        lrc.create_mapping("run2/file0", "other")
        hits = lrc.query_wildcard("run1/*")
        assert len(hits) == 5

    def test_wildcard_question_mark(self, lrc):
        lrc.create_mapping("f1", "p1")
        lrc.create_mapping("f2", "p2")
        lrc.create_mapping("f10", "p3")
        assert len(lrc.query_wildcard("f?")) == 2

    def test_bulk_create_reports_failures(self, lrc):
        lrc.create_mapping("dup", "pfn")
        failures = lrc.bulk_create([("a", "p1"), ("dup", "p2"), ("b", "p3")])
        assert len(failures) == 1
        assert failures[0][0] == "dup"
        assert lrc.exists("a") and lrc.exists("b")

    def test_bulk_delete(self, lrc):
        lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(5)])
        failures = lrc.bulk_delete([(f"l{i}", f"p{i}") for i in range(5)])
        assert failures == [] and lrc.lfn_count() == 0

    def test_bulk_query_omits_missing(self, lrc):
        lrc.create_mapping("here", "pfn")
        result = lrc.bulk_query(["here", "missing"])
        assert result == {"here": ["pfn"]}

    def test_all_lfns(self, lrc):
        lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(3)])
        assert sorted(lrc.all_lfns()) == ["l0", "l1", "l2"]


class TestAttributes:
    def test_define_add_get(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.define_attribute("size", ObjType.PFN, AttrType.INT)
        lrc.add_attribute("pfn1", "size", ObjType.PFN, 1024)
        assert lrc.get_attributes("pfn1", ObjType.PFN) == {"size": 1024}

    def test_all_four_types(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.define_attribute("s", "pfn", "str")
        lrc.define_attribute("i", "pfn", "int")
        lrc.define_attribute("f", "pfn", "float")
        lrc.define_attribute("d", "pfn", "date")
        lrc.add_attribute("pfn1", "s", "pfn", "text")
        lrc.add_attribute("pfn1", "i", "pfn", 5)
        lrc.add_attribute("pfn1", "f", "pfn", 2.5)
        lrc.add_attribute("pfn1", "d", "pfn", "2004-06-07")
        attrs = lrc.get_attributes("pfn1", "pfn")
        assert attrs["s"] == "text" and attrs["i"] == 5 and attrs["f"] == 2.5
        assert attrs["d"] > 0

    def test_lfn_attributes_separate_namespace(self, lrc):
        lrc.create_mapping("obj", "obj")  # same string as LFN and PFN
        lrc.define_attribute("tag", ObjType.LFN, AttrType.STR)
        lrc.define_attribute("tag", ObjType.PFN, AttrType.STR)  # no clash
        lrc.add_attribute("obj", "tag", ObjType.LFN, "logical")
        lrc.add_attribute("obj", "tag", ObjType.PFN, "physical")
        assert lrc.get_attributes("obj", ObjType.LFN) == {"tag": "logical"}
        assert lrc.get_attributes("obj", ObjType.PFN) == {"tag": "physical"}

    def test_duplicate_definition_rejected(self, lrc):
        lrc.define_attribute("size", "pfn", "int")
        with pytest.raises(AttributeExistsError):
            lrc.define_attribute("size", "pfn", "int")

    def test_duplicate_value_rejected(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        lrc.add_attribute("p", "size", "pfn", 1)
        with pytest.raises(AttributeExistsError):
            lrc.add_attribute("p", "size", "pfn", 2)

    def test_modify(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        lrc.add_attribute("p", "size", "pfn", 1)
        lrc.modify_attribute("p", "size", "pfn", 2)
        assert lrc.get_attributes("p", "pfn")["size"] == 2

    def test_modify_unset_raises(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        with pytest.raises(AttributeNotFoundError):
            lrc.modify_attribute("p", "size", "pfn", 2)

    def test_remove(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        lrc.add_attribute("p", "size", "pfn", 1)
        lrc.remove_attribute("p", "size", "pfn")
        assert lrc.get_attributes("p", "pfn") == {}

    def test_undefine_drops_values(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        lrc.add_attribute("p", "size", "pfn", 1)
        lrc.undefine_attribute("size", "pfn")
        with pytest.raises(AttributeNotFoundError):
            lrc.add_attribute("p", "size", "pfn", 1)

    def test_query_by_attribute_value(self, lrc):
        lrc.define_attribute("size", "pfn", "int")
        for i in range(5):
            lrc.create_mapping(f"l{i}", f"p{i}")
            lrc.add_attribute(f"p{i}", "size", "pfn", i * 100)
        hits = lrc.query_by_attribute("size", "pfn", 200, ">")
        assert sorted(name for name, _ in hits) == ["p3", "p4"]

    def test_query_by_attribute_name_only(self, lrc):
        lrc.define_attribute("size", "pfn", "int")
        lrc.create_mapping("l", "p")
        lrc.add_attribute("p", "size", "pfn", 7)
        assert lrc.query_by_attribute("size", "pfn") == [("p", 7)]

    def test_bad_comparison_op(self, lrc):
        lrc.define_attribute("size", "pfn", "int")
        with pytest.raises(InvalidAttributeError):
            lrc.query_by_attribute("size", "pfn", 1, "LIKE")

    def test_bad_value_type(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        with pytest.raises(InvalidAttributeError):
            lrc.add_attribute("p", "size", "pfn", "not-a-number")

    def test_attribute_on_missing_object(self, lrc):
        lrc.define_attribute("size", "pfn", "int")
        with pytest.raises(MappingNotFoundError):
            lrc.add_attribute("ghost", "size", "pfn", 1)

    def test_attributes_pruned_with_object(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        lrc.add_attribute("p", "size", "pfn", 1)
        lrc.delete_mapping("l", "p")
        lrc.create_mapping("l2", "p")
        assert lrc.get_attributes("p", "pfn") == {}

    def test_bulk_add_attribute(self, lrc):
        lrc.define_attribute("size", "pfn", "int")
        lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(3)])
        failures = lrc.bulk_add_attribute(
            [("p0", "size", 1), ("p1", "size", 2), ("ghost", "size", 3)], "pfn"
        )
        assert len(failures) == 1 and failures[0][0] == "ghost"


class TestRLITargets:
    def test_add_and_list(self, lrc):
        lrc.add_rli("rli1", bloom=True)
        lrc.add_rli("rli2", patterns=["^run1/", "^run2/"])
        targets = {t.name: t for t in lrc.rli_targets()}
        assert targets["rli1"].bloom and not targets["rli2"].bloom
        assert targets["rli2"].patterns == ("^run1/", "^run2/")

    def test_duplicate_rejected(self, lrc):
        lrc.add_rli("rli1")
        with pytest.raises(UpdateTargetError):
            lrc.add_rli("rli1")

    def test_remove(self, lrc):
        lrc.add_rli("rli1", patterns=["x"])
        lrc.remove_rli("rli1")
        assert lrc.rli_targets() == []

    def test_remove_missing_raises(self, lrc):
        with pytest.raises(UpdateTargetError):
            lrc.remove_rli("ghost")


def watch(lrc):
    """An update manager folding ``lrc``'s log from here on (an RLI is
    registered, so it reads the log)."""
    lrc.add_rli("watcher")
    return UpdateManager(lrc, lambda name: NullSink())


class TestChangeListeners:
    """A logical name's presence changes, as the update manager folds
    them off the write-ahead log."""

    def test_create_notifies_presence(self, lrc):
        manager = watch(lrc)
        lrc.create_mapping("lfn1", "pfn1")
        assert list(manager.pending().items()) == [("lfn1", True)]

    def test_add_replica_does_not_notify(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        manager = watch(lrc)
        lrc.add_mapping("lfn1", "pfn2")
        assert list(manager.pending().items()) == []

    def test_partial_delete_does_not_notify(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        lrc.add_mapping("lfn1", "pfn2")
        manager = watch(lrc)
        lrc.delete_mapping("lfn1", "pfn1")
        assert list(manager.pending().items()) == []

    def test_last_delete_notifies_absence(self, lrc):
        lrc.create_mapping("lfn1", "pfn1")
        manager = watch(lrc)
        lrc.delete_mapping("lfn1", "pfn1")
        assert list(manager.pending().items()) == [("lfn1", False)]


class TestObjTypeAttrTypeParsing:
    def test_objtype_aliases(self):
        assert ObjType.parse("logical") is ObjType.LFN
        assert ObjType.parse("target") is ObjType.PFN
        assert ObjType.parse(0) is ObjType.LFN
        assert ObjType.parse(ObjType.PFN) is ObjType.PFN

    def test_objtype_invalid(self):
        with pytest.raises(InvalidAttributeError):
            ObjType.parse("banana")

    def test_attrtype_aliases(self):
        assert AttrType.parse("string") is AttrType.STR
        assert AttrType.parse("double") is AttrType.FLOAT
        assert AttrType.parse("timestamp") is AttrType.DATE

    def test_attrtype_invalid(self):
        with pytest.raises(InvalidAttributeError):
            AttrType.parse("blob")
