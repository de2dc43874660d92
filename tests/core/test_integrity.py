"""Integrity-checker tests: healthy catalogs pass, corruption is found."""

import pytest

from repro.core.config import ServerRole
from repro.core.client import connect
from repro.core.lrc import LocalReplicaCatalog
from repro.db.mysql_engine import MySQLEngine
from repro.db.odbc import Connection
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import INT, VARCHAR


@pytest.fixture
def lrc():
    engine = MySQLEngine(flush_on_commit=False, sync_latency=0.0)
    catalog = LocalReplicaCatalog(Connection(engine, "vi"), name="vi")
    catalog.init_schema()
    return catalog


class TestTableCheckIntegrity:
    def make(self):
        schema = TableSchema(
            "t",
            [Column("id", INT, nullable=False, autoincrement=True),
             Column("name", VARCHAR(50), nullable=False)],
            primary_key=("id",),
            unique=[("name",)],
        )
        return Table(schema)

    def test_healthy_table(self):
        t = self.make()
        for i in range(10):
            t.insert({"name": f"n{i}"})
        assert t.check_integrity() == []

    def test_detects_missing_index_entry(self):
        t = self.make()
        rid, row = t.insert({"name": "a"})
        # Corrupt: remove the index entry behind the table's back.
        idx = t.find_hash_index(("name",))
        idx.remove("a", rid)  # a one-column index is keyed by the value
        problems = t.check_integrity()
        assert any("missing from index" in p for p in problems)

    def test_detects_dangling_index_entry(self):
        t = self.make()
        rid, row = t.insert({"name": "a"})
        idx = t.find_hash_index(("name",))
        idx.insert("ghost", 999_999)
        problems = t.check_integrity()
        assert any("ghost" in p for p in problems)

    def test_healthy_after_churn_and_vacuum(self):
        t = Table(
            TableSchema(
                "t",
                [Column("id", INT, nullable=False, autoincrement=True),
                 Column("name", VARCHAR(50), nullable=False)],
                primary_key=("id",),
                unique=[("name",)],
            ),
            eager_index_cleanup=False,
        )
        for round_no in range(5):
            rid, _ = t.insert({"name": "hot"})
            t.delete_rid(rid)
        assert t.check_integrity() == []
        t.vacuum()
        assert t.check_integrity() == []


class TestCatalogVerify:
    def test_healthy_catalog(self, lrc):
        lrc.bulk_create([(f"l{i}", f"p{i}") for i in range(10)])
        lrc.add_mapping("l0", "p-extra")
        lrc.define_attribute("size", "pfn", "int")
        lrc.add_attribute("p0", "size", "pfn", 1)
        assert lrc.verify_integrity() == []

    def test_healthy_after_bulk_load(self, lrc):
        lrc.bulk_load([("a", "p1"), ("a", "p2"), ("b", "p1")])
        assert lrc.verify_integrity() == []

    def test_healthy_after_churn(self, lrc):
        pairs = [(f"c{i}", f"p{i}") for i in range(20)]
        lrc.bulk_create(pairs)
        lrc.bulk_delete(pairs[:10])
        assert lrc.verify_integrity() == []

    def test_detects_bad_ref_count(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.conn.execute("UPDATE t_lfn SET ref = ? WHERE name = ?", [99, "l"])
        problems = lrc.verify_integrity()
        assert any("ref=99" in p for p in problems)

    def test_detects_orphaned_name(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.conn.execute("DELETE FROM t_map")
        problems = lrc.verify_integrity()
        assert any("orphaned" in p for p in problems)

    def test_detects_dangling_map_row(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.conn.execute("DELETE FROM t_lfn")
        problems = lrc.verify_integrity()
        assert any("missing lfn id" in p for p in problems)

    def test_detects_dangling_attribute(self, lrc):
        lrc.create_mapping("l", "p")
        lrc.define_attribute("size", "pfn", "int")
        lrc.add_attribute("p", "size", "pfn", 1)
        lrc.conn.execute("DELETE FROM t_attribute")
        problems = lrc.verify_integrity()
        assert any("missing attribute definition" in p for p in problems)


class TestVerifyOverRPC:
    def test_client_verify(self, make_server):
        server = make_server(ServerRole.LRC)
        client = connect(server.config.name)
        client.bulk_create([("a", "p1"), ("b", "p2")])
        assert client.verify() == []
        client.close()

    def test_cli_verify(self, make_server):
        import io

        from repro.cli import main

        server = make_server(ServerRole.LRC)
        out = io.StringIO()
        code = main(
            ["admin", "--server", server.config.name, "verify"], out=out
        )
        assert code == 0 and "catalog healthy" in out.getvalue()
