import os
import subprocess
import sys
from pathlib import Path

import inputs as gen

BENCH_DIR = Path(__file__).resolve().parents[1]

DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import inputs as gen
inp = gen.Inputs(11)
model = gen.CatalogModel(inp.pairs("main", 500))
plans = [
    gen.plan_queries(inp, model, "main", 500, 1, 200),
    gen.plan_writes(inp, model, 1, 50),
    gen.plan_bulk(inp, model, 1, 1),
    gen.plan_rli_queries(inp, 1, 200),
    gen.plan_mixed(inp, model, "main", 500, 1, 200),
]
print(hashlib.sha256(repr(plans).encode()).hexdigest())
"""


def _digest(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, str(BENCH_DIR)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()


def test_same_seed_same_inputs_under_any_hash_seed():
    assert _digest("0") == _digest("12345") == _digest("random")


def test_seed_changes_names_and_draws():
    a, b = gen.Inputs(1), gen.Inputs(2)
    assert a.pairs("main", 3) == gen.Inputs(1).pairs("main", 3)
    assert not set(a.lfns("main", 50)) & set(b.lfns("main", 50))
    assert a.draws("q", 1000, 50) != b.draws("q", 1000, 50)
    assert a.draws("q", 1000, 50) != a.draws("r", 1000, 50)


def test_plans_restore_the_catalog_and_keep_the_op_mix():
    inp = gen.Inputs(5)
    model = gen.CatalogModel(inp.pairs("main", 100))
    ops = gen.plan_mixed(inp, model, "main", 100, 1, 400)
    kinds = [op.kind for op in ops]
    assert len(ops) == 400
    assert kinds.count("add") == kinds.count("delete") == 20
    assert kinds.count("query") == 360
    assert len(model) == 100
    assert all(op.expect is None for op in ops if op.kind != "query")
    gen.plan_writes(inp, model, 1, 30)
    gen.plan_bulk(inp, model, 1, 2)
    assert len(model) == 100
    share = sum(
        isinstance(op.expect, gen.Absent) for op in gen.plan_rli_queries(inp, 1, 5000)
    ) / 5000
    assert 0.08 < share < 0.12


def test_oracle_catches_a_wrong_answer():
    inp = gen.Inputs(3)
    (lfn, pfn), (other_lfn, other_pfn) = inp.pairs("main", 2)
    model = gen.CatalogModel([(lfn, pfn), (other_lfn, other_pfn)])
    query = model.query(lfn)
    assert gen.judge(query, [pfn]) == gen.OK
    assert gen.judge(query, [other_pfn]) == gen.WRONG
    assert gen.judge(query, []) == gen.WRONG
    assert gen.judge(query, gen.Failure("MappingNotFoundError")) == gen.FAILED
    missing = model.query(inp.lfn("nowhere", 0))
    assert gen.judge(missing, gen.Failure("MappingNotFoundError")) == gen.OK
    assert gen.judge(missing, [pfn]) == gen.WRONG
    bulk = model.bulk_query([lfn, other_lfn])
    assert gen.judge(bulk, {lfn: [pfn], other_lfn: [other_pfn]}) == gen.OK
    assert gen.judge(bulk, {lfn: [pfn]}) == gen.WRONG
    created = model.create(inp.lfn("new", 0), inp.pfn("new", 0))
    assert gen.judge(created, None) == gen.OK
    assert gen.judge(created, gen.Failure("MappingExistsError")) == gen.FAILED


def test_bloom_answers_false_positive_allowed_false_negative_not():
    held = gen.Op("rli_query", ("x",), gen.Includes("lrc03"))
    assert gen.judge(held, ["lrc03"]) == gen.OK
    assert gen.judge(held, ["lrc01", "lrc03"]) == gen.FALSE_POSITIVE
    assert gen.judge(held, ["lrc01"]) == gen.WRONG
    assert gen.judge(held, gen.Failure("MappingNotFoundError")) == gen.FAILED
    absent = gen.Op("rli_query", ("y",), gen.Absent())
    assert gen.judge(absent, gen.Failure("MappingNotFoundError")) == gen.OK
    assert gen.judge(absent, ["lrc07"]) == gen.FALSE_POSITIVE
    assert gen.judge(absent, gen.Failure("TransportClosedError")) == gen.FAILED
