"""Seeded inputs and the oracle that knows every expected answer.

Everything the program under test sees — logical names, target names,
the order they are drawn in, which names are absent, the operation mix —
is generated here from ``--seed`` with :class:`random.Random` seeded by
strings, so the output is identical under any ``PYTHONHASHSEED`` and no
set or dict iteration order leaks into it.  The same module builds, for
every call a workload will make, the answer a correct server must give;
a workload only compares.

This module does not import the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

#: LFNs (one PFN each) loaded into an LRC before measuring.
LRC_SIZE = 20_000
#: LFNs in each LRC of the soft-state workload.
SOFTSTATE_LRC_SIZE = 5_000
#: Bloom filters held by the RLI of ``rli_bloom_query`` and names in each.
BLOOM_LRCS = 10
BLOOM_LRC_SIZE = 20_000
#: Share of ``rli_bloom_query`` calls that ask for a name no LRC holds.
ABSENT_SHARE = 0.10
#: Names per bulk request.
BULK_SIZE = 1000
#: ``cluster_mixed`` block: 18 queries, 1 create, 1 delete of that create.
MIX_BLOCK = 20


class Inputs:
    """Name and draw generator for one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        # Names carry a seed-derived tag, so two seeds share no name.
        self.tag = f"{self.rng('tag').getrandbits(32):08x}"

    def rng(self, stream: str) -> random.Random:
        """An independent generator per named stream (string seeds hash
        with SHA-512, independent of ``PYTHONHASHSEED``)."""
        return random.Random(f"rlsbench/{self.seed}/{stream}")

    def lfn(self, space: str, i: int) -> str:
        return f"lfn://{self.tag}.rlsbench/{space}/{i:07d}"

    def pfn(self, space: str, i: int) -> str:
        return f"gsiftp://se{i % 16:02d}.{self.tag}.rlsbench/{space}/{i:07d}"

    def pairs(self, space: str, n: int, start: int = 0) -> list[tuple[str, str]]:
        return [
            (self.lfn(space, i), self.pfn(space, i))
            for i in range(start, start + n)
        ]

    def lfns(self, space: str, n: int) -> list[str]:
        return [self.lfn(space, i) for i in range(n)]

    def draws(self, stream: str, population: int, n: int) -> list[int]:
        """``n`` uniform draws with replacement from ``range(population)``."""
        rng = self.rng(stream)
        return [rng.randrange(population) for _ in range(n)]


# ----------------------------------------------------------------------
# Expected answers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Raises:
    """The call must fail with the named error type."""

    error: str


@dataclass(frozen=True)
class Includes:
    """A Bloom-mode RLI answer: it must contain ``member``; any other
    entry is a Bloom false positive, which the paper allows (§3.2).
    Leaving ``member`` out is a false negative, which it does not."""

    member: str


@dataclass(frozen=True)
class Absent:
    """A name no LRC holds, asked of a Bloom-mode RLI: the right answer
    is ``MappingNotFoundError``; a list is a counted false positive."""


@dataclass(frozen=True)
class Failure:
    """What a workload records when a call raised instead of returning."""

    error: str
    message: str = ""


@dataclass(frozen=True)
class Op:
    """One call: its kind (for per-kind latency), arguments, and the
    answer the oracle expects."""

    kind: str
    args: tuple
    expect: Any


OK, WRONG, FALSE_POSITIVE, FAILED = "ok", "wrong", "false_positive", "failed"


def judge(op: Op, outcome: Any) -> str:
    """Compare what the program answered with what the oracle expects.

    ``FAILED`` is an operation the program refused or errored on although
    the oracle expected an answer; ``WRONG`` is an answer that differs.
    """
    expect = op.expect
    if isinstance(expect, Raises):
        if isinstance(outcome, Failure):
            return OK if outcome.error == expect.error else FAILED
        return WRONG
    if isinstance(expect, Absent):
        if isinstance(outcome, Failure):
            return OK if outcome.error == "MappingNotFoundError" else FAILED
        return FALSE_POSITIVE if isinstance(outcome, list) else WRONG
    if isinstance(outcome, Failure):
        return FAILED
    if isinstance(expect, Includes):
        if not isinstance(outcome, list) or expect.member not in outcome:
            return WRONG
        return OK if len(outcome) == 1 else FALSE_POSITIVE
    return OK if outcome == expect else WRONG


class CatalogModel:
    """The benchmark's own model of one logical catalog (an LRC, or the
    shards behind a combined client): LFN -> list of PFNs."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()) -> None:
        self.mappings: dict[str, list[str]] = {}
        for lfn, pfn in pairs:
            self.mappings.setdefault(lfn, []).append(pfn)

    def __len__(self) -> int:
        return len(self.mappings)

    def query(self, lfn: str) -> Op:
        pfns = self.mappings.get(lfn)
        expect = list(pfns) if pfns else Raises("MappingNotFoundError")
        return Op("query", (lfn,), expect)

    def create(self, lfn: str, pfn: str) -> Op:
        if lfn in self.mappings:
            return Op("add", (lfn, pfn), Raises("MappingExistsError"))
        self.mappings[lfn] = [pfn]
        return Op("add", (lfn, pfn), None)

    def delete(self, lfn: str, pfn: str) -> Op:
        pfns = self.mappings.get(lfn)
        if not pfns or pfn not in pfns:
            return Op("delete", (lfn, pfn), Raises("MappingNotFoundError"))
        pfns.remove(pfn)
        if not pfns:
            del self.mappings[lfn]
        return Op("delete", (lfn, pfn), None)

    def bulk_create(self, pairs: Sequence[tuple[str, str]]) -> Op:
        for lfn, pfn in pairs:
            if lfn in self.mappings:
                raise ValueError("bulk inputs are generated fresh")
            self.mappings[lfn] = [pfn]
        return Op("bulk_add", (list(pairs),), [])

    def bulk_query(self, lfns: Sequence[str]) -> Op:
        found = {
            lfn: list(self.mappings[lfn]) for lfn in lfns if lfn in self.mappings
        }
        return Op("bulk_query", (list(lfns),), found)

    def bulk_delete(self, pairs: Sequence[tuple[str, str]]) -> Op:
        for lfn, _pfn in pairs:
            del self.mappings[lfn]
        return Op("bulk_delete", (list(pairs),), [])


# ----------------------------------------------------------------------
# Per-workload plans: the calls of one segment, in order
# ----------------------------------------------------------------------


def plan_queries(
    inputs: Inputs, model: CatalogModel, space: str, size: int,
    segment: int, n: int,
) -> list[Op]:
    """``n`` point queries on uniformly drawn present names."""
    return [
        model.query(inputs.lfn(space, i))
        for i in inputs.draws(f"query/{space}/{segment}", size, n)
    ]


def plan_writes(
    inputs: Inputs, model: CatalogModel, segment: int, n_pairs: int
) -> list[Op]:
    """``n_pairs`` creates of fresh names, each followed by its delete."""
    ops: list[Op] = []
    for lfn, pfn in inputs.pairs(f"write{segment}", n_pairs):
        ops.append(model.create(lfn, pfn))
        ops.append(model.delete(lfn, pfn))
    return ops


def plan_bulk(
    inputs: Inputs, model: CatalogModel, segment: int, cycles: int
) -> list[Op]:
    """``cycles`` of bulk create -> bulk query -> bulk delete of
    :data:`BULK_SIZE` fresh names."""
    ops: list[Op] = []
    for cycle in range(cycles):
        pairs = inputs.pairs(f"bulk{segment}", BULK_SIZE, start=cycle * BULK_SIZE)
        ops.append(model.bulk_create(pairs))
        ops.append(model.bulk_query([lfn for lfn, _ in pairs]))
        ops.append(model.bulk_delete(pairs))
    return ops


def bloom_site(j: int) -> str:
    return f"site{j:02d}"


def bloom_lrc(j: int) -> str:
    return f"lrc{j:02d}"


def plan_rli_queries(inputs: Inputs, segment: int, n: int) -> list[Op]:
    """``n`` RLI queries; :data:`ABSENT_SHARE` of them for absent names."""
    rng = inputs.rng(f"rli/{segment}")
    ops: list[Op] = []
    for k in range(n):
        if rng.random() < ABSENT_SHARE:
            name = inputs.lfn(f"absent{segment}", k)
            ops.append(Op("rli_query", (name,), Absent()))
        else:
            j = rng.randrange(BLOOM_LRCS)
            name = inputs.lfn(bloom_site(j), rng.randrange(BLOOM_LRC_SIZE))
            ops.append(Op("rli_query", (name,), Includes(bloom_lrc(j))))
    return ops


def plan_mixed(
    inputs: Inputs, model: CatalogModel, space: str, size: int,
    segment: int, n: int,
) -> list[Op]:
    """90% queries, 5% creates, 5% deletes of an earlier create, in
    blocks of :data:`MIX_BLOCK` so the catalog size is restored."""
    rng = inputs.rng(f"mixed/{segment}")
    fresh = inputs.pairs(f"mixed{segment}", n // MIX_BLOCK + 1)
    ops: list[Op] = []
    for block in range(n // MIX_BLOCK):
        create_at, delete_at = sorted(rng.sample(range(MIX_BLOCK), 2))
        lfn, pfn = fresh[block]
        for slot in range(MIX_BLOCK):
            if slot == create_at:
                ops.append(model.create(lfn, pfn))
            elif slot == delete_at:
                ops.append(model.delete(lfn, pfn))
            else:
                ops.append(model.query(inputs.lfn(space, rng.randrange(size))))
    return ops
