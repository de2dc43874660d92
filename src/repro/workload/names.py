"""Logical/target name generators.

Synthetic namespaces shaped like the production deployments in §6 of the
paper: LIGO gravitational-wave frame files, Earth System Grid climate data
and Pegasus workflow products.  All generators are deterministic (seeded)
so benchmark workloads are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence


def sequential_names(
    count: int, prefix: str = "lfn", start: int = 0, width: int = 9
) -> list[str]:
    """Plain numbered names: ``lfn000000000`` ... (the paper's load style)."""
    return [f"{prefix}{i:0{width}d}" for i in range(start, start + count)]


def ligo_names(count: int, start: int = 0) -> list[str]:
    """LIGO-style frame-file names: interferometer + GPS time + duration.

    LIGO "uses the RLS to register and query mappings between 3 million
    logical file names and 30 million physical file locations" (§6).
    """
    names = []
    detectors = ("H1", "L1", "H2")
    gps_base = 700_000_000
    for i in range(start, start + count):
        det = detectors[i % len(detectors)]
        gps = gps_base + (i // len(detectors)) * 16
        names.append(f"{det}-RDS_R_L1-{gps}-16.gwf")
    return names


def esg_names(count: int, start: int = 0) -> list[str]:
    """Earth System Grid style: model / experiment / variable / time slice."""
    models = ("ccsm3", "pcm", "cam3")
    experiments = ("b30.004", "b30.009", "20c3m")
    variables = ("TS", "PRECT", "PSL", "U850")
    names = []
    for i in range(start, start + count):
        model = models[i % len(models)]
        experiment = experiments[(i // 3) % len(experiments)]
        variable = variables[(i // 9) % len(variables)]
        year = 1870 + (i % 130)
        names.append(f"{model}/{experiment}/{variable}/{variable}_{year}01-{year}12.nc")
    return names


def pegasus_names(count: int, start: int = 0, workflow: str = "montage") -> list[str]:
    """Pegasus workflow products: workflow / job / output file."""
    return [
        f"{workflow}/job{(i // 4):06d}/output.{i % 4:d}.fits"
        for i in range(start, start + count)
    ]


def pfn_for(lfn: str, site: str = "site0", replica: int = 0) -> str:
    """Deterministic physical name for a logical name at a site."""
    return f"gsiftp://{site}.example.org/storage/r{replica}/{lfn}"


@dataclass
class MappingSet:
    """A reproducible set of (lfn, pfn) mappings for loading catalogs.

    ``replicas`` physical names are produced per logical name, spread
    round-robin over ``sites`` — e.g. LIGO's 10 PFNs per LFN.
    """

    count: int
    prefix: str = "lfn"
    replicas: int = 1
    sites: Sequence[str] = ("site0",)
    start: int = 0
    #: Default RNG seed for :meth:`random_lfns`; override per set so
    #: different benchmark runs draw distinct (but reproducible) samples.
    seed: int = 1234

    def lfns(self) -> list[str]:
        return sequential_names(self.count, self.prefix, self.start)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All (lfn, pfn) pairs, first replica first."""
        for lfn in self.lfns():
            for r in range(self.replicas):
                site = self.sites[r % len(self.sites)]
                yield lfn, pfn_for(lfn, site, r)

    def random_lfns(self, n: int, seed: int | None = None) -> list[str]:
        """Uniform sample (with replacement) of logical names to query.

        ``seed`` defaults to this set's :attr:`seed` field.
        """
        rng = random.Random(self.seed if seed is None else seed)
        width = 9
        return [
            f"{self.prefix}{rng.randrange(self.start, self.start + self.count):0{width}d}"
            for _ in range(n)
        ]
