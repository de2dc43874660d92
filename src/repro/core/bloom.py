"""Bloom filters for compressed soft-state updates (§3.4).

The paper's parameters: the filter is sized at ~10 bits per LRC mapping
(e.g. 10 million bits for ~1 million entries) and each logical name sets 3
bits, giving a false-positive rate of about 1 %.

Implementation notes (per the HPC guides: vectorize the hot path):

* bitmaps are packed NumPy ``uint8`` arrays, so a 10 Mbit filter is 1.25 MB
  — the object that actually travels over the (simulated) WAN;
* per-name hashing uses BLAKE2b digests split into two 64-bit values,
  expanded to ``k`` probe positions by Kirsch–Mitzenmacher double hashing
  ``h_i = h1 + i*h2 (mod m)`` — deterministic across processes, so an RLI
  can test membership in a bitmap built by a remote LRC;
* batch add/query paths accumulate positions into NumPy arrays and use
  ``np.bitwise_or.at`` / vectorized bit tests instead of per-bit Python;
* single-name tests read the same buffer through a zero-copy ``memoryview``
  (Python ints, no NumPy scalars), and :class:`FilterTable` tests one name
  against many filters with one digest and one position list per distinct
  ``(num_bits, num_hashes)``.

:class:`CountingBloomFilter` is the LRC-side structure: it tracks per-bit
reference counts so mappings can be *removed* as well as added — "subsequent
updates to LRC mappings can be reflected by setting or unsetting the
corresponding bits" — and it emits the plain packed bitmap to send to RLIs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Paper defaults: ~10 bits per mapping, 3 hash functions, ≈1% false positives.
DEFAULT_BITS_PER_ENTRY = 10
DEFAULT_NUM_HASHES = 3
_MIN_BITS = 1024


def _base_hashes(name: str) -> tuple[int, int]:
    """Two independent 64-bit hashes of ``name`` (BLAKE2b, stable)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


def _positions(h1: int, h2: int, num_bits: int, num_hashes: int) -> list[int]:
    """Kirsch–Mitzenmacher probe positions from the two base hashes."""
    # Force h2 odd so the probe sequence cycles through the whole table
    # even when num_bits is even.
    h2 |= 1
    return [(h1 + i * h2) % num_bits for i in range(num_hashes)]


def probe_positions(name: str, num_bits: int, num_hashes: int) -> list[int]:
    """Bit positions set for ``name`` in a filter of ``num_bits`` bits."""
    return _positions(*_base_hashes(name), num_bits, num_hashes)


def _all_set(view: memoryview, positions: Iterable[int]) -> bool:
    """True when every position's bit is set in the packed bitmap ``view``."""
    for pos in positions:
        if not view[pos >> 3] >> (pos & 7) & 1:
            return False
    return True


def size_for_entries(
    expected_entries: int, bits_per_entry: int = DEFAULT_BITS_PER_ENTRY
) -> int:
    """Filter size in bits for an expected LRC mapping count (paper §3.4).

    Rounded up to a whole byte so the packed array is exact.
    """
    bits = max(_MIN_BITS, expected_entries * bits_per_entry)
    return (bits + 7) & ~7


def false_positive_rate(num_bits: int, num_hashes: int, num_entries: int) -> float:
    """Analytic FP estimate ``(1 - e^(-kn/m))^k``."""
    if num_entries <= 0:
        return 0.0
    return (1.0 - math.exp(-num_hashes * num_entries / num_bits)) ** num_hashes


@dataclass(frozen=True)
class BloomParameters:
    """Size and hash-count parameters shared by sender and receiver."""

    num_bits: int
    num_hashes: int = DEFAULT_NUM_HASHES

    def __post_init__(self) -> None:
        if self.num_bits <= 0 or self.num_bits % 8 != 0:
            raise ValueError("num_bits must be a positive multiple of 8")
        if self.num_hashes <= 0:
            raise ValueError("num_hashes must be positive")

    @classmethod
    def for_entries(
        cls,
        expected_entries: int,
        bits_per_entry: int = DEFAULT_BITS_PER_ENTRY,
        num_hashes: int = DEFAULT_NUM_HASHES,
    ) -> "BloomParameters":
        return cls(size_for_entries(expected_entries, bits_per_entry), num_hashes)


class BloomFilter:
    """Immutable-size packed-bit Bloom filter."""

    __slots__ = ("params", "bits", "approx_entries")

    def __init__(
        self, params: BloomParameters, bits: np.ndarray | None = None
    ) -> None:
        self.params = params
        nbytes = params.num_bits // 8
        if bits is None:
            self.bits = np.zeros(nbytes, dtype=np.uint8)
        else:
            if bits.dtype != np.uint8 or bits.shape != (nbytes,):
                raise ValueError("bitmap shape/dtype mismatch")
            self.bits = bits
        self.approx_entries = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_names(
        cls, names: Iterable[str], params: BloomParameters
    ) -> "BloomFilter":
        """Build a filter from scratch — the paper's one-time generation cost."""
        bf = cls(params)
        bf.add_batch(names)
        return bf

    def add(self, name: str) -> None:
        view = memoryview(self.bits)
        for pos in probe_positions(name, self.params.num_bits, self.params.num_hashes):
            view[pos >> 3] |= 1 << (pos & 7)
        self.approx_entries += 1

    def add_batch(self, names: Iterable[str]) -> None:
        """Vectorized bulk insert (one fancy-indexed OR over all positions)."""
        positions = self._positions_array(names)
        if positions.size == 0:
            return
        np.bitwise_or.at(
            self.bits, positions >> 3, (1 << (positions & 7)).astype(np.uint8)
        )
        self.approx_entries += positions.size // self.params.num_hashes

    def _positions_array(self, names: Iterable[str]) -> np.ndarray:
        nbits = self.params.num_bits
        k = self.params.num_hashes
        flat: list[int] = []
        extend = flat.extend
        for name in names:
            h1, h2 = _base_hashes(name)
            h2 |= 1
            extend((h1 + i * h2) % nbits for i in range(k))
        return np.asarray(flat, dtype=np.int64)

    # -- queries ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return _all_set(
            memoryview(self.bits),
            probe_positions(name, self.params.num_bits, self.params.num_hashes),
        )

    def contains_batch(self, names: Sequence[str]) -> np.ndarray:
        """Vectorized membership test; returns a bool array."""
        positions = self._positions_array(names)
        k = self.params.num_hashes
        if positions.size == 0:
            return np.zeros(0, dtype=bool)
        bit_set = (
            (self.bits[positions >> 3] >> (positions & 7).astype(np.uint8)) & 1
        ).astype(bool)
        return bit_set.reshape(-1, k).all(axis=1)

    # -- set algebra -----------------------------------------------------------

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR — used by hierarchical RLIs aggregating child state."""
        if self.params != other.params:
            raise ValueError("cannot union filters with different parameters")
        merged = BloomFilter(self.params, np.bitwise_or(self.bits, other.bits))
        merged.approx_entries = self.approx_entries + other.approx_entries
        return merged

    # -- serialization ----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.bits.nbytes

    def to_bytes(self) -> bytes:
        return self.bits.tobytes()

    @classmethod
    def from_bytes(
        cls, data: bytes, params: BloomParameters, approx_entries: int = 0
    ) -> "BloomFilter":
        array = np.frombuffer(data, dtype=np.uint8).copy()
        bf = cls(params, array)
        bf.approx_entries = approx_entries
        return bf

    def fill_ratio(self) -> float:
        """Fraction of bits set (diagnostic)."""
        return float(np.unpackbits(self.bits).mean()) if self.bits.size else 0.0


class FilterTable:
    """Immutable table of named filters, tested one name at a time.

    The RLI's read path: a query hashes the name once, derives the probe
    positions once per distinct ``(num_bits, num_hashes)`` among the
    filters (the positions differ only by ``% num_bits``), and tests each
    filter's bits with early exit.  ``BloomFilter.__contains__`` is the
    one-filter case of the same code, so both give the same answer.
    ``filters`` is the mapping the table was built from, for everything
    that is not a probe (counts, names, per-filter statistics).
    """

    __slots__ = ("filters", "_shapes", "_rows")

    def __init__(self, filters: Mapping[str, BloomFilter]) -> None:
        self.filters = filters
        shapes: dict[tuple[int, int], int] = {}
        self._rows = tuple(
            (
                key,
                memoryview(bloom.bits),
                shapes.setdefault(
                    (bloom.params.num_bits, bloom.params.num_hashes), len(shapes)
                ),
            )
            for key, bloom in filters.items()
        )
        self._shapes = tuple(shapes)

    def matching(self, name: str) -> list[str]:
        """Keys of the filters that (probably) contain ``name``, in table order."""
        h1, h2 = _base_hashes(name)
        positions = [_positions(h1, h2, *shape) for shape in self._shapes]
        return [
            key
            for key, view, shape in self._rows
            if _all_set(view, positions[shape])
        ]


#: Counter ceiling of :class:`CountingBloomFilter` (``uint16``).
_COUNT_MAX = 0xFFFF


class CountingBloomFilter:
    """Reference-counted Bloom filter supporting removal.

    Kept at the LRC so incremental mapping changes are O(k) instead of a
    full filter rebuild; :meth:`snapshot` produces the plain packed bitmap
    that goes on the wire.  Counters saturate at 65535 (uint16) — beyond any
    realistic per-bit load at 10 bits/entry.
    """

    __slots__ = ("params", "counts", "entries")

    def __init__(self, params: BloomParameters) -> None:
        self.params = params
        self.counts = np.zeros(params.num_bits, dtype=np.uint16)
        self.entries = 0

    def add(self, name: str) -> None:
        # Through a memoryview, here and below: Python ints in and out, no
        # NumPy scalar per probe.
        counts = memoryview(self.counts)
        for pos in probe_positions(name, self.params.num_bits, self.params.num_hashes):
            count = counts[pos]
            if count < _COUNT_MAX:
                counts[pos] = count + 1
        self.entries += 1

    def remove(self, name: str) -> None:
        """Unset ``name``'s bits (decrement counts).

        Removing a name that was never added corrupts the filter, exactly
        as with the real structure; callers (the LRC) only remove names
        they previously added.
        """
        counts = memoryview(self.counts)
        for pos in probe_positions(name, self.params.num_bits, self.params.num_hashes):
            count = counts[pos]
            if count > 0:
                counts[pos] = count - 1
        self.entries = max(0, self.entries - 1)

    def add_batch(self, names: Iterable[str]) -> None:
        for name in names:
            self.add(name)

    def __contains__(self, name: str) -> bool:
        counts = memoryview(self.counts)
        return all(
            counts[pos] > 0
            for pos in probe_positions(
                name, self.params.num_bits, self.params.num_hashes
            )
        )

    def snapshot(self) -> BloomFilter:
        """Packed bitmap of currently-set bits (what gets sent to an RLI)."""
        bitmap = np.packbits((self.counts > 0).astype(np.uint8), bitorder="little")
        bf = BloomFilter(self.params, bitmap)
        bf.approx_entries = self.entries
        return bf
