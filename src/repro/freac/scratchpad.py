"""Scratchpads built from locked LLC ways (paper Sec. III-D).

"By locking-out ways in the cache, we allow the CC Ctrl to route
accelerator loads and stores to the sub-arrays in the ways reserved
for the scratchpad."  Words are interleaved across the way's
sub-arrays so that, as in the paper, up to 32 bytes per way are
activated per access while delivery over the shared data bus is
serialised (the timing model charges that serialisation).

The scratchpad is word-addressable (32-bit) for the accelerators and
byte-fillable for the host, which initialises data *directly* into it
to skip a copy (Fig. 5 step 5).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import CapacityError, DeviceError
from .compute_slice_types import WayHandle


class Scratchpad:
    """Word-addressable storage over one or more locked ways."""

    def __init__(self, ways: Sequence["WayHandle"]) -> None:
        if not ways:
            raise DeviceError("a scratchpad needs at least one locked way")
        self._ways = list(ways)
        first = self._ways[0]
        self._subarrays_per_way = len(first.subarrays)
        self._rows = first.subarrays[0].rows
        for way in self._ways:
            if len(way.subarrays) != self._subarrays_per_way:
                raise DeviceError("scratchpad ways must be homogeneous")
        self._words_per_way = self._subarrays_per_way * self._rows
        self.reads = 0
        self.writes = 0

    @property
    def words(self) -> int:
        return self._words_per_way * len(self._ways)

    @property
    def size_bytes(self) -> int:
        return self.words * 4

    def _route(self, word_index: int):
        if not 0 <= word_index < self.words:
            raise CapacityError(
                f"scratchpad word {word_index} out of range (capacity "
                f"{self.words} words / {self.size_bytes} bytes)"
            )
        way = self._ways[word_index // self._words_per_way]
        local = word_index % self._words_per_way
        # Interleave consecutive words across the way's sub-arrays so a
        # way can activate them in lock-step.
        subarray = way.subarrays[local % self._subarrays_per_way]
        row = local // self._subarrays_per_way
        return subarray, row

    def read_word(self, word_index: int) -> int:
        subarray, row = self._route(word_index)
        self.reads += 1
        return subarray.read_row(row)

    def write_word(self, word_index: int, value: int) -> None:
        subarray, row = self._route(word_index)
        self.writes += 1
        subarray.write_row(row, value & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    # Batched access (compiled plans, host fills) — docs/execution.md
    # ------------------------------------------------------------------

    def _route_batch(self, addresses: np.ndarray):
        """Batched :meth:`_route`: (subarray-group key, row) arrays."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and (
            addresses.min() < 0 or addresses.max() >= self.words
        ):
            bad = int(addresses.min() if addresses.min() < 0
                      else addresses.max())
            raise CapacityError(
                f"scratchpad word {bad} out of range (capacity "
                f"{self.words} words / {self.size_bytes} bytes)"
            )
        local = addresses % self._words_per_way
        group = (
            (addresses // self._words_per_way) * self._subarrays_per_way
            + local % self._subarrays_per_way
        )
        rows = local // self._subarrays_per_way
        return addresses, group, rows

    def _subarray_of(self, group_key: int):
        way = self._ways[group_key // self._subarrays_per_way]
        return way.subarrays[group_key % self._subarrays_per_way]

    def read_words_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Gather many words at once; accounting matches word-at-a-time.

        One access is charged per address on both the scratchpad and
        the owning sub-arrays, exactly as ``len(addresses)`` calls to
        :meth:`read_word` would.
        """
        addresses, group, rows = self._route_batch(addresses)
        self.reads += int(addresses.size)
        out = np.zeros(addresses.size, dtype=np.uint32)
        for key in np.unique(group):
            mask = group == key
            out[mask] = self._subarray_of(int(key)).gather_rows(rows[mask])
        return out

    def write_words_batch(self, addresses: np.ndarray,
                          values: np.ndarray) -> None:
        """Scatter many words at once; later duplicates win."""
        addresses, group, rows = self._route_batch(addresses)
        values = np.asarray(values, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
        self.writes += int(addresses.size)
        for key in np.unique(group):
            mask = group == key
            self._subarray_of(int(key)).scatter_rows(rows[mask], values[mask])

    # ------------------------------------------------------------------
    # Host-side bulk operations
    # ------------------------------------------------------------------

    def fill_words(self, start_word: int, values: Sequence[int]) -> None:
        """Host initialisation path: store a run of words.

        Implemented as one batched scatter; the accounting is the
        word-at-a-time model's (one write per word).
        """
        data = np.asarray(list(values), dtype=np.uint64)
        if data.size == 0:
            return
        addresses = start_word + np.arange(data.size, dtype=np.int64)
        self.write_words_batch(addresses, data)

    def fill_bytes(self, start_byte: int, data: bytes) -> None:
        if start_byte % 4 or len(data) % 4:
            raise DeviceError("scratchpad fills must be word-aligned")
        words = np.frombuffer(data, dtype="<u4")
        self.fill_words(start_byte // 4, [int(w) for w in words])

    def dump_words(self, start_word: int, count: int) -> List[int]:
        if count == 0:
            return []
        addresses = start_word + np.arange(count, dtype=np.int64)
        return [int(w) for w in self.read_words_batch(addresses)]

    def dump_bytes(self, start_byte: int, size: int) -> bytes:
        if start_byte % 4 or size % 4:
            raise DeviceError("scratchpad dumps must be word-aligned")
        words = self.dump_words(start_byte // 4, size // 4)
        return b"".join(int(w).to_bytes(4, "little") for w in words)

    @property
    def access_count(self) -> int:
        return self.reads + self.writes
