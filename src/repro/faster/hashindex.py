"""FASTER's hash index: key -> hybrid-log address.

The real index is an array of cache-line-sized buckets holding
(tag, address) entries with lock-free CAS updates.  We keep the mapping
in one dict and derive bucket occupancy from the key set on demand, so
collision behaviour stays observable.  Python-level operations stand in
for the atomics; their CPU cost is charged from the cost model by the
store layer, never from the bucket layout.

A bulk load of consecutive integer keys onto consecutive log pages costs
the dict nothing: :meth:`HashIndex.insert_pages` keeps such a load as one
run, whose addresses follow from the key by arithmetic.  Dict entries
take precedence over runs; a deleted run key stays in the dict as a
``None`` tombstone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, filterfalse, islice, repeat
from operator import eq
from typing import Iterator, Optional

__all__ = ["HashIndex"]

_UNSET = object()


def _mix64(value: int) -> int:
    """SplitMix64 finalizer — the index's hash function."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFF_FFFF_FFFF_FFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFF_FFFF_FFFF_FFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFF_FFFF_FFFF_FFFF
    return value ^ (value >> 31)


class HashIndex:
    """A hash index mapping keys to log addresses, sized in buckets."""

    BUCKET_ENTRIES = 8

    def __init__(self, num_buckets: int = 1 << 16) -> None:
        if num_buckets < 1 or (num_buckets & (num_buckets - 1)) != 0:
            raise ValueError(f"num_buckets must be a power of two: {num_buckets}")
        self.num_buckets = num_buckets
        #: key -> address, or None for a deleted run key.
        self._addresses: dict[int, Optional[int]] = {}
        #: Disjoint runs in key order, each ``(first key, count, first
        #: address, records per page, page bytes, record bytes)``: key
        #: ``first + j`` is at ``first address + (j // per page) * page
        #: bytes + (j % per page) * record bytes``.  ``_run_starts`` holds
        #: their first keys for :func:`bisect`.
        self._runs: list[tuple] = []
        self._run_starts: list[int] = []

    def get(self, key: int) -> Optional[int]:
        """Latest log address for ``key``, or None."""
        address = self._addresses.get(key, _UNSET)
        if address is not _UNSET:
            return address
        if self._runs and isinstance(key, int):
            i = bisect_right(self._run_starts, key) - 1
            if i >= 0:
                first, count, address, per_page, page_bytes, record_bytes = self._runs[i]
                j = key - first
                if j < count:
                    page, slot = divmod(j, per_page)
                    return address + page * page_bytes + slot * record_bytes
        return None

    def upsert(self, key: int, address: int) -> None:
        """Point ``key`` at ``address`` (a newer log position)."""
        self._addresses[key] = address

    def insert_pages(
        self, keys, first_addr: int, per_page: int, page_bytes: int,
        record_bytes: int, start: int = 0, stop: Optional[int] = None,
    ) -> None:
        """Upsert ``keys[start:stop]`` at records laid out ``per_page`` to
        a page from ``first_addr`` on: ``keys[start + j]`` at ``first_addr +
        (j // per_page) * page_bytes + (j % per_page) * record_bytes``.
        The keys are read in place, never copied.

        Consecutive ascending integer keys that no entry or run holds yet
        become one run (merged into the run before them when keys and
        addresses continue it).  Any other keys go into the dict, as
        upserts in order would put them (a repeated key keeps its last
        address).
        """
        if stop is None:
            stop = len(keys)
        count = stop - start
        if count <= 0:
            return
        lo, last = keys[start], keys[stop - 1]
        if (
            isinstance(lo, int) and isinstance(last, int)
            and last - lo == count - 1
            and all(map(eq, islice(keys, start, stop), range(lo, lo + count)))
            and self._addresses.keys().isdisjoint(range(lo, lo + count))
        ):
            i = bisect_left(self._run_starts, lo + count)
            previous = self._runs[i - 1] if i else None
            if previous is None or previous[0] + previous[1] <= lo:
                geometry = (per_page, page_bytes, record_bytes)
                if (
                    previous is not None
                    and previous[0] + previous[1] == lo
                    and previous[3:] == geometry
                    and previous[1] % per_page == 0
                    and previous[2] + previous[1] // per_page * page_bytes == first_addr
                ):
                    self._runs[i - 1] = (previous[0], previous[1] + count) + previous[2:]
                else:
                    self._runs.insert(i, (lo, count, first_addr) + geometry)
                    self._run_starts.insert(i, lo)
                return
        used = per_page * record_bytes
        last_addr = first_addr + -(-count // per_page) * page_bytes
        addresses = chain.from_iterable(map(
            range, range(first_addr, last_addr, page_bytes),
            range(first_addr + used, last_addr + used, page_bytes),
            repeat(record_bytes),
        ))
        self._addresses.update(zip(islice(keys, start, stop), addresses))

    def _in_run(self, key) -> bool:
        if not self._runs or not isinstance(key, int):
            return False
        i = bisect_right(self._run_starts, key) - 1
        return i >= 0 and key - self._runs[i][0] < self._runs[i][1]

    def delete(self, key: int) -> bool:
        if self._in_run(key):
            address = self._addresses.get(key, _UNSET)
            self._addresses[key] = None
            return address is not None
        return self._addresses.pop(key, None) is not None

    def __contains__(self, key: int) -> bool:
        address = self._addresses.get(key, _UNSET)
        if address is not _UNSET:
            return address is not None
        return self._in_run(key)

    def __len__(self) -> int:
        size = len(self._addresses)
        if self._runs:
            size += sum(run[1] for run in self._runs)
            for key, address in self._addresses.items():
                if self._in_run(key):  # counted in its run already
                    size -= 1 if address is not None else 2
        return size

    def keys(self) -> Iterator[int]:
        """Every key the index holds, once each, in no set order."""
        entries = self._addresses
        if not self._runs:
            return iter(entries)
        return chain(
            (key for key, address in entries.items() if address is not None),
            filterfalse(entries.__contains__, chain.from_iterable(
                range(run[0], run[0] + run[1]) for run in self._runs
            )),
        )

    @property
    def collision_overflow(self) -> int:
        """Entries beyond ``BUCKET_ENTRIES`` in their bucket.

        Real FASTER chains these into overflow buckets.  Derived from the
        current key set, so deleting a key from an overfull bucket lowers
        it.
        """
        mask = self.num_buckets - 1
        occupancy = Counter(_mix64(key) & mask for key in self.keys())
        return sum(max(0, n - self.BUCKET_ENTRIES) for n in occupancy.values())

    def load_factor(self) -> float:
        return len(self) / (self.num_buckets * self.BUCKET_ENTRIES)
