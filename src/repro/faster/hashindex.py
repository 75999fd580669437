"""FASTER's hash index: key -> hybrid-log address.

The real index is an array of cache-line-sized buckets holding
(tag, address) entries with lock-free CAS updates.  We keep the mapping
in one dict and derive bucket occupancy from the key set on demand, so
collision behaviour stays observable.  Python-level operations stand in
for the atomics; their CPU cost is charged from the cost model by the
store layer, never from the bucket layout.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional

__all__ = ["HashIndex"]


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
        self._addresses: dict[int, int] = {}

    def get(self, key: int) -> Optional[int]:
        """Latest log address for ``key``, or None."""
        return self._addresses.get(key)

    def upsert(self, key: int, address: int) -> None:
        """Point ``key`` at ``address`` (a newer log position)."""
        self._addresses[key] = address

    def update(self, entries: Iterable[tuple[int, int]]) -> None:
        """Upsert ``(key, address)`` pairs in order; a repeated key keeps
        its last address."""
        self._addresses.update(entries)

    def delete(self, key: int) -> bool:
        return self._addresses.pop(key, None) is not None

    def __contains__(self, key: int) -> bool:
        return key in self._addresses

    def __len__(self) -> int:
        return len(self._addresses)

    def keys(self) -> Iterator[int]:
        return iter(self._addresses)

    @property
    def collision_overflow(self) -> int:
        """Entries beyond ``BUCKET_ENTRIES`` in their bucket.

        Real FASTER chains these into overflow buckets.  Derived from the
        current key set, so deleting a key from an overfull bucket lowers
        it.
        """
        mask = self.num_buckets - 1
        occupancy = Counter(_mix64(key) & mask for key in self._addresses)
        return sum(max(0, n - self.BUCKET_ENTRIES) for n in occupancy.values())

    def load_factor(self) -> float:
        return len(self._addresses) / (self.num_buckets * self.BUCKET_ENTRIES)
