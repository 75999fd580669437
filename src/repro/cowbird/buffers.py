"""Cowbird's lock-free circular buffers (Section 4.2, Figure 4).

Three rings live in compute-node registered memory:

* the **request metadata ring** — fixed 32-byte entries (R1: trivially
  parsed by packet-centric devices),
* the **request data ring** — raw write payloads, no per-entry metadata,
* the **response data ring** — raw read results, appended by the engine.

Pointers are monotonically increasing counters (entries or bytes since
start); the ring offset is ``pointer % capacity``.  Data-ring
allocations never wrap around the end of the buffer: if an entry would
straddle the boundary, the allocator skips the leftover bytes
(:func:`skip_pad`).  Producer and consumer apply the same deterministic
rule, so the offload engine can follow the client's cursor from lengths
alone — no extra coordination messages (R2/R3); the engine side is
:func:`repro.cowbird.engine_core.place`.
"""

from __future__ import annotations

from repro.cowbird.wire import METADATA_ENTRY_BYTES, RequestMetadata
from repro.memory.region import MemoryRegion

__all__ = ["DataRing", "MetadataRing", "RingFullError", "skip_pad"]


class RingFullError(Exception):
    """No space: the caller should retry after consuming completions."""


def skip_pad(tail: int, length: int, capacity: int) -> int:
    """Padding inserted before an allocation so it never wraps.

    >>> skip_pad(900, 200, 1024)   # 900+200 > 1024: skip to boundary
    124
    >>> skip_pad(100, 200, 1024)
    0
    """
    offset = tail % capacity
    if offset + length > capacity:
        return capacity - offset
    return 0


class MetadataRing:
    """The request metadata ring: fixed-size entries, one per request."""

    ENTRY_BYTES = METADATA_ENTRY_BYTES

    def __init__(self, region: MemoryRegion, base_addr: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        needed = capacity * self.ENTRY_BYTES
        if not region.contains(base_addr, needed):
            raise ValueError(
                f"ring of {needed} bytes does not fit region at {base_addr:#x}"
            )
        self.region = region
        self.base_addr = base_addr
        self.capacity = capacity
        #: Client-side pointers: tail is owned locally, head mirrors the
        #: engine-written red block.
        self.tail = 0
        self.head = 0

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self.capacity * self.ENTRY_BYTES

    def free_entries(self) -> int:
        return self.capacity - (self.tail - self.head)

    def addr_of(self, index: int) -> int:
        """Address of the entry at monotonic ``index``."""
        return self.base_addr + (index % self.capacity) * self.ENTRY_BYTES

    # ------------------------------------------------------------------
    def append(self, entry: RequestMetadata) -> int:
        """Write ``entry`` at the tail; return its monotonic index.

        Raises :class:`RingFullError` when the engine has not yet freed
        space (the paper's API returns an error telling the app to retry
        after processing existing responses).
        """
        # free_entries() and addr_of(), inlined: one append per request.
        index = self.tail
        capacity = self.capacity
        if index - self.head >= capacity:
            raise RingFullError(
                f"metadata ring full ({capacity} entries outstanding)"
            )
        self.region.write(
            self.base_addr + (index % capacity) * self.ENTRY_BYTES, entry.pack()
        )
        self.tail = index + 1
        return index

    def read_entry(self, index: int) -> RequestMetadata:
        """Local parse of the entry at monotonic ``index``."""
        raw = self.region.read(self.addr_of(index), self.ENTRY_BYTES)
        return RequestMetadata.unpack(raw)

    def advance_head(self, new_head: int) -> None:
        """Adopt the engine-published head (frees ring space)."""
        if new_head < self.head or new_head > self.tail:
            raise ValueError(
                f"head must move forward within [{self.head}, {self.tail}]: {new_head}"
            )
        self.head = new_head


class DataRing:
    """A byte ring for raw payloads (request data / response data)."""

    def __init__(self, region: MemoryRegion, base_addr: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not region.contains(base_addr, capacity):
            raise ValueError(
                f"ring of {capacity} bytes does not fit region at {base_addr:#x}"
            )
        self.region = region
        self.base_addr = base_addr
        self.capacity = capacity
        self.tail = 0
        self.head = 0

    # ------------------------------------------------------------------
    def free_bytes(self) -> int:
        return self.capacity - (self.tail - self.head)

    def addr_at(self, pointer: int) -> int:
        return self.base_addr + (pointer % self.capacity)

    # ------------------------------------------------------------------
    def reserve(self, length: int) -> int:
        """Allocate ``length`` contiguous bytes; return their address.

        Applies the no-wrap rule, advancing the tail past boundary
        padding first.  Raises :class:`RingFullError` when the payload
        (plus any padding) does not fit.
        """
        if length <= 0:
            raise ValueError(f"allocation length must be positive: {length}")
        capacity = self.capacity
        # Cap allocations at half the ring so boundary padding (counted
        # as occupancy by the conservative full-check below) can never
        # make an allocation permanently unsatisfiable.
        if length > capacity // 2:
            raise ValueError(
                f"allocation of {length} bytes exceeds half the ring "
                f"capacity ({capacity})"
            )
        tail = self.tail
        offset = tail % capacity
        # skip_pad, inlined: one reservation per request.
        pad = capacity - offset if offset + length > capacity else 0
        if tail - self.head + pad + length > capacity:
            raise RingFullError(
                f"data ring full ({self.free_bytes()} free, need {pad + length})"
            )
        tail += pad
        addr = self.base_addr + (tail % capacity)  # addr_at(tail)
        self.tail = tail + length
        return addr

    def write(self, addr: int, payload: bytes) -> None:
        """Store ``payload`` at a previously reserved address."""
        self.region.write(addr, payload)

    def read(self, addr: int, length: int) -> bytes:
        return self.region.read(addr, length)

    def advance_head(self, new_head: int) -> None:
        """Consume through ``new_head`` (monotonic byte pointer)."""
        if new_head < self.head or new_head > self.tail:
            raise ValueError(
                f"head must move forward within [{self.head}, {self.tail}]: {new_head}"
            )
        self.head = new_head

