"""FASTER's hybrid log: memory tail, read-only region, cold storage.

The log is a single logical address space [0, tail).  Three regions:

* **mutable**: [read_only_addr, tail) — in memory, updated in place,
* **read-only**: [head_addr, read_only_addr) — in memory, copy-on-update,
* **stable**: [0, head_addr) — evicted to the storage device (SSD or
  remote memory); the device offset of a record equals its log address.

When the in-memory footprint exceeds the budget the head advances: the
oldest page is scheduled for flushing and dropped once the device
acknowledges the write.  Pages being flushed still serve reads from
memory, exactly like FASTER's closed-page protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HybridLog", "HybridLogConfig"]


@dataclass
class HybridLogConfig:
    """Sizing of the hybrid log."""

    page_bits: int = 15  # 32 KB pages
    #: In-memory page budget (the paper's 5 GB / 1 GB local-log knobs).
    memory_pages: int = 64
    #: Fraction of in-memory space kept mutable (rest is read-only).
    mutable_fraction: float = 0.9

    @property
    def page_bytes(self) -> int:
        return 1 << self.page_bits

    def __post_init__(self) -> None:
        if self.memory_pages < 2:
            raise ValueError("need at least two in-memory pages")
        if not 0.0 < self.mutable_fraction <= 1.0:
            raise ValueError(f"bad mutable_fraction: {self.mutable_fraction}")


class HybridLog:
    """The log allocator and in-memory page store."""

    def __init__(self, config: Optional[HybridLogConfig] = None) -> None:
        self.config = config or HybridLogConfig()
        self.tail_addr = 0
        self.head_addr = 0
        self._pages: dict[int, bytearray] = {}
        #: Pages whose flush is in flight (still readable from memory).
        self._flushing: dict[int, bytearray] = {}
        self.pages_evicted = 0
        self.bytes_flushed = 0

    # ------------------------------------------------------------------
    # Region queries
    # ------------------------------------------------------------------
    @property
    def read_only_addr(self) -> int:
        """Boundary below which in-memory records are copy-on-update."""
        memory_span = self.tail_addr - self.head_addr
        mutable_span = int(self.config.memory_pages * self.config.page_bytes
                           * self.config.mutable_fraction)
        boundary = self.tail_addr - min(memory_span, mutable_span)
        return max(boundary, self.head_addr)

    def region_of(self, addr: int) -> str:
        """'mutable' | 'read-only' | 'stable' for a log address."""
        if addr >= self.read_only_addr:
            return "mutable"
        if addr >= self.head_addr:
            return "read-only"
        return "stable"

    def in_memory(self, addr: int) -> bool:
        page = addr >> self.config.page_bits
        return page in self._pages or page in self._flushing

    @property
    def memory_page_count(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    # Allocation and access
    # ------------------------------------------------------------------
    def allocate(self, size: int) -> int:
        """Reserve ``size`` bytes at the tail; records never span pages."""
        page_bytes = self.config.page_bytes
        if size > page_bytes:
            raise ValueError(f"record of {size} bytes exceeds page size {page_bytes}")
        offset_in_page = self.tail_addr & (page_bytes - 1)
        if offset_in_page + size > page_bytes:
            self.tail_addr += page_bytes - offset_in_page  # pad to next page
        addr = self.tail_addr
        page = addr >> self.config.page_bits
        if page not in self._pages:
            self._pages[page] = bytearray(page_bytes)
        self.tail_addr += size
        return addr

    def starts_fresh_page(self, size: int) -> bool:
        """Whether the next ``size``-byte record would open a new page."""
        offset_in_page = self.tail_addr & (self.config.page_bytes - 1)
        return offset_in_page == 0 or offset_in_page + size > self.config.page_bytes

    def append_page(self, data: bytes) -> int:
        """Open a new page at the tail holding ``data`` at its start.

        Pads the current page like :meth:`allocate` and leaves the tail
        just past ``data``.  Returns the page's start address.
        """
        page_bytes = self.config.page_bytes
        if len(data) > page_bytes:
            raise ValueError(f"{len(data)} bytes exceed page size {page_bytes}")
        addr = -(-self.tail_addr // page_bytes) * page_bytes
        buffer = bytearray(page_bytes)
        buffer[: len(data)] = data
        self._pages[addr >> self.config.page_bits] = buffer
        self.tail_addr = addr + len(data)
        return addr

    def _page_for(self, addr: int, length: int) -> tuple[bytearray, int]:
        page_bytes = self.config.page_bytes
        page = addr >> self.config.page_bits
        offset = addr & (page_bytes - 1)
        if offset + length > page_bytes:
            raise ValueError(f"access at {addr:#x} (+{length}) spans pages")
        buffer = self._pages.get(page)
        if buffer is None:
            buffer = self._flushing.get(page)
        if buffer is None:
            raise KeyError(f"page {page} not in memory (addr {addr:#x})")
        return buffer, offset

    def write(self, addr: int, data: bytes) -> None:
        buffer, offset = self._page_for(addr, len(data))
        buffer[offset : offset + len(data)] = data

    def read(self, addr: int, length: int) -> bytes:
        buffer, offset = self._page_for(addr, length)
        return bytes(buffer[offset : offset + length])

    # ------------------------------------------------------------------
    # Eviction protocol
    # ------------------------------------------------------------------
    def pages_over_budget(self) -> int:
        return max(0, len(self._pages) - self.config.memory_pages)

    def begin_evict(self) -> Optional[tuple[int, int, bytes]]:
        """Start evicting the oldest in-memory page.

        Returns ``(page_number, device_offset, page_bytes)`` for the
        caller to write to the storage device, or ``None`` if nothing is
        evictable (the tail page never evicts).
        """
        # _pages fills in ascending page order, so its first key is the
        # oldest page.
        page = next(iter(self._pages), None)
        if page is None or page >= self.tail_addr >> self.config.page_bits:
            return None
        buffer = self._pages.pop(page)
        self._flushing[page] = buffer
        data = bytes(buffer)
        self.bytes_flushed += len(data)
        return page, page << self.config.page_bits, data

    def finish_evict(self, page: int) -> None:
        """The device acknowledged the flush: drop the page, move head."""
        if page not in self._flushing:
            raise KeyError(f"page {page} is not being flushed")
        del self._flushing[page]
        self.pages_evicted += 1
        # Head = lowest address still in memory (or tail if none).  Both
        # dicts fill in ascending page order, so their first keys are
        # their lowest pages.
        oldest = [
            next(iter(pages)) for pages in (self._flushing, self._pages) if pages
        ]
        if oldest:
            self.head_addr = min(oldest) << self.config.page_bits
        else:
            self.head_addr = self.tail_addr
