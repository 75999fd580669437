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

Log pages are numbered consecutively (a new page is always the tail
page + 1), so the oldest resident page and the oldest still-flushing
page are kept as counters: eviction and head tracking cost O(1) per page
and never iterate the page dicts.

A resident page is a ``page_bytes`` ``bytearray``, or a full page that a
bulk load appended as its place in the load's records (any object with
``read(offset, length) -> bytes`` and ``pack() -> bytearray``).  Such a
page holds no values: a read makes the records it overlaps, and the page
is packed into a buffer only when something writes into it or it leaves
memory.
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
        #: Resident pages: exactly ``[_head_page, _head_page + len(_pages))``,
        #: each a buffer or a page still held as records (see above).
        self._pages: dict[int, object] = {}
        self._head_page = 0
        #: Pages whose flush is in flight (still readable from memory), all
        #: in ``[_flush_head, _head_page)``; every page below
        #: ``_flush_head`` is on the device.
        self._flushing: dict[int, bytearray] = {}
        self._flush_head = 0
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

    def append_page(self, buffer, length: int) -> int:
        """Open a new page at the tail that adopts ``buffer`` uncopied.

        ``buffer`` is a ``page_bytes`` ``bytearray`` or a page held as
        records (see the module docstring); its page holds the records in
        its first ``length`` bytes and zeros after them.  Pads the current
        page like :meth:`allocate` and leaves the tail ``length`` bytes
        into the new page.  Returns the page's start address.
        """
        page_bytes = self.config.page_bytes
        addr = -(-self.tail_addr // page_bytes) * page_bytes
        self._pages[addr >> self.config.page_bits] = buffer
        self.tail_addr = addr + length
        return addr

    def close_page(self) -> int:
        """Pad the tail to the next page boundary and return it.

        :meth:`allocate` and :meth:`append_page` pad the same way before
        they open a page; a bulk load pads first so that every resident
        page lies below the tail and may evict.
        """
        page_bytes = self.config.page_bytes
        self.tail_addr = -(-self.tail_addr // page_bytes) * page_bytes
        return self.tail_addr

    def append_cold_pages(self, count: int) -> int:
        """Append ``count`` full pages that are already on the device.

        Pads the tail like :meth:`append_page` and leaves it at the end of
        the last page.  The head counters, ``pages_evicted`` and
        ``bytes_flushed`` end as if each page had been appended and then
        evicted with :meth:`evict_now`, which is possible only with no
        page resident: those are older and evict first.  Returns the
        first page's device offset.
        """
        if self._pages:
            raise ValueError("resident pages must evict before cold pages append")
        first = self.close_page() >> self.config.page_bits
        self._head_page = first + count
        self.tail_addr = self._head_page << self.config.page_bits
        self.pages_evicted += count
        self.bytes_flushed += count * self.config.page_bytes
        self._move_head()
        return first << self.config.page_bits

    def _page_for(self, addr: int, length: int) -> tuple[object, int]:
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
        if type(buffer) is not bytearray:  # resident: a page is packed as it leaves
            buffer = self._pages[addr >> self.config.page_bits] = buffer.pack()
        buffer[offset : offset + len(data)] = data

    def read(self, addr: int, length: int) -> bytes:
        buffer, offset = self._page_for(addr, length)
        if type(buffer) is not bytearray:
            return buffer.read(offset, length)
        return memoryview(buffer)[offset : offset + length].tobytes()

    def resident_images(self) -> list[tuple[int, bytes]]:
        """``(page number, contents)`` of every resident page, oldest
        first; a page held as records is packed for this and stays so."""
        return [
            (page, self.read(page << self.config.page_bits, self.config.page_bytes))
            for page in sorted(self._pages)
        ]

    # ------------------------------------------------------------------
    # Eviction protocol
    # ------------------------------------------------------------------
    def pages_over_budget(self) -> int:
        return max(0, len(self._pages) - self.config.memory_pages)

    def _pop_oldest(self) -> Optional[tuple[int, bytearray]]:
        page = self._head_page
        if page >= self.tail_addr >> self.config.page_bits:
            return None  # nothing resident, or only the tail page
        buffer = self._pages.pop(page)
        if type(buffer) is not bytearray:
            buffer = buffer.pack()
        self._head_page = page + 1
        self.bytes_flushed += len(buffer)
        return page, buffer

    def begin_evict(self) -> Optional[tuple[int, int, bytearray]]:
        """Start evicting the oldest in-memory page.

        Returns ``(page_number, device_offset, buffer)`` for the caller to
        write to the storage device, or ``None`` if nothing is evictable
        (the tail page never evicts).  ``buffer`` is the page's own,
        uncopied: records are written only at the tail, which never
        evicts, and the log drops the buffer at :meth:`finish_evict` and
        never reuses it.  So the page holds still from here on, and a
        backend may keep a reference until its write runs, as AIFM's
        IOKernel queue and Redy's batches do.
        """
        oldest = self._pop_oldest()
        if oldest is None:
            return None
        page, buffer = oldest
        self._flushing[page] = buffer
        return page, page << self.config.page_bits, buffer

    def finish_evict(self, page: int) -> None:
        """The device acknowledged the flush: drop the page, move head.

        Acknowledgements may arrive in any order.
        """
        if page not in self._flushing:
            raise KeyError(f"page {page} is not being flushed")
        del self._flushing[page]
        self.pages_evicted += 1
        self._move_head()

    def evict_now(self) -> Optional[tuple[int, bytearray]]:
        """Evict the oldest page whose write completes at once (bulk load).

        Returns ``(device_offset, buffer)`` or ``None`` like
        :meth:`begin_evict`.
        """
        oldest = self._pop_oldest()
        if oldest is None:
            return None
        page, buffer = oldest
        self.pages_evicted += 1
        self._move_head()
        return page << self.config.page_bits, buffer

    def _move_head(self) -> None:
        """Head = lowest address still in memory (or tail if none)."""
        flush_head, head_page = self._flush_head, self._head_page
        flushing = self._flushing
        # Each page is stepped over once, so this is O(1) amortized.
        while flush_head < head_page and flush_head not in flushing:
            flush_head += 1
        self._flush_head = flush_head
        if flush_head < head_page or self._pages:
            self.head_addr = flush_head << self.config.page_bits
        else:
            self.head_addr = self.tail_addr
