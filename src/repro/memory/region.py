"""Registered memory regions with byte-accurate backing stores.

A :class:`MemoryRegion` models what ``ibv_reg_mr`` returns: a contiguous
virtual address range backed by real bytes, addressable by remote peers
that hold the region's ``rkey``.  The :class:`RegionRegistry` is the
per-host table an RNIC consults to translate an incoming (address, rkey)
pair into a buffer — including the permission and bounds checks a real
HCA performs in hardware.

Every region is backed by an anonymous ``mmap``, which the OS zero-fills
lazily, page by page, on first touch: registering a multi-gigabyte pool
costs host RAM only for the pages a simulation actually writes.  Contents
a region's owner can regenerate may be handed over unwritten with
:meth:`MemoryRegion.defer`: reads take their bytes from the owner, and
only a write that changes part of such a page writes it into the mapping.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import mmap
import sys
from typing import Iterator

__all__ = [
    "AccessError",
    "BoundsError",
    "MemoryRegion",
    "Permission",
    "RegionRegistry",
]


class BoundsError(Exception):
    """An access fell outside a region's registered range."""


class AccessError(Exception):
    """An access violated a region's permissions or used a bad key."""


class Permission(enum.Flag):
    """RDMA access permissions (subset of ibv_access_flags)."""

    LOCAL_READ = enum.auto()
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()

    @classmethod
    def all(cls) -> "Permission":
        return (
            cls.LOCAL_READ | cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE
        )


#: ``flags`` for the backing mappings: private and anonymous, so reads of
#: untouched pages share the kernel's zero page and add no RSS.  On Linux
#: also ``MAP_NORESERVE`` (which Python 3.11's ``mmap`` does not export),
#: so that heuristic overcommit does not refuse a pool larger than RAM;
#: pages still cost memory only once written.  None where ``mmap`` has no
#: ``MAP_PRIVATE`` (Windows), which maps plain ``mmap.mmap(-1, length)`` —
#: also lazily zeroed by the OS.
MAP_FLAGS = (
    mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS if hasattr(mmap, "MAP_PRIVATE") else None
)
if MAP_FLAGS is not None and sys.platform.startswith("linux"):
    MAP_FLAGS |= getattr(mmap, "MAP_NORESERVE", 0x4000)


def _zeroed_mapping(length: int) -> mmap.mmap:
    if MAP_FLAGS is None:
        mapping = mmap.mmap(-1, length)
    else:
        mapping = mmap.mmap(-1, length, flags=MAP_FLAGS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # With transparent hugepages set to "always", one write would
        # fault in a whole 2 MiB page; keep the cost at 4 KiB per page.
        # Kernels built without hugepage support reject the hint.
        try:
            mapping.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:
            pass
    return mapping


class MemoryRegion:
    """A registered, byte-backed virtual address range.

    Addresses are absolute virtual addresses (the paper's API expresses
    remote addresses as offsets from ``memory_pool_addr``; the translation
    happens in the client library).  Reads return ``bytes``; writes take
    any contiguous byte buffer (``bytes``, ``bytearray``, ``memoryview``).
    """

    def __init__(
        self,
        base_addr: int,
        length: int,
        lkey: int,
        rkey: int,
        permissions: Permission = Permission.all(),
        name: str = "",
    ) -> None:
        if length <= 0:
            raise ValueError(f"region length must be positive: {length}")
        if base_addr < 0:
            raise ValueError(f"negative base address: {base_addr}")
        self.base_addr = base_addr
        self.length = length
        self.lkey = lkey
        self.rkey = rkey
        self._permissions = permissions
        # Plain booleans so the per-access checks do no enum.Flag work.
        self._local_read = Permission.LOCAL_READ in permissions
        self._local_write = Permission.LOCAL_WRITE in permissions
        self._remote_read = Permission.REMOTE_READ in permissions
        self._remote_write = Permission.REMOTE_WRITE in permissions
        self.name = name
        self._data: mmap.mmap | None = _zeroed_mapping(length)
        #: ``(lo, hi, callback)`` per :meth:`watch`, in watch order.
        self._watchers: tuple = ()
        #: The smallest range holding every watched one; a write outside
        #: it runs no watcher code beyond two comparisons.  Empty (0, 0)
        #: while nothing is watched: every address is at least 0.
        self._watch_lo = 0
        self._watch_hi = 0
        #: Pages handed over by :meth:`defer` and not yet written, as
        #: ``{page number: (fill, number of its span's page 0)}`` on the
        #: one page grid ``_defer_grid`` = ``(page_bytes, phase)``, in
        #: which page ``n`` starts at ``n * page_bytes + phase``.
        #: ``_defer_lo``/``_defer_hi`` bound them all like
        #: ``_watch_lo``/``_watch_hi``, (0, 0) while none is pending.
        self._deferred: dict[int, tuple] = {}
        self._defer_grid = (1, 0)
        self._defer_lo = 0
        self._defer_hi = 0

    # ------------------------------------------------------------------
    @property
    def permissions(self) -> Permission:
        return self._permissions

    def close(self) -> None:
        """Release the backing mapping; later accesses raise AccessError.

        Closing drops every permission, so the access paths need no
        extra check: the permission test fails and :meth:`_denied`
        reports the region as closed.  Closing twice is harmless.
        """
        if self._data is None:
            return
        self._local_read = self._local_write = False
        self._remote_read = self._remote_write = False
        self._deferred = {}
        self._defer_lo = self._defer_hi = 0
        self._data.close()
        self._data = None

    def defer(self, addr: int, page_bytes: int, count: int, fill) -> None:
        """Hand over ``count`` pages from ``addr`` on without writing them.

        Page ``i`` spans ``page_bytes`` from ``addr + i * page_bytes``, and
        ``fill(i, start, stop)`` returns its bytes ``[start, stop)`` (with
        ``0 <= start < stop <= page_bytes``) as ``bytes``.  A ``read`` or
        ``remote_read`` that overlaps a pending page takes that part of
        its result from ``fill`` and leaves the page pending.  A write
        that covers the whole page drops it unfilled, and so does a later
        ``defer`` over it, as an overwrite would.  A write that changes
        only part of it first writes ``fill(i, 0, page_bytes)`` into the
        mapping; the page stays pending until that call returns.
        :meth:`close` drops every pending page.

        Reads and writes thus see exactly what eager writes of every page
        would have left.  All pages pending at once lie on one grid: a
        span whose ``page_bytes`` or ``addr % page_bytes`` differs from
        the pending pages' is refused.  Deferring is a local write (it
        needs ``LOCAL_WRITE``) that calls no watcher, so a span may not
        overlap a watched range either.
        """
        if not self._local_write:
            raise self._denied("locally writable")
        if page_bytes <= 0 or count < 0:
            raise ValueError(f"bad deferred span: {count} pages of {page_bytes} B")
        length = page_bytes * count
        if not 0 <= addr - self.base_addr <= self.length - length:
            raise self._bounds_error(addr, length)
        if not count:
            return
        end = addr + length
        if addr < self._watch_hi and end > self._watch_lo and any(
            addr < hi and end > lo for lo, hi, _callback in self._watchers
        ):
            raise ValueError(f"deferred span [{addr:#x}, {end:#x}) overlaps a watch")
        grid = (page_bytes, addr % page_bytes)
        if not self._deferred:
            self._defer_grid = grid
            self._defer_lo, self._defer_hi = addr, end
        elif grid != self._defer_grid:
            raise ValueError(
                f"deferred span [{addr:#x}, {end:#x}) is off the pending "
                f"pages' grid of {self._defer_grid[0]} B pages"
            )
        else:
            self._defer_lo = min(self._defer_lo, addr)
            self._defer_hi = max(self._defer_hi, end)
        first = addr // page_bytes
        self._deferred.update(
            dict.fromkeys(range(first, first + count), (fill, first))
        )

    @staticmethod
    def _filled(fill, i: int, start: int, stop: int) -> bytes:
        part = fill(i, start, stop)
        if len(part) != stop - start:
            raise ValueError(
                f"deferred page {i} gave {len(part)} B for its bytes "
                f"[{start}, {stop})"
            )
        return part

    def _read_through(self, addr: int, length: int) -> bytes:
        """Bytes ``[addr, addr + length)``, pending pages' parts from their
        ``fill``; nothing is written."""
        if not length:
            return b""
        size, phase = self._defer_grid
        pending = self._deferred
        base = self.base_addr
        end = addr + length
        parts = []
        done = addr  # bytes below it are in ``parts``
        for number in range((addr - phase) // size, -(-(end - phase) // size)):
            entry = pending.get(number)
            if entry is None:
                continue
            start = number * size + phase
            lo, hi = max(start, addr), min(start + size, end)
            if done < lo:
                parts.append(self._data[done - base : lo - base])
            fill, first = entry
            parts.append(self._filled(fill, number - first, lo - start, hi - start))
            done = hi
        if done < end:
            parts.append(self._data[done - base : end - base])
        return b"".join(parts)

    def _settle(self, lo: int, hi: int) -> None:
        """Before a write of ``[lo, hi)``: drop the pending pages inside it
        and write those it overlaps only in part into the mapping."""
        if hi <= lo:
            return
        size, phase = self._defer_grid
        pending = self._deferred
        for number in range((lo - phase) // size, -(-(hi - phase) // size)):
            entry = pending.get(number)
            if entry is None:
                continue
            start = number * size + phase
            if lo <= start and start + size <= hi:
                del pending[number]
                continue
            fill, first = entry
            offset = start - self.base_addr
            self._data[offset : offset + size] = self._filled(
                fill, number - first, 0, size
            )
            del pending[number]
        if not pending:
            self._defer_lo = self._defer_hi = 0

    def watch(self, lo: int, hi: int, callback) -> None:
        """Call ``callback(addr, length)`` after every successful write
        that overlaps ``[lo, hi)``.

        Used to model memory polling without simulating every poll —
        e.g. the Cowbird client watching its red bookkeeping block.
        Writes outside every watched range call nothing, and an empty
        write overlaps no range.
        """
        if hi <= lo:
            raise ValueError(f"empty watch range [{lo:#x}, {hi:#x})")
        if self._watchers:
            self._watch_lo = min(self._watch_lo, lo)
            self._watch_hi = max(self._watch_hi, hi)
        else:
            self._watch_lo, self._watch_hi = lo, hi
        self._watchers += ((lo, hi, callback),)

    @property
    def end_addr(self) -> int:
        """One past the last valid address."""
        return self.base_addr + self.length

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base_addr <= addr and addr + length <= self.end_addr

    def _bounds_error(self, addr: int, length: int) -> BoundsError:
        """The error for an access that failed the inline bounds check.

        Each access path checks ``0 <= addr - base_addr <= self.length -
        length`` inline (reads also ``length >= 0``), which is
        :meth:`contains` for a non-negative length.
        """
        if length < 0:
            return BoundsError(f"negative access length: {length}")
        return BoundsError(
            f"access [{addr:#x}, {addr + length:#x}) outside region "
            f"{self.name!r} [{self.base_addr:#x}, {self.end_addr:#x})"
        )

    def _denied(self, what: str) -> AccessError:
        if self._data is None:
            return AccessError(f"region {self.name!r} is closed")
        return AccessError(f"region {self.name!r} not {what}")

    # ------------------------------------------------------------------
    def read(self, addr: int, length: int) -> bytes:
        """Local read (no permission distinction from remote for tests)."""
        if not self._local_read:
            raise self._denied("locally readable")
        offset = addr - self.base_addr
        if length < 0 or not 0 <= offset <= self.length - length:
            raise self._bounds_error(addr, length)
        if addr < self._defer_hi and addr + length > self._defer_lo:
            return self._read_through(addr, length)
        return self._data[offset : offset + length]

    def write(self, addr: int, data: bytes) -> None:
        if not self._local_write:
            raise self._denied("locally writable")
        length = len(data)
        offset = addr - self.base_addr
        if not 0 <= offset <= self.length - length:
            raise self._bounds_error(addr, length)
        if addr < self._defer_hi and addr + length > self._defer_lo:
            self._settle(addr, addr + length)
        self._data[offset : offset + length] = data
        if addr < self._watch_hi and addr + length > self._watch_lo:
            for lo, hi, callback in self._watchers:
                if length and addr < hi and addr + length > lo:
                    callback(addr, length)

    def remote_read(self, addr: int, length: int, rkey: int) -> bytes:
        """A responder-side RDMA READ: key + permission + bounds checks."""
        if rkey != self.rkey:
            raise AccessError(
                f"bad rkey {rkey:#x} for region {self.name!r} (want {self.rkey:#x})"
            )
        if not self._remote_read:
            raise self._denied("remotely readable")
        offset = addr - self.base_addr
        if length < 0 or not 0 <= offset <= self.length - length:
            raise self._bounds_error(addr, length)
        if addr < self._defer_hi and addr + length > self._defer_lo:
            return self._read_through(addr, length)
        return self._data[offset : offset + length]

    def remote_write(self, addr: int, data: bytes, rkey: int) -> None:
        """A responder-side RDMA WRITE: key + permission + bounds checks."""
        if rkey != self.rkey:
            raise AccessError(
                f"bad rkey {rkey:#x} for region {self.name!r} (want {self.rkey:#x})"
            )
        if not self._remote_write:
            raise self._denied("remotely writable")
        length = len(data)
        offset = addr - self.base_addr
        if not 0 <= offset <= self.length - length:
            raise self._bounds_error(addr, length)
        if addr < self._defer_hi and addr + length > self._defer_lo:
            self._settle(addr, addr + length)
        self._data[offset : offset + length] = data
        if addr < self._watch_hi and addr + length > self._watch_lo:
            for lo, hi, callback in self._watchers:
                if length and addr < hi and addr + length > lo:
                    callback(addr, length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRegion({self.name!r}, base={self.base_addr:#x}, "
            f"len={self.length}, rkey={self.rkey:#x})"
        )


class _RegionsByRkey(dict):
    """rkey -> region; an unknown rkey raises :class:`AccessError`."""

    def __missing__(self, rkey: int) -> MemoryRegion:
        raise AccessError(f"unknown rkey {rkey:#x}")


class RegionRegistry:
    """Per-host registration table, as consulted by the host's RNIC.

    Allocates non-overlapping virtual address ranges (bump allocator) and
    unique lkeys/rkeys.  Lookup by address resolves the covering region;
    lookup by rkey is what an RNIC does for incoming one-sided operations.
    """

    def __init__(self, base_addr: int = 0x10_0000, key_seed: int = 1) -> None:
        self._next_addr = base_addr
        self._key_counter = itertools.count(key_seed)
        #: Regions in address order (the bump allocator appends in that
        #: order and deregistering keeps it), with their end addresses
        #: alongside for :meth:`by_addr`'s binary search.
        self._regions: list[MemoryRegion] = []
        self._ends: list[int] = []
        self._by_rkey = _RegionsByRkey()
        #: ``by_rkey(rkey)``: the region registered under ``rkey``; an
        #: unknown rkey raises :class:`AccessError`.  The lookup an RNIC
        #: does per incoming request, so it is the dict's own
        #: ``__getitem__``, which runs Python code only on a miss.
        self.by_rkey = self._by_rkey.__getitem__

    def register(
        self,
        length: int,
        permissions: Permission = Permission.all(),
        name: str = "",
        alignment: int = 64,
    ) -> MemoryRegion:
        """Allocate and register a fresh region of ``length`` bytes."""
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError(f"alignment must be a power of two: {alignment}")
        base = (self._next_addr + alignment - 1) & ~(alignment - 1)
        key = next(self._key_counter)
        region = MemoryRegion(
            base_addr=base,
            length=length,
            lkey=key,
            rkey=key | 0x8000_0000,
            permissions=permissions,
            name=name or f"mr-{key}",
        )
        self._next_addr = region.end_addr
        self._regions.append(region)
        self._ends.append(region.end_addr)
        self._by_rkey[region.rkey] = region
        return region

    def deregister(self, region: MemoryRegion) -> None:
        """Unregister ``region`` and release its backing mapping."""
        index = self._regions.index(region)
        del self._regions[index]
        del self._ends[index]
        del self._by_rkey[region.rkey]
        region.close()

    def by_addr(self, addr: int, length: int = 1) -> MemoryRegion:
        # Regions before the first one ending at or after addr + length
        # cannot cover the access, and a later one covers it only where
        # this one already does.  Searching the ends (not the bases) thus
        # returns the region a scan in address order would, also for a
        # zero-length access at a boundary two regions share.
        index = bisect.bisect_left(self._ends, addr + length)
        if index < len(self._regions):
            region = self._regions[index]
            if region.base_addr <= addr:
                return region
        raise BoundsError(f"address {addr:#x} (+{length}) not in any region")

    def __iter__(self) -> Iterator[MemoryRegion]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)
