"""The FASTER KV front-end and its IDevice integration (Section 7).

``FasterKv`` glues the hash index and hybrid log to a storage
:class:`~repro.baselines.backends.Backend`.  The integration mirrors the
paper's port: each application thread creates a notification handle,
issues storage I/O asynchronously, and completes pending requests by
polling — "the simple interface of Cowbird makes the integration
straightforward."

Record layout in the log: ``[key: 8 B][value: value_bytes]``.  Records
never span pages, and a record's device offset equals its log address.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Any, Generator, Optional

from repro.baselines.backends import Backend
from repro.faster.hashindex import HashIndex
from repro.faster.hybridlog import HybridLog, HybridLogConfig
from repro.sim.cpu import TAG_APP, Thread

__all__ = ["FasterConfig", "FasterKv", "ReadOutcome"]

KEY_BYTES = 8

_pack_key = struct.Struct("<Q").pack

#: Full pages that :meth:`FasterKv.load` takes from its input per step.
_LOAD_PAGES_PER_STEP = 16


def _columns(
    items: Mapping[int, bytes] | Iterable[tuple[int, bytes]], size: int,
):
    """``(keys, values)`` of up to ``size`` records at a time: a mapping's
    columns are read straight from its views, pairs are transposed."""
    if isinstance(items, Mapping):
        keys, values = iter(items), iter(items.values())
        while batch := list(islice(keys, size)):
            yield batch, list(islice(values, size))
    else:
        pairs = iter(items)
        while chunk := list(islice(pairs, size)):
            batch, batch_values = zip(*chunk, strict=True)
            yield batch, batch_values


def _good_keys(keys) -> int:
    """How many of ``keys``, from the first on, pack as a record's key."""
    try:
        struct.pack(f"<{len(keys)}Q", *keys)
    except struct.error:
        for i, key in enumerate(keys):
            try:
                _pack_key(key)
            except struct.error:
                return i
    return len(keys)


class _RecordPage:
    """A full log page of loaded records, held as the caller's keys and
    values until it is packed: ``records`` is ``[key0, value0, key1,
    value1, ...]`` and ``layout`` is ``(record_bytes, page_bytes,
    pack_record, pack_page_into)``, shared by a load's pages."""

    __slots__ = ("records", "layout")

    def __init__(self, records: list, layout: tuple) -> None:
        self.records = records
        self.layout = layout

    def read(self, offset: int, length: int) -> bytes:
        """Bytes ``[offset, offset + length)`` of the packed page, from the
        records they overlap only."""
        record_bytes, _page_bytes, pack_record, _pack_page = self.layout
        records = self.records
        first = offset // record_bytes
        if length == record_bytes and offset == first * record_bytes:
            if 2 * first < len(records):  # one whole record
                return pack_record(records[2 * first], records[2 * first + 1])
        stop = -(-(offset + length) // record_bytes)
        packed = b"".join(map(
            pack_record, records[2 * first : 2 * stop : 2],
            records[2 * first + 1 : 2 * stop : 2],
        ))
        start = offset - first * record_bytes
        part = packed[start : start + length]
        return part + bytes(length - len(part))

    def pack(self) -> bytearray:
        """The page packed into a fresh ``page_bytes`` buffer."""
        _record_bytes, page_bytes, _pack_record, pack_page = self.layout
        buffer = bytearray(page_bytes)
        pack_page(buffer, 0, *self.records)
        return buffer


def _page_filler(pages: list):
    """``(fill, release)`` over a list of record pages, as
    :meth:`repro.memory.region.MemoryRegion.defer` takes them: page
    ``i``'s keys and values are released once the region wrote it."""

    def fill(i: int, start: int, stop: int) -> bytes:
        return pages[i].read(start, stop - start)

    def release(i: int) -> None:
        pages[i] = None

    return fill, release


@lru_cache(maxsize=8)
def _page_packer(value_bytes: int, per_page: int):
    """``pack_into(buffer, 0, key0, value0, key1, value1, ...)`` for one
    page of ``per_page`` records."""
    return struct.Struct("<" + f"Q{value_bytes}s" * per_page).pack_into


@lru_cache(maxsize=8)
def _record_packer(value_bytes: int):
    """``pack(key, value)`` for one record."""
    return struct.Struct(f"<Q{value_bytes}s").pack


@dataclass
class FasterConfig:
    """Store-level configuration."""

    value_bytes: int = 64
    index_buckets: int = 1 << 16
    log: HybridLogConfig = field(default_factory=HybridLogConfig)

    @property
    def record_bytes(self) -> int:
        return KEY_BYTES + self.value_bytes


@dataclass
class ReadOutcome:
    """Result of starting a read.

    ``source`` is "memory" (value present), "device" (token pending), or
    "missing" (no such key).
    """

    source: str
    value: Optional[bytes] = None
    token: Optional[int] = None
    key: int = 0


class FasterKv:
    """A FASTER-like store over a pluggable storage backend."""

    def __init__(self, device: Backend, cost, config: Optional[FasterConfig] = None):
        self.device = device
        self.cost = cost
        self.config = config or FasterConfig()
        self.index = HashIndex(self.config.index_buckets)
        self.log = HybridLog(self.config.log)
        #: token -> ("read", key) | ("flush", page_number)
        self._pending: dict[int, tuple[str, int]] = {}
        self.stats_reads_memory = 0
        self.stats_reads_device = 0
        self.stats_upserts = 0
        self.stats_flushes = 0

    # ------------------------------------------------------------------
    # Operations (generators driven inside a simulated thread)
    # ------------------------------------------------------------------
    def upsert(
        self, thread: Thread, key: int, value: bytes,
        device: Optional[Backend] = None,
    ) -> Generator[Any, Any, int]:
        """Append a record at the tail and point the index at it.

        Returns the number of eviction writes this call issued through
        the *calling thread's* device channel, so the caller can track
        its own in-flight token count (another thread's flushes complete
        on that thread's channel, not ours).
        """
        if len(value) != self.config.value_bytes:
            raise ValueError(
                f"value must be {self.config.value_bytes} bytes, got {len(value)}"
            )
        yield from thread.compute(self.cost.faster_op_overhead, tag=TAG_APP)
        addr = self.log.allocate(self.config.record_bytes)
        record = _pack_key(key) + value
        self.log.write(addr, record)
        yield from thread.compute(
            self.cost.memcpy_per_byte * len(record), tag=TAG_APP
        )
        self.index.upsert(key, addr)
        self.stats_upserts += 1
        flushes = yield from self._maybe_evict(thread, device or self.device)
        return flushes

    def start_read(
        self, thread: Thread, key: int, device: Optional[Backend] = None,
    ) -> Generator[Any, Any, ReadOutcome]:
        """Begin a read; in-memory hits complete inline."""
        yield from thread.compute(self.cost.faster_op_overhead, tag=TAG_APP)
        addr = self.index.get(key)
        if addr is None:
            return ReadOutcome(source="missing", key=key)
        if self.log.in_memory(addr):
            record = self.log.read(addr, self.config.record_bytes)
            self.stats_reads_memory += 1
            yield from thread.compute(
                self.cost.record_touch_per_byte * self.config.record_bytes,
                tag=TAG_APP,
            )
            return ReadOutcome(source="memory", value=record[KEY_BYTES:], key=key)
        # Cold record: fetch from the storage layer asynchronously,
        # through the calling thread's device channel.
        token = yield from (device or self.device).issue_read(
            thread, addr, self.config.record_bytes
        )
        self._pending[token] = ("read", key)
        self.stats_reads_device += 1
        return ReadOutcome(source="device", token=token, key=key)

    def complete(
        self, thread: Thread, tokens: list[int]
    ) -> Generator[Any, Any, list[int]]:
        """Process completed device I/O; returns finished read keys."""
        finished: list[int] = []
        for token in tokens:
            kind, payload = self._pending.pop(token, (None, None))
            if kind == "read":
                yield from thread.compute(
                    self.cost.record_touch_per_byte * self.config.record_bytes,
                    tag=TAG_APP,
                )
                finished.append(payload)
            elif kind == "flush":
                self.log.finish_evict(payload)
        return finished

    def pending_reads(self) -> int:
        return sum(1 for kind, _ in self._pending.values() if kind == "read")

    # ------------------------------------------------------------------
    # Eviction: spill cold pages through the IDevice
    # ------------------------------------------------------------------
    def _maybe_evict(
        self, thread: Thread, device: Optional[Backend] = None,
    ) -> Generator[Any, Any, int]:
        issued = 0
        device = device or self.device
        while self.log.pages_over_budget() > 0:
            eviction = self.log.begin_evict()
            if eviction is None:
                break
            page, device_offset, data = eviction
            token = yield from device.issue_write(thread, device_offset, data)
            self._pending[token] = ("flush", page)
            self.stats_flushes += 1
            issued += 1
        return issued

    # ------------------------------------------------------------------
    # Non-simulated helpers (loading, verification)
    # ------------------------------------------------------------------
    def load(
        self, items: Mapping[int, bytes] | Iterable[tuple[int, bytes]]
    ) -> None:
        """Bulk-load records without charging simulated time.

        Used to build the initial database before measurement starts —
        the paper's experiments also measure steady state, not loading.
        ``items`` is a mapping or any iterable of ``(key, value)`` pairs,
        consumed as a stream, 16 pages of records at a time; a repeated
        key ends at its last record.

        Full pages wait in a window of the newest ``memory_pages`` and are
        appended to the log when records go in one at a time (a short last
        page) or the load ends.  A mapping's pages are record pages: key
        and value slices that share its values, packed with one ``struct``
        write only when the log writes into or evicts one.  Those that
        leave the window go to :meth:`_defer_cold_pages` unpacked, and
        those the log keeps stay so.  A stream's values are made for the
        load and would be kept alive only by it, so its pages are packed
        as they come in, and one that leaves the window is written through
        :meth:`_store_cold_page`, as are pages evicted from the log itself.
        Each step's keys go to :meth:`HashIndex.insert_pages`.  The log,
        index and device end up exactly as if each record had been
        appended on its own; a record whose key or value does not fit
        raises as it would have there.
        """
        log = self.log
        record_bytes = self.config.record_bytes
        value_bytes = self.config.value_bytes
        page_bytes = log.config.page_bytes
        per_page = page_bytes // record_bytes
        if per_page == 0:  # no record fits a page: the first one raises
            for keys, values in _columns(items, 1):
                self._load_record(keys[0], values[0])
            return
        # Full pages not yet in the log, oldest first: record pages for a
        # mapping, packed buffers for a stream.  The oldest starts at the
        # log's tail.
        window: list = []
        by_reference = isinstance(items, Mapping)
        try:
            for keys, values in _columns(items, per_page * _LOAD_PAGES_PER_STEP):
                count = len(keys)
                # Finish a partly filled tail page one record at a time.
                start = 0
                while start < count and not log.starts_fresh_page(record_bytes):
                    self._load_record(keys[start], values[start])
                    start += 1
                good = _good_keys(keys)
                if set(map(len, values)) != {value_bytes}:
                    good = min(good, next(
                        i for i, v in enumerate(values) if len(v) != value_bytes
                    ))
                end = start + (good - start) // per_page * per_page
                if end > start:
                    self._load_full_pages(
                        keys[start:end], values[start:end], window, by_reference,
                    )
                if end < count:
                    # A short last page, or the records from a bad one on,
                    # which raises at the bad record as the record-by-record
                    # loop does.
                    self._append_pages(window)
                    for key, value in zip(keys[end:], values[end:]):
                        self._load_record(key, value)
        finally:
            # The index already points into the window: append it even
            # when the input raises.
            self._append_pages(window)

    def _load_full_pages(
        self, keys: list, values: list, window: list, by_reference: bool,
    ) -> None:
        """Index whole pages of records and add them to the load's
        ``window``, as record pages ``by_reference`` and packed otherwise;
        spill the pages that leave it (see :meth:`load`).

        Pages leave in the order that appending each page and evicting
        the oldest while over budget would give: resident pages first,
        then the window's oldest.
        """
        log = self.log
        record_bytes = self.config.record_bytes
        value_bytes = self.config.value_bytes
        page_bytes = log.config.page_bytes
        per_page = page_bytes // record_bytes
        pack_page = _page_packer(value_bytes, per_page)
        if by_reference and set(map(type, values)) != {bytes}:
            # Packed later: copy buffers that may change.
            values = list(map(bytes, values))
        flat = [None] * (2 * len(keys))
        flat[::2] = keys
        flat[1::2] = values
        stride = 2 * per_page
        pages = [flat[lo : lo + stride] for lo in range(0, len(flat), stride)]
        if by_reference:
            layout = (record_bytes, page_bytes, _record_packer(value_bytes), pack_page)
            pages = [_RecordPage(page, layout) for page in pages]
        else:  # before the index points at them
            for i, page in enumerate(pages):
                pages[i] = bytearray(page_bytes)
                pack_page(pages[i], 0, *page)
        first = log.close_page() + len(window) * page_bytes
        self.index.insert_pages(keys, first, per_page, page_bytes, record_bytes)
        window += pages
        over = log.memory_page_count + len(window) - log.config.memory_pages
        if over <= 0:
            return
        resident = min(over, log.memory_page_count)
        self._evict_sync(resident)
        cold = window[: over - resident]
        if not cold:
            return
        del window[: len(cold)]
        offset = log.append_cold_pages(len(cold))
        if by_reference:
            self._defer_cold_pages(offset, len(cold), *_page_filler(cold))
        else:
            for buffer in cold:
                self._store_cold_page(offset, buffer)
                offset += page_bytes

    def _append_pages(self, pages: list) -> None:
        """Append the load's ``pages`` to the log; empties ``pages``.  The
        caller keeps them within the memory budget."""
        record_bytes = self.config.record_bytes
        used = self.log.config.page_bytes // record_bytes * record_bytes
        for page in pages:
            self.log.append_page(page, used)
        pages.clear()

    def _load_record(self, key: int, value: bytes) -> None:
        if len(value) != self.config.value_bytes:
            raise ValueError("bad value size during load")
        addr = self.log.allocate(self.config.record_bytes)
        self.log.write(addr, _pack_key(key) + value)
        self.index.upsert(key, addr)
        self._evict_sync(self.log.pages_over_budget())

    def _evict_sync(self, count: int) -> None:
        """Spill the ``count`` oldest resident pages straight to the backing."""
        for _ in range(count):
            eviction = self.log.evict_now()
            if eviction is None:
                break
            self._store_cold_page(*eviction)

    def _defer_cold_pages(
        self, device_offset: int, count: int, fill, release,
    ) -> None:
        """Hand the load's ``count`` full pages from ``device_offset`` on
        to the device's backing store; ``fill(i, start, stop)`` packs
        bytes ``[start, stop)`` of page ``i``, and ``release(i)`` frees
        the page's records once nothing reads them through ``fill``.

        This default writes every page at once through
        :meth:`_store_cold_page`; a backing that can serve a page's reads
        from ``fill`` takes both as they are instead
        (:meth:`repro.memory.region.MemoryRegion.defer`).
        """
        page_bytes = self.log.config.page_bytes
        for i in range(count):
            page = fill(i, 0, page_bytes)
            self._store_cold_page(device_offset + i * page_bytes, page)
            release(i)

    def _store_cold_page(self, device_offset: int, data: bytes) -> None:
        """Write a page into the device's backing store instantly.

        For RDMA/Cowbird backends the backing store is the memory pool
        region; for the SSD it is a plain buffer; local memory keeps
        everything in the log.  Backends expose this through an optional
        ``backing_write`` attribute; the default silently drops the
        bytes (sufficient for pure-throughput runs, not for verifying
        reads), so verification-grade backends must provide it.
        """
        backing_write = getattr(self.device, "backing_write", None)
        if backing_write is not None:
            backing_write(device_offset, data)

    def read_sync_for_test(self, key: int) -> Optional[bytes]:
        """Non-simulated read used by tests: memory-resident data only."""
        addr = self.index.get(key)
        if addr is None or not self.log.in_memory(addr):
            return None
        record = self.log.read(addr, self.config.record_bytes)
        return record[KEY_BYTES:]
