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
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.baselines.backends import Backend
from repro.faster.hashindex import HashIndex
from repro.faster.hybridlog import HybridLog, HybridLogConfig
from repro.sim.cpu import TAG_APP, Thread

__all__ = ["FasterConfig", "FasterKv", "ReadOutcome"]

KEY_BYTES = 8

_pack_key = struct.Struct("<Q").pack

#: Full pages of records whose keys and value sizes :meth:`FasterKv.load`
#: checks per step.
_CHECK_PAGES_PER_STEP = 16


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


class _RecordSource:
    """Full log pages of a load's records, made from the records on demand.

    Record ``j`` is ``keys[j]`` and ``value_for(lookup[j])``, and page
    ``i`` holds the ``per_page`` records from ``first + i * per_page`` on,
    then zeros.  Nothing is held per record beyond what the caller's
    ``keys`` and ``value_for`` hold.
    """

    __slots__ = (
        "keys", "lookup", "value_for", "first", "per_page", "value_bytes",
        "record_bytes", "page_bytes", "pack_record",
    )

    def __init__(
        self, keys, lookup, value_for, first: int, per_page: int,
        value_bytes: int, page_bytes: int,
    ) -> None:
        self.keys = keys
        self.lookup = lookup
        self.value_for = value_for
        self.first = first
        self.per_page = per_page
        self.value_bytes = value_bytes
        self.record_bytes = KEY_BYTES + value_bytes
        self.page_bytes = page_bytes
        self.pack_record = struct.Struct(f"<Q{value_bytes}s").pack

    def good_records(self, step: int) -> int:
        """The index of the first record from ``first`` on whose key does
        not pack or whose value is not ``value_bytes`` long, or the number
        of keys.  Checks ``step`` records at a time and holds no value past
        its check."""
        keys, lookup, value_for = self.keys, self.lookup, self.value_for
        value_bytes = self.value_bytes
        count = len(keys)
        for lo in range(self.first, count, step):
            hi = min(lo + step, count)
            good = _good_keys(keys[lo:hi])
            if set(map(len, map(value_for, lookup[lo:hi]))) != {value_bytes}:
                lengths = map(len, map(value_for, lookup[lo:hi]))
                good = min(good, next(
                    i for i, length in enumerate(lengths) if length != value_bytes
                ))
            if lo + good < hi:
                return lo + good
        return count

    def fill(self, i: int, start: int, stop: int) -> bytes:
        """Bytes ``[start, stop)`` of page ``i``, from the records they
        overlap only: the ``fill`` that
        :meth:`repro.memory.region.MemoryRegion.defer` takes."""
        record_bytes = self.record_bytes
        lo, offset = divmod(start, record_bytes)
        j = self.first + i * self.per_page + lo  # the first record overlapped
        if not offset and stop - start == record_bytes and lo < self.per_page:
            # One whole record, as a device read asks for.
            return self.pack_record(self.keys[j], self.value_for(self.lookup[j]))
        end = j - lo + min(-(-stop // record_bytes), self.per_page)
        packed = b"".join(map(
            self.pack_record, self.keys[j:end], map(self.value_for, self.lookup[j:end]),
        ))
        part = packed[offset : offset + stop - start]
        return part + bytes(stop - start - len(part))


class _LoadedPage:
    """A full log page of loaded records, held as its number in the
    load's :class:`_RecordSource` until the log packs it."""

    __slots__ = ("source", "number")

    def __init__(self, source: _RecordSource, number: int) -> None:
        self.source = source
        self.number = number

    def read(self, offset: int, length: int) -> bytes:
        """Bytes ``[offset, offset + length)`` of the packed page."""
        return self.source.fill(self.number, offset, offset + length)

    def pack(self) -> bytearray:
        """The page packed into a fresh ``page_bytes`` buffer."""
        return bytearray(self.source.fill(self.number, 0, self.source.page_bytes))


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
    def load(self, keys, value_for=None) -> None:
        """Bulk-load records without charging simulated time.

        Used to build the initial database before measurement starts —
        the paper's experiments also measure steady state, not loading.
        The records are ``keys``, a sequence in log order, each with the
        value ``value_for(key)`` of a pure ``value_for``; a repeated key
        ends at its last record.  A mapping may stand for both: its keys
        and values are then taken in order, the values copied when they
        are not ``bytes``, so that later changes to the mapping or its
        buffers do not reach the store.

        The log, index and device end up exactly as if each record had
        been appended on its own, and a record whose key or value does
        not fit raises as it would have there.  A partly filled tail page
        is finished one record at a time; the full pages after it go in
        through :meth:`_load_full_pages`, which holds them as their place
        in the records, not as values; a short last page, or the records
        from a bad one on, go in one at a time again.
        """
        if value_for is None:
            # A mapping (duck-typed: an ABC check may run Python code):
            # record j's value is values[j], read by position.
            if not hasattr(keys, "values"):
                raise TypeError("load takes a mapping, or keys and value_for")
            values = list(keys.values())
            if set(map(type, values)) != {bytes}:  # copy buffers that may change
                values = [
                    v if type(v) is bytes else bytes(memoryview(v)) for v in values
                ]
            keys, lookup, value_for = list(keys), range(len(values)), values.__getitem__
        else:
            lookup = keys
        log = self.log
        record_bytes = self.config.record_bytes
        per_page = log.config.page_bytes // record_bytes
        count = len(keys)
        start = 0
        while start < count and not log.starts_fresh_page(record_bytes):
            self._load_record(keys[start], value_for(lookup[start]))
            start += 1
        end = start
        if per_page:  # else no record fits a page, and the first one raises
            source = _RecordSource(
                keys, lookup, value_for, start, per_page,
                self.config.value_bytes, log.config.page_bytes,
            )
            good = source.good_records(per_page * _CHECK_PAGES_PER_STEP)
            pages = (good - start) // per_page
            end += pages * per_page
            if pages:
                self._load_full_pages(source, pages, end < good)
        # A short last page, or the records from a bad one on, which raises
        # at the bad record as the record-by-record loop does.
        for i in range(end, count):
            self._load_record(keys[i], value_for(lookup[i]))

    def _load_full_pages(self, source: _RecordSource, pages: int, tail: bool) -> None:
        """Index the first ``pages`` full pages of ``source`` and place
        them where appending each one and evicting the oldest while over
        budget would leave them; ``tail`` says that a record on a page of
        its own follows them.

        The log then keeps the newest ``memory_pages`` of its resident
        pages, these pages and that tail page.  The older resident pages
        are spilled first, then these pages' oldest, which go to
        :meth:`_defer_cold_pages` as one span; the rest stay resident as
        :class:`_LoadedPage` objects.
        """
        log = self.log
        record_bytes = self.config.record_bytes
        page_bytes = log.config.page_bytes
        per_page = source.per_page
        self.index.insert_pages(
            source.keys, log.close_page(), per_page, page_bytes, record_bytes,
            source.first, source.first + pages * per_page,
        )
        over = max(0, log.memory_page_count + pages + tail - log.config.memory_pages)
        resident = min(over, log.memory_page_count)
        self._evict_sync(resident)
        cold = over - resident  # fewer than ``pages``: ``memory_pages`` > 1
        if cold:
            self._defer_cold_pages(log.append_cold_pages(cold), cold, source.fill)
        for number in range(cold, pages):
            log.append_page(_LoadedPage(source, number), per_page * record_bytes)

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

    def _defer_cold_pages(self, device_offset: int, count: int, fill) -> None:
        """Hand the load's ``count`` full pages from ``device_offset`` on
        to the device's backing store; ``fill(i, start, stop)`` makes
        bytes ``[start, stop)`` of page ``i``.

        This default writes every page at once through
        :meth:`_store_cold_page`; a backing that can serve a page's reads
        from ``fill`` takes it as it is instead
        (:meth:`repro.memory.region.MemoryRegion.defer`).
        """
        page_bytes = self.log.config.page_bytes
        for i in range(count):
            page = fill(i, 0, page_bytes)
            self._store_cold_page(device_offset + i * page_bytes, page)

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
