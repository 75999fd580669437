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


@lru_cache(maxsize=8)
def _page_packer(value_bytes: int, per_page: int):
    """``pack_into(buffer, 0, key0, value0, key1, value1, ...)`` for one
    page of ``per_page`` records."""
    return struct.Struct("<" + f"Q{value_bytes}s" * per_page).pack_into


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
        Spilled pages are written to the device's backing store
        synchronously through :meth:`_store_cold_page`.

        Full pages go in with one packed write each, into the buffer of
        the page evicted before them: the log, index and device end up
        exactly as if each record had been appended on its own.
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
        pack_page = _page_packer(value_bytes, per_page)
        used = per_page * record_bytes
        stride = 2 * per_page  # keys and values, interleaved
        # Every page below the tail is full, so an evicted page's buffer
        # is zero past ``used``, like a fresh one.
        spare = bytearray(page_bytes)
        for keys, values in _columns(items, per_page * _LOAD_PAGES_PER_STEP):
            count = len(keys)
            # Finish a partly filled tail page one record at a time.
            start = 0
            while start < count and not log.starts_fresh_page(record_bytes):
                self._load_record(keys[start], values[start])
                start += 1
            good = count
            if set(map(len, values)) != {value_bytes}:
                good = next(i for i, v in enumerate(values) if len(v) != value_bytes)
            end = start + (good - start) // per_page * per_page
            flat = [None] * (2 * (end - start))
            flat[::2] = keys[start:end]
            flat[1::2] = values[start:end]
            for lo in range(0, len(flat), stride):
                pack_page(spare, 0, *flat[lo : lo + stride])
                addr = log.append_page(spare, used)
                self.index.update(zip(
                    flat[lo : lo + stride : 2],
                    range(addr, addr + used, record_bytes),
                ))
                spare = self._evict_sync() or bytearray(page_bytes)
            # A short last page, or the records from a bad one on, which
            # raises at the bad record as the record-by-record loop does.
            for key, value in zip(keys[end:], values[end:]):
                self._load_record(key, value)

    def _load_record(self, key: int, value: bytes) -> None:
        if len(value) != self.config.value_bytes:
            raise ValueError("bad value size during load")
        addr = self.log.allocate(self.config.record_bytes)
        self.log.write(addr, _pack_key(key) + value)
        self.index.upsert(key, addr)
        self._evict_sync()

    def _evict_sync(self) -> Optional[bytearray]:
        """Spill pages over the memory budget straight to the backing.

        Returns the buffer of the last page spilled, free for reuse, or
        ``None`` if nothing was spilled.
        """
        buffer = None
        for _ in range(self.log.pages_over_budget()):
            eviction = self.log.evict_now()
            if eviction is None:
                break
            device_offset, buffer = eviction
            self._store_cold_page(device_offset, buffer)
        return buffer

    def _store_cold_page(self, device_offset: int, data: bytes) -> None:
        """Write a page into the device's backing store instantly.

        For RDMA/Cowbird backends the backing store is the memory pool
        region; for the SSD it is a plain buffer; local memory keeps
        everything in the log.  Backends expose this through an optional
        ``backing_write`` attribute; the default silently drops the
        bytes (sufficient for pure-throughput runs, not for verifying
        reads), so verification-grade backends must provide it.

        ``data`` is the evicted page's own buffer, which the load reuses
        for a later page: a backing write must copy it, never keep it.
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
