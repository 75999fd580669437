"""Tests for FASTER's page-at-a-time load path and its hash index.

``FasterKv.load`` reads its records from a keyed source: keys in log
order and a pure ``value_for(key)``, or a mapping, whose keys and values
it takes in order.  From the number of records it plans where the full
pages go: those the log keeps are ``_LoadedPage`` objects, which make the
records a read overlaps and pack themselves only when the log writes
into or evicts them; those that spill to the device go to
``_defer_cold_pages`` as one span, which a pool region backing points at
``MemoryRegion.defer``.  Neither holds a value.  The hybrid log
finds its oldest resident and oldest still-flushing pages from counters,
so eviction never iterates a page dict (``NoIterDict`` below fails a test
that does).  The load must leave the index, the log and the device
exactly as the record-by-record loop it replaced; that loop, the old
min-scan eviction and the old bucket-list index are kept here as the
references.  The index keeps consecutive loaded keys as runs and must
answer as one dict of the same upserts would (``TestRunIndex``).
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.faster.hashindex import HashIndex, _mix64
from repro.faster.hybridlog import HybridLog, HybridLogConfig
from repro.faster.store import FasterConfig, FasterKv, _LoadedPage, _RecordSource
from repro.memory import MemoryRegion

SRC = Path(__file__).resolve().parents[1] / "src"


class MinScanLog(HybridLog):
    """The previous eviction protocol, kept as the reference: scan every
    resident page for the oldest one."""

    def begin_evict(self):
        tail_page = self.tail_addr >> self.config.page_bits
        candidates = [p for p in self._pages if p < tail_page]
        if not candidates:
            return None
        page = min(candidates)
        buffer = self._pages.pop(page)
        self._flushing[page] = buffer
        data = bytes(buffer)
        self.bytes_flushed += len(data)
        return page, page << self.config.page_bits, data

    def finish_evict(self, page):
        if page not in self._flushing:
            raise KeyError(f"page {page} is not being flushed")
        del self._flushing[page]
        self.pages_evicted += 1
        resident = list(self._pages) + list(self._flushing)
        if resident:
            self.head_addr = min(resident) << self.config.page_bits
        else:
            self.head_addr = self.tail_addr


def record_by_record_load(store, items):
    """The previous ``FasterKv.load`` loop over a mapping or ``(key,
    value)`` pairs, kept as the reference."""
    pairs = items.items() if isinstance(items, dict) else items
    for key, value in pairs:
        if len(value) != store.config.value_bytes:
            raise ValueError("bad value size during load")
        addr = store.log.allocate(store.config.record_bytes)
        store.log.write(addr, key.to_bytes(8, "little") + value)
        store.index.upsert(key, addr)
        while store.log.pages_over_budget() > 0:
            eviction = store.log.begin_evict()
            if eviction is None:
                break
            page, device_offset, data = eviction
            store._store_cold_page(device_offset, data)
            store.log.finish_evict(page)


class BucketListIndex:
    """The previous list-of-tuples bucket index, kept as the reference for
    bucket occupancy."""

    BUCKET_ENTRIES = 8

    def __init__(self, num_buckets):
        self.num_buckets = num_buckets
        self._buckets = [[] for _ in range(num_buckets)]
        self.entry_count = 0
        self.collision_overflow = 0

    def upsert(self, key, address):
        bucket = self._buckets[_mix64(key) & (self.num_buckets - 1)]
        for i, (entry_key, _old) in enumerate(bucket):
            if entry_key == key:
                bucket[i] = (key, address)
                return
        if len(bucket) >= self.BUCKET_ENTRIES:
            self.collision_overflow += 1
        bucket.append((key, address))
        self.entry_count += 1

    def load_factor(self):
        return self.entry_count / (self.num_buckets * self.BUCKET_ENTRIES)


class NoIterDict(dict):
    """A page dict that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("a page dict was iterated")

    keys = values = items = __iter__


def forbid_page_iteration(log):
    log._pages = NoIterDict(log._pages)
    log._flushing = NoIterDict(log._flushing)


def allow_page_iteration(log):
    log._pages = dict(dict.items(log._pages))
    log._flushing = dict(dict.items(log._flushing))


class FakeThread:
    def compute(self, ns, tag=None):
        return
        yield


class FakeDevice:
    """Accepts page flushes at once; the test acknowledges them later."""

    def __init__(self):
        self.writes = []

    def issue_write(self, thread, offset, data):
        self.writes.append((offset, bytes(data)))
        return len(self.writes)
        yield


class FreeCost:
    faster_op_overhead = memcpy_per_byte = record_touch_per_byte = 0


def run_to_end(generator):
    """Drive a generator that never blocks; return its result."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def make_store(page_bits, memory_pages, value_bytes, log_class=HybridLog):
    config = FasterConfig(
        value_bytes=value_bytes,
        log=HybridLogConfig(page_bits=page_bits, memory_pages=memory_pages),
    )
    store = FasterKv(device=None, cost=None, config=config)
    store.log = log_class(config.log)
    store.cold_writes = []
    store._store_cold_page = lambda offset, data: store.cold_writes.append(
        (offset, bytes(data))
    )
    return store


def region_backed_store(page_bits, memory_pages, value_bytes, region, defer):
    """A store whose cold pages go to ``region`` at their device offsets,
    deferred there when ``defer`` is set (as the pool region backing
    does), written at once otherwise; on the reference log when not."""
    store = make_store(
        page_bits, memory_pages, value_bytes, HybridLog if defer else MinScanLog
    )
    store._store_cold_page = lambda offset, data: region.write(
        region.base_addr + offset, data
    )
    if defer:
        page_bytes = 1 << page_bits
        store._defer_cold_pages = lambda offset, count, fill: region.defer(
            region.base_addr + offset, page_bytes, count, fill
        )
    return store


def as_source(items):
    """``(keys, value_for)`` of ``(key, value)`` pairs whose values are a
    function of their keys, as :meth:`FasterKv.load` takes them."""
    return [key for key, _value in items], dict(items).__getitem__


def load_as(store, items, as_mapping):
    """Load ``items`` into ``store`` as a mapping or as a keyed source."""
    if as_mapping:
        store.load(dict(items))
    else:
        store.load(*as_source(items))


def snapshot(store):
    log = store.log
    return {
        "index": {key: store.index.get(key) for key in store.index.keys()},
        "tail_addr": log.tail_addr,
        "head_addr": log.head_addr,
        "pages": log.resident_images(),
        "flushing": [(page, bytes(buf)) for page, buf in log._flushing.items()],
        "pages_evicted": log.pages_evicted,
        "bytes_flushed": log.bytes_flushed,
        "cold_writes": store.cold_writes,
    }


def value_of(key, value_bytes, salt=0):
    return bytes([(key * 31 + salt) % 251]) * value_bytes


@st.composite
def load_cases(draw):
    page_bits = draw(st.integers(6, 11))
    page_bytes = 1 << page_bits
    value_bytes = draw(st.integers(1, page_bytes - 8))
    memory_pages = draw(st.integers(2, 6))
    max_records = min(400, 8 * page_bytes // (8 + value_bytes) + 4)
    keys = st.integers(0, 2 * max_records)
    prefill = draw(st.lists(keys, max_size=3))
    first = draw(st.lists(keys, max_size=max_records))
    second = draw(st.lists(keys, max_size=max_records))
    return page_bits, memory_pages, value_bytes, prefill, first, second


class TestPageAtATimeLoad:
    @settings(max_examples=150, deadline=None)
    @given(load_cases(), st.booleans())
    def test_matches_record_by_record_reference(self, case, as_mapping):
        page_bits, memory_pages, value_bytes, prefill, first, second = case
        new = make_store(page_bits, memory_pages, value_bytes)
        ref = make_store(page_bits, memory_pages, value_bytes, MinScanLog)
        prefill_items = [(k, value_of(k, value_bytes, 7)) for k in prefill]
        first_items = [(k, value_of(k, value_bytes, 1)) for k in first]
        second_items = [(k, value_of(k, value_bytes, 2)) for k in second]
        for store in (new, ref):
            record_by_record_load(store, prefill_items)
        # Both loads overlap in keys; each may also repeat keys itself.
        load_as(new, first_items, as_mapping)
        record_by_record_load(ref, dict(first_items) if as_mapping else first_items)
        new.load(second, lambda key: value_of(key, value_bytes, 2))
        record_by_record_load(ref, second_items)
        assert snapshot(new) == snapshot(ref)

    @settings(max_examples=60, deadline=None)
    @given(load_cases(), st.booleans(), st.data())
    def test_wrong_value_size_raises_at_the_same_record(self, case, as_mapping, data):
        page_bits, memory_pages, value_bytes, prefill, first, _second = case
        items = [(k, value_of(k, value_bytes)) for k in prefill + first]
        bad_at = data.draw(st.integers(0, len(items)))
        bad_size = data.draw(
            st.sampled_from([0, value_bytes - 1, value_bytes + 1]).filter(
                lambda n: n >= 0 and n != value_bytes
            )
        )
        items.insert(bad_at, (1 << 40, b"x" * bad_size))  # a fresh key
        new = make_store(page_bits, memory_pages, value_bytes)
        ref = make_store(page_bits, memory_pages, value_bytes, MinScanLog)
        with pytest.raises(ValueError):
            load_as(new, items, as_mapping)
        with pytest.raises(ValueError):
            record_by_record_load(ref, dict(items) if as_mapping else items)
        assert snapshot(new) == snapshot(ref)

    def test_duplicate_key_ends_at_later_address(self):
        store = make_store(page_bits=8, memory_pages=4, value_bytes=24)
        store.load([5, 6, 5], lambda key: bytes([key]) * 24)
        assert store.index.get(5) == 64
        assert store.read_sync_for_test(5) == bytes([5]) * 24

    def test_record_larger_than_page_rejected(self):
        store = make_store(page_bits=6, memory_pages=2, value_bytes=60)
        with pytest.raises(ValueError):
            store.load({1: b"v" * 60})
        with pytest.raises(ValueError):
            store.load(range(1, 3), lambda key: b"v" * 60)
        assert store.log.tail_addr == 0 and len(store.index) == 0

    def test_pairs_are_refused(self):
        store = make_store(page_bits=8, memory_pages=4, value_bytes=24)
        with pytest.raises(TypeError, match="a mapping, or keys and value_for"):
            store.load([(5, b"a" * 24)])
        assert store.log.tail_addr == 0

    @pytest.mark.parametrize("bad_page", [0, 1, 15, 16, 17])
    def test_bad_record_on_a_later_page_of_a_batch(self, bad_page):
        """The load checks 16 pages of records at a time.  A bad record
        on any page of a step, or on the first page of the next, stops
        it there: the pages before the bad record's page go in as full
        pages, the rest record by record up to the bad one."""
        value_bytes, per_page = 24, 8  # 32 B records, 256 B pages
        items = [(k, value_of(k, value_bytes)) for k in range(40 * per_page)]
        items[bad_page * per_page + 3] = (1 << 40, b"x" * (value_bytes + 1))
        new = make_store(8, 3, value_bytes)
        ref = make_store(8, 3, value_bytes, MinScanLog)
        with pytest.raises(ValueError, match="bad value size"):
            new.load(*as_source(items))
        with pytest.raises(ValueError, match="bad value size"):
            record_by_record_load(ref, items)
        assert snapshot(new) == snapshot(ref)
        assert new.log.tail_addr == (bad_page * per_page + 3) * 32

    def test_load_after_a_run_with_flushes_in_flight(self):
        value_bytes = 24
        new = make_store(8, 3, value_bytes)
        ref = make_store(8, 3, value_bytes, MinScanLog)
        thread = FakeThread()
        for store in (new, ref):
            store.device, store.cost = FakeDevice(), FreeCost()
            for key in range(45):  # a partly filled tail page
                run_to_end(store.upsert(thread, key, value_of(key, value_bytes, 3)))
            assert len(store.log._flushing) == 3 and store.log.head_addr == 0
        items = [(k, value_of(k, value_bytes, 4)) for k in range(20, 200)]
        new.load(range(20, 200), lambda key: value_of(key, value_bytes, 4))
        record_by_record_load(ref, items)
        assert snapshot(new) == snapshot(ref)
        assert new.device.writes == ref.device.writes
        # Acknowledge the run's flushes newest first.
        for store in (new, ref):
            tokens = list(range(len(store.device.writes), 0, -1))
            run_to_end(store.complete(thread, tokens))
            assert not store.log._flushing
        assert snapshot(new) == snapshot(ref)
        assert new.log.head_addr == new.log._head_page << 8

    def test_eviction_and_load_never_iterate_the_page_dicts(self):
        store = make_store(page_bits=8, memory_pages=3, value_bytes=24)
        store.device, store.cost = FakeDevice(), FreeCost()
        thread = FakeThread()
        log = store.log
        forbid_page_iteration(log)
        with pytest.raises(AssertionError):
            next(iter(log._pages))
        for key in range(60):
            run_to_end(store.upsert(thread, key, value_of(key, 24)))
        assert store.stats_flushes == 5
        run_to_end(store.complete(thread, [2, 1]))  # out of order
        store.load(range(60, 500), lambda key: value_of(key, 24, 1))
        run_to_end(store.complete(thread, [5, 3, 4]))
        for key in range(500, 520):
            run_to_end(store.upsert(thread, key, value_of(key, 24)))
        assert log.pages_evicted > 50 and log.head_addr > 0
        allow_page_iteration(log)
        assert sorted(log._pages) == list(range(log._head_page, log._head_page + 3))

    def test_eviction_takes_oldest_page_without_a_scan(self):
        log = HybridLog(HybridLogConfig(page_bits=10, memory_pages=2))
        for _ in range(4):
            log.append_page(bytearray(1024), 1000)
        assert log.begin_evict()[0] == 0
        assert log.begin_evict()[0] == 1
        log.finish_evict(1)  # acknowledged out of order
        assert log.head_addr == 0  # page 0 is still flushing
        log.finish_evict(0)
        assert log.head_addr == 2 << 10
        assert log.begin_evict()[0] == 2
        assert log.begin_evict() is None  # the tail page never evicts


class TestDeferredColdPages:
    @settings(max_examples=120, deadline=None)
    @given(load_cases(), st.booleans(), st.booleans(), st.data())
    def test_matches_eager_record_by_record_reference(
        self, case, first_mapping, second_mapping, data,
    ):
        """A prefill, a load, reads of the pool region, then a second load
        from a fresh store over the same device range, which stops at a
        bad record (a value of the wrong size, or a key that is no
        unsigned 64-bit int) in the middle of a batch.  Either load reads
        a mapping or a keyed source; both defer their spilled pages."""
        page_bits, memory_pages, value_bytes, prefill, first, second = case
        page_bytes = 1 << page_bits
        records = len(prefill) + len(first) + len(second) + 2
        length = records * page_bytes
        touches = data.draw(st.lists(
            st.tuples(st.integers(0, length - 1), st.integers(0, 2 * page_bytes)),
            max_size=4,
        ))
        first_items = [(k, value_of(k, value_bytes, 1)) for k in first]
        second_items = [(k, value_of(k, value_bytes, 2)) for k in second]
        bad_at = data.draw(st.integers(0, len(second_items)))
        bad_key = data.draw(st.sampled_from([None, -1, 1 << 64]))
        if bad_key is None:  # a fresh key with a value one byte too long
            second_items.insert(bad_at, (1 << 40, b"x" * (value_bytes + 1)))
        else:
            second_items.insert(bad_at, (bad_key, value_of(0, value_bytes, 5)))
        outcomes = []
        for defer in (True, False):
            region = MemoryRegion(0x1000, length, 1, 2, name="pool")
            loaded = region_backed_store(page_bits, memory_pages, value_bytes, region, defer)
            fresh = region_backed_store(page_bits, memory_pages, value_bytes, region, defer)

            def load(store, items, as_mapping, defer=defer):
                if defer:
                    load_as(store, items, as_mapping)
                else:
                    record_by_record_load(store, dict(items) if as_mapping else items)

            record_by_record_load(loaded, [(k, value_of(k, value_bytes, 7)) for k in prefill])
            load(loaded, first_items, first_mapping)
            reads = [
                region.read(region.base_addr + start, min(size, length - start))
                for start, size in touches
            ]
            if not defer:  # the reference packs keys with int.to_bytes
                error = (ValueError, OverflowError)
            else:
                error = ValueError if bad_key is None else struct.error
            with pytest.raises(error):
                load(fresh, second_items, second_mapping)
            outcomes.append((
                snapshot(loaded), snapshot(fresh), reads,
                region.read(region.base_addr, length),
            ))
            region.close()
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("bad_key", [-1, 1 << 64, 2.5])
    def test_a_bad_key_on_a_deferred_page_raises_during_the_load(self, bad_key):
        """The key goes on page 20 of 40, after three good records: the
        load stops at it without indexing it, and every page it spilled
        reads back as the reference wrote it."""
        value_bytes, per_page = 24, 8  # 32 B records, 256 B pages
        bad_at = 20 * per_page + 3
        items = {
            bad_key if k == bad_at else k: value_of(k, value_bytes)
            for k in range(40 * per_page)
        }
        outcomes = []
        for defer in (True, False):
            region = MemoryRegion(0x1000, 64 * 256, 1, 2, name="pool")
            store = region_backed_store(8, 3, value_bytes, region, defer)
            if defer:
                with pytest.raises(struct.error):
                    store.load(items)
                # Pages 0-17 wait for a touch: 18 and 19 stay resident
                # beside page 20, which the three good records open.
                assert len(region._deferred) == 18
            else:
                with pytest.raises((OverflowError, AttributeError)):
                    record_by_record_load(store, items)
            outcomes.append((snapshot(store), region.read(0x1000, 64 * 256)))
            region.close()
        assert outcomes[0] == outcomes[1]
        assert bad_key not in outcomes[0][0]["index"]
        assert outcomes[0][0]["tail_addr"] == (bad_at + 1) * 32

    def test_pages_touched_after_the_load_are_the_ones_filled(self):
        """A read packs the record it returns and leaves its page pending;
        a write into part of a page packs and writes that page."""
        value_bytes, per_page = 24, 8  # 32 B records, 256 B pages
        region = MemoryRegion(0x1000, 64 * 256, 1, 2, name="pool")
        store = region_backed_store(8, 3, value_bytes, region, defer=True)
        store.load({k: value_of(k, value_bytes) for k in range(40 * per_page)})
        assert store.log.pages_evicted == 37
        pending = region._deferred
        assert sorted(pending) == list(range(0x1000 // 256, 0x1000 // 256 + 37))
        record = region.read(0x1000 + 5 * 256 + 3 * 32, 32)
        assert record == (5 * per_page + 3).to_bytes(8, "little") + value_of(
            5 * per_page + 3, value_bytes
        )
        assert len(pending) == 37
        region.write(0x1000 + 5 * 256 + 3 * 32, b"new")
        assert len(pending) == 36 and 0x1000 // 256 + 5 not in pending
        assert region._data[5 * 256 : 5 * 256 + 3 * 32] == b"".join(
            (5 * per_page + k).to_bytes(8, "little") + value_of(5 * per_page + k, value_bytes)
            for k in range(3)
        )

    def test_source_pages_make_only_the_records_they_overlap(self):
        """A source page makes its bytes from the records they overlap,
        asking ``value_for`` for those records only, with zeros past its
        last record; a deferred span reads through the same pages."""
        made = []

        def value_for(key):
            made.append(key)
            return bytes([key]) * 8

        def record(key):
            return key.to_bytes(8, "little") + bytes([key]) * 8

        # Two 16 B records to a 48 B page, from record 1 of keys 10-19 on:
        # page 1 holds keys 13 and 14, then 16 zero bytes.
        source = _RecordSource(range(10, 20), range(10, 20), value_for, 1, 2, 8, 48)
        assert source.fill(1, 0, 16) == record(13) and made == [13]
        assert source.fill(1, 12, 20) == record(13)[12:] + record(14)[:4]
        assert source.fill(1, 32, 48) == bytes(16) and made == [13, 13, 14]
        assert source.fill(1, 30, 40) == record(14)[14:] + bytes(8)
        page = _LoadedPage(source, 1)
        assert page.read(16, 16) == record(14)
        assert page.pack() == bytearray(record(13) + record(14) + bytes(16))
        region = MemoryRegion(0x1000, 96, 1, 2, name="pool")
        region.defer(0x1000, 48, 2, source.fill)
        # Page 0 holds keys 11 and 12; this crosses into page 1.
        assert region.read(0x1000 + 24, 32) == record(12)[8:] + bytes(16) + record(13)[:8]
        region.write(0x1000 + 48 + 3, b"w")  # packs page 1 into the region
        assert region._data[48:96] == record(13)[:3] + b"w" + record(13)[4:] + record(
            14
        ) + bytes(16)
        assert sorted(region._deferred) == [0x1000 // 48]

    def test_later_changes_by_the_caller_do_not_reach_the_store(self):
        """The store keeps what a mapping held when it was loaded, whether
        a record's page stays resident or is deferred to the pool region,
        however the caller changes the mapping or its buffers later."""
        value_bytes, per_page = 24, 8  # 32 B records, 256 B pages
        items = {
            k: bytearray(value_of(k, value_bytes)) if k % 3 else value_of(k, value_bytes)
            for k in range(40 * per_page)
        }
        region = MemoryRegion(0x1000, 64 * 256, 1, 2, name="pool")
        store = region_backed_store(8, 3, value_bytes, region, defer=True)
        store.load(items)
        resident, deferred = 39 * per_page + 1, 2 * per_page + 1  # pages 39 and 2
        assert store.log.in_memory(store.index.get(resident))
        assert not store.log.in_memory(store.index.get(deferred))
        items[resident - 1] = b"r" * value_bytes
        items[resident][:4] = b"XXXX"
        items[deferred][:4] = b"YYYY"
        for key in (resident - 1, resident, deferred):
            want = key.to_bytes(8, "little") + value_of(key, value_bytes)
            addr = store.index.get(key)
            if key == deferred:
                assert region.read(0x1000 + addr, 32) == want
            else:
                assert store.read_sync_for_test(key) == want[8:]
                assert store.log.read(addr, 32) == want


class TestHashIndexOccupancy:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([1, 2, 4, 16, 64]),
        st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 300), max_size=600),
    )
    def test_matches_bucket_list_model_for_inserts(self, num_buckets, keys):
        index = HashIndex(num_buckets)
        model = BucketListIndex(num_buckets)
        for address, key in enumerate(keys):
            index.upsert(key, address)
            model.upsert(key, address)
        assert index.collision_overflow == model.collision_overflow
        assert index.load_factor() == model.load_factor()
        assert len(index) == model.entry_count

    def test_oversubscribed_sixteen_buckets_match_model(self):
        index = HashIndex(num_buckets=16)
        model = BucketListIndex(16)
        for key in range(500):
            index.upsert(key, key)
            model.upsert(key, key)
        assert index.collision_overflow == model.collision_overflow > 0
        assert index.load_factor() == model.load_factor()

    def test_delete_lowers_collision_overflow(self):
        index = HashIndex(num_buckets=1)  # every key shares one bucket
        for key in range(10):
            index.upsert(key, key)
        assert index.collision_overflow == 2
        assert index.delete(3)
        assert index.collision_overflow == 1
        assert index.delete(4)
        assert index.delete(5)
        assert index.collision_overflow == 0


def page_addresses(count, first_addr, per_page, page_bytes, record_bytes):
    """Where ``insert_pages`` puts its ``count`` keys."""
    return [
        first_addr + j // per_page * page_bytes + j % per_page * record_bytes
        for j in range(count)
    ]


@st.composite
def index_steps(draw):
    """Key blocks laid out on pages (consecutive, gapped, repeated or
    descending, and consecutive blocks that continue the previous one in
    keys and addresses), then upserts and deletes, on keys below 160 so
    that they overlap often."""
    per_page = draw(st.integers(1, 4))
    record_bytes = draw(st.integers(1, 16))
    page_bytes = per_page * record_bytes + draw(st.integers(0, 8))
    steps = []
    next_key, next_addr = 0, 0
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ["consecutive", "continuing", "gapped", "repeated", "descending",
             "upsert", "delete", "delete"]
        ))
        start = draw(st.integers(0, 120))
        if kind in ("upsert", "delete"):
            steps.append((kind, draw(st.integers(0, 159)), draw(st.integers(0, 1 << 20))))
            continue
        count = draw(st.integers(1, 3 * per_page + 1))
        first_addr = draw(st.integers(0, 64)) * page_bytes
        if kind == "continuing":
            start, first_addr = next_key, next_addr
        keys = list(range(start, start + count))
        if kind == "gapped":
            keys = keys[::2] + [start + count + 1]
        elif kind == "repeated":
            keys.insert(draw(st.integers(0, count)), draw(st.sampled_from(keys)))
        elif kind == "descending":
            keys.reverse()
        next_key = keys[-1] + 1
        # The next page, or the start of a last page it fills only in part.
        next_addr = first_addr + draw(st.sampled_from(
            [-(-len(keys) // per_page), len(keys) // per_page]
        )) * page_bytes
        steps.append(("pages", keys, first_addr))
    return (per_page, page_bytes, record_bytes), steps


class TestRunIndex:
    """``HashIndex`` keeps consecutive loaded keys as runs; it must
    answer every query as one dict of the same upserts would."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 16]), index_steps())
    def test_matches_dict_model(self, num_buckets, case):
        (per_page, page_bytes, record_bytes), steps = case
        index, model = HashIndex(num_buckets), {}
        for step in steps:
            if step[0] == "pages":
                _kind, keys, first_addr = step
                index.insert_pages(keys, first_addr, per_page, page_bytes, record_bytes)
                model.update(zip(keys, page_addresses(
                    len(keys), first_addr, per_page, page_bytes, record_bytes,
                )))
            elif step[0] == "upsert":
                index.upsert(step[1], step[2])
                model[step[1]] = step[2]
            else:
                assert index.delete(step[1]) == (model.pop(step[1], None) is not None)
            for key in range(-1, 170):
                assert index.get(key) == model.get(key), (step, key)
                assert (key in index) == (key in model)
            assert len(index) == len(model)
            assert sorted(index.keys()) == sorted(model)
            reference = HashIndex(num_buckets)
            for key, address in model.items():
                reference.upsert(key, address)
            assert index.collision_overflow == reference.collision_overflow
            assert index.load_factor() == reference.load_factor()

    def test_consecutive_pages_make_one_run(self):
        index = HashIndex()
        for step in range(4):  # 16 pages of 31 records at a time
            index.insert_pages(
                list(range(step * 496, (step + 1) * 496)), step * 16 * 16384,
                31, 16384, 520,
            )
        assert index._runs == [(0, 1984, 0, 31, 16384, 520)] and not index._addresses
        assert index.get(1983) == 63 * 16384 + 30 * 520
        index.insert_pages([1984, 1985], 70 * 16384, 31, 16384, 520)  # a gap in addresses
        assert len(index._runs) == 2
        index.insert_pages([5, 6], 0, 31, 16384, 520)  # already indexed
        assert index._addresses == {5: 0, 6: 520}

    @pytest.mark.parametrize("keys", [list(range(100)), [7, 3, 7, *range(97)]])
    def test_start_stop_index_the_slice(self, keys):
        sliced, ranged = HashIndex(), HashIndex()
        sliced.insert_pages(keys[10:70], 4096, 4, 256, 60)
        ranged.insert_pages(keys, 4096, 4, 256, 60, 10, 70)
        assert ranged._runs == sliced._runs
        assert ranged._addresses == sliced._addresses
        assert all(ranged.get(key) == sliced.get(key) for key in range(-1, 101))


def test_faster_run_path_does_not_import_numpy():
    """numpy adds ~14 MB of RSS, over the benchmark's peak-RSS bound."""
    code = (
        "import sys\n"
        "import repro.faster, repro.workloads\n"
        "from repro.experiments.faster_bench import run_faster_bench\n"
        "run_faster_bench('cowbird', 1, record_count=500, ops_per_thread=20)\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
