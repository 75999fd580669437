"""Unit/integration tests for the FASTER KV store (repro.faster)."""

import pytest

from repro.cowbird.wire import decode_request_id
from repro.experiments.common import build_microbench
from repro.experiments.faster_bench import (
    _log_config_for,
    load_backing,
    run_faster_bench,
    ycsb_worker,
)
from repro.faster.hashindex import HashIndex
from repro.faster.hybridlog import HybridLog, HybridLogConfig
from repro.faster.store import KEY_BYTES, FasterConfig, FasterKv
from repro.sim.cpu import CostModel
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


class DeviceReads:
    """Every device read's record, as the engine wrote it into the
    response ring, taken just before the backend frees the slot.

    Wraps each Cowbird backend's ``issue_read`` to learn each token's
    log address, and its instance's ``poll_release`` to copy the slot;
    ``records`` maps a log address to every record read from it.
    """

    def __init__(self, backends):
        self.records: dict[int, list[bytes]] = {}
        for backend in set(backends):
            address_of = {}  # token -> log address; tokens are per instance
            backend.issue_read = self._issue(backend.issue_read, address_of)
            instance = backend.instance
            instance.poll_release = self._release(
                instance, instance.poll_release, address_of
            )

    @staticmethod
    def _issue(issue_read, address_of):
        def issue(thread, offset, length):
            token = yield from issue_read(thread, offset, length)
            address_of[token] = offset
            return token

        return issue

    def _release(self, instance, poll_release, address_of):
        def release(poll_id, done_ids):
            for request_id in done_ids:
                addr = address_of.pop(request_id, None)
                if addr is not None:
                    entry = instance._reads[decode_request_id(request_id)[2]]
                    self.records.setdefault(addr, []).append(
                        instance.region.read(entry.addr, entry.length)
                    )
            poll_release(poll_id, done_ids)

        return release

    def count(self) -> int:
        return sum(map(len, self.records.values()))


class TestHashIndex:
    def test_get_after_upsert(self):
        index = HashIndex(num_buckets=16)
        index.upsert(42, 0x1000)
        assert index.get(42) == 0x1000

    def test_missing_key_returns_none(self):
        assert HashIndex(16).get(7) is None

    def test_upsert_overwrites_address(self):
        index = HashIndex(16)
        index.upsert(1, 100)
        index.upsert(1, 200)
        assert index.get(1) == 200
        assert len(index) == 1

    def test_delete(self):
        index = HashIndex(16)
        index.upsert(5, 50)
        assert index.delete(5)
        assert index.get(5) is None
        assert not index.delete(5)

    def test_many_keys_survive_collisions(self):
        index = HashIndex(num_buckets=16)  # forces collisions
        for key in range(500):
            index.upsert(key, key * 10)
        for key in range(500):
            assert index.get(key) == key * 10

    def test_load_factor_and_overflow_tracking(self):
        index = HashIndex(num_buckets=16)
        for key in range(500):
            index.upsert(key, key)
        assert index.load_factor() > 1.0  # oversubscribed on purpose
        assert index.collision_overflow > 0

    def test_keys_iterator(self):
        index = HashIndex(16)
        for key in (3, 1, 4):
            index.upsert(key, key)
        assert sorted(index.keys()) == [1, 3, 4]

    def test_power_of_two_buckets_required(self):
        with pytest.raises(ValueError):
            HashIndex(num_buckets=10)


class TestHybridLog:
    def make_log(self, memory_pages=4, page_bits=10):
        return HybridLog(HybridLogConfig(page_bits=page_bits,
                                         memory_pages=memory_pages))

    def test_allocate_monotonic(self):
        log = self.make_log()
        first = log.allocate(100)
        second = log.allocate(100)
        assert second > first

    def test_write_read_round_trip(self):
        log = self.make_log()
        addr = log.allocate(32)
        log.write(addr, b"x" * 32)
        assert log.read(addr, 32) == b"x" * 32

    def test_records_never_span_pages(self):
        log = self.make_log(page_bits=10)  # 1 KB pages
        addrs = [log.allocate(300) for _ in range(8)]
        for addr in addrs:
            page_off = addr & 1023
            assert page_off + 300 <= 1024

    def test_record_larger_than_page_rejected(self):
        log = self.make_log(page_bits=10)
        with pytest.raises(ValueError):
            log.allocate(2000)

    def test_region_classification(self):
        log = self.make_log(memory_pages=8)
        addr = log.allocate(64)
        assert log.region_of(addr) == "mutable"
        assert log.in_memory(addr)

    def test_eviction_protocol(self):
        log = self.make_log(memory_pages=2, page_bits=10)
        addrs = [log.allocate(512) for _ in range(8)]  # 4 pages
        assert log.pages_over_budget() > 0
        page, device_offset, data = log.begin_evict()
        assert device_offset == page << 10
        assert len(data) == 1024
        # Flushing pages still serve reads.
        assert log.in_memory(addrs[0])
        log.finish_evict(page)
        assert not log.in_memory(addrs[0])
        assert log.region_of(addrs[0]) == "stable"
        assert log.head_addr > 0

    def test_tail_page_never_evicts(self):
        log = self.make_log(memory_pages=2, page_bits=10)
        log.allocate(100)
        assert log.begin_evict() is None

    def test_finish_unknown_page_raises(self):
        log = self.make_log()
        with pytest.raises(KeyError):
            log.finish_evict(99)

    def test_stable_read_raises_key_error(self):
        log = self.make_log(memory_pages=2, page_bits=10)
        addrs = [log.allocate(512) for _ in range(8)]
        page, _off, _data = log.begin_evict()
        log.finish_evict(page)
        with pytest.raises(KeyError):
            log.read(addrs[0], 64)


class TestFasterKvSimulated:
    def make_store(self, system="local", threads=1, memory_pages=1 << 20):
        dep = build_microbench(system, threads, remote_bytes=1 << 20)
        config = FasterConfig(
            value_bytes=64,
            log=HybridLogConfig(page_bits=12, memory_pages=memory_pages),
        )
        store = FasterKv(dep.backends[0], CostModel(), config)
        load_backing(dep, store)
        return dep, store

    def run(self, dep, gen, deadline=60e9):
        return dep.sim.run_until_complete(dep.sim.spawn(gen), deadline=deadline)

    def test_upsert_then_memory_read(self):
        dep, store = self.make_store()
        thread = dep.compute.cpu.thread()

        def app():
            yield from store.upsert(thread, 1, b"v" * 64)
            outcome = yield from store.start_read(thread, 1)
            return outcome

        outcome = self.run(dep, app())
        assert outcome.source == "memory"
        assert outcome.value == b"v" * 64

    def test_missing_key(self):
        dep, store = self.make_store()
        thread = dep.compute.cpu.thread()

        def app():
            return (yield from store.start_read(thread, 999))

        assert self.run(dep, app()).source == "missing"

    def test_wrong_value_size_rejected(self):
        dep, store = self.make_store()
        thread = dep.compute.cpu.thread()

        def app():
            yield from store.upsert(thread, 1, b"short")

        with pytest.raises(ValueError):
            self.run(dep, app())

    def test_eviction_spills_through_device_and_reads_back(self):
        """End to end on Cowbird: records pushed out of memory come back
        from the pool via the offload engine, byte for byte."""
        dep, store = self.make_store(system="cowbird", memory_pages=2)
        device_reads = DeviceReads(dep.backends)
        thread = dep.compute.cpu.thread()
        n = 300  # enough 72 B records to overflow two 4 KB pages

        def app():
            inflight = 0
            for key in range(n):
                flushes = yield from store.upsert(
                    thread, key, bytes([key % 251]) * 64
                )
                inflight += flushes
                while inflight:
                    tokens = yield from dep.backends[0].poll_completions(
                        thread, block=True
                    )
                    yield from store.complete(thread, tokens)
                    inflight -= len(tokens)
            # Key 0 is long evicted: the read must go to the device.
            outcome = yield from store.start_read(thread, 0)
            assert outcome.source == "device"
            while True:
                tokens = yield from dep.backends[0].poll_completions(
                    thread, block=True
                )
                keys = yield from store.complete(thread, tokens)
                if 0 in keys:
                    return outcome

        outcome = self.run(dep, app(), deadline=300e9)
        assert outcome.source == "device"
        assert store.stats_flushes > 0
        assert store.stats_reads_device >= 1
        assert device_reads.records == {
            store.index.get(0): [(0).to_bytes(KEY_BYTES, "little") + bytes(64)]
        }

    @staticmethod
    def ycsb_round(system, records):
        """A 2-thread FASTER/YCSB 50/50 round at a 25 % in-memory log,
        loaded but not run: returns the deployment, the store, the loader
        and a callable that runs the round."""
        value_bytes, threads = 64, 2
        ycsb = YcsbConfig(
            record_count=records, value_bytes=value_bytes, read_fraction=0.5, seed=3,
        )
        config = FasterConfig(
            value_bytes=value_bytes,
            log=_log_config_for(records, ycsb.record_bytes, 0.25),
        )
        dep = build_microbench(
            system, threads, remote_bytes=records * config.record_bytes * 2 + (1 << 20),
            pipeline_depth=32,
        )
        store = FasterKv(dep.backends[0], CostModel(), config)
        load_backing(dep, store)
        loader = YcsbWorkload(ycsb, worker_seed=0)
        store.load({key: loader.value_for(key) for key in range(records)})

        def run():
            processes = [
                dep.sim.spawn(ycsb_worker(
                    dep.compute.cpu.thread(f"faster-{i}"), store, dep.backends[i],
                    YcsbWorkload(ycsb, worker_seed=i + 1), 150, depth=32,
                ))
                for i in range(threads)
            ]
            for process in processes:
                dep.sim.run_until_complete(process, deadline=300e9)
            dep.close()

        return dep, store, loader, run

    @pytest.mark.parametrize("system", ["cowbird", "cowbird-p4"])
    def test_every_device_read_returns_the_record_it_names(self, system):
        """A FASTER/YCSB 50/50 round at a 25 % in-memory log: every record
        a device read brings back into the response ring is the one last
        loaded or upserted at that log address."""
        records = 2_000
        dep, store, loader, run = self.ycsb_round(system, records)
        expected = {
            store.index.get(key): key.to_bytes(KEY_BYTES, "little") + loader.value_for(key)
            for key in range(records)
        }
        write = store.log.write

        def recording_write(addr, data):
            expected[addr] = bytes(data)
            write(addr, data)

        store.log.write = recording_write  # every upsert's record
        device_reads = DeviceReads(dep.backends)
        run()
        assert store.stats_upserts > 0 and store.stats_flushes > 0
        assert device_reads.count() == store.stats_reads_device > 50
        wrong = [
            addr for addr, got in device_reads.records.items()
            if got != [expected[addr]] * len(got)
        ]
        assert wrong == []

    @pytest.mark.parametrize("system", ["cowbird", "cowbird-p4"])
    def test_each_thread_completes_its_own_device_io(self, system):
        """The two threads' backends hand out the same tokens (a Cowbird
        token is its instance's request id), so the store keys its
        pending I/O by device: every flushed page finishes its flush, and
        every device read comes back through ``complete`` as its own key,
        once."""
        dep, store, _loader, run = self.ycsb_round(system, 2_000)
        read_keys, completed_keys = [], []
        start_read, complete = store.start_read, store.complete

        def recording_start_read(thread, key, device=None):
            outcome = yield from start_read(thread, key, device=device)
            if outcome.source == "device":
                read_keys.append(key)
            return outcome

        def recording_complete(thread, tokens, *device):
            keys = yield from complete(thread, tokens, *device)
            completed_keys.extend(keys)
            return keys

        store.start_read = recording_start_read
        store.complete = recording_complete
        run()
        assert store.stats_flushes > 0 and len(read_keys) > 50
        assert store.log._flushing == {}
        assert sorted(completed_keys) == sorted(read_keys)
        assert store.pending_reads() == 0

    def test_memory_budget_respected_after_flushes(self):
        dep, store = self.make_store(system="cowbird", memory_pages=2)
        thread = dep.compute.cpu.thread()

        def app():
            inflight = 0
            for key in range(200):
                flushes = yield from store.upsert(thread, key, b"a" * 64)
                inflight += flushes
                if inflight:
                    tokens = yield from dep.backends[0].poll_completions(
                        thread, block=True
                    )
                    yield from store.complete(thread, tokens)
                    inflight -= len(tokens)

        self.run(dep, app(), deadline=300e9)
        assert store.log.memory_page_count <= 3  # budget + tail page slack


class TestFasterBenchHarness:
    def test_local_run_produces_throughput(self):
        result = run_faster_bench("local", 2, record_count=2_000, ops_per_thread=50)
        assert result.throughput_mops > 0
        assert result.total_ops == 100
        assert result.device_fraction == 0.0

    def test_cowbird_run_hits_device(self):
        result = run_faster_bench(
            "cowbird", 2, record_count=4_000, ops_per_thread=50,
            memory_fraction=0.1,
        )
        assert result.throughput_mops > 0
        assert result.device_fraction > 0.5

    def test_redy_out_of_cores_at_16(self):
        result = run_faster_bench("redy", 16, record_count=1_000, ops_per_thread=10)
        assert result.out_of_cores
        assert result.throughput_mops == 0.0

    def test_ssd_much_slower_than_remote_memory(self):
        ssd = run_faster_bench("ssd", 2, record_count=4_000, ops_per_thread=60)
        cowbird = run_faster_bench(
            "cowbird", 2, record_count=4_000, ops_per_thread=60,
        )
        assert cowbird.throughput_mops > 2.3 * ssd.throughput_mops

    def test_sync_rdma_communication_ratio_dominates(self):
        """Figure 10's claim: sync RDMA spends >80 % in communication."""
        result = run_faster_bench(
            "one-sided", 2, record_count=4_000, ops_per_thread=60,
        )
        assert result.communication_ratio > 0.55

    def test_cowbird_communication_ratio_low(self):
        result = run_faster_bench(
            "cowbird", 1, record_count=4_000, ops_per_thread=100,
            pipeline_depth=128,
        )
        assert result.communication_ratio < 0.5
