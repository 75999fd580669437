"""Unit/integration tests for the baseline systems (repro.baselines)."""

import pytest

from repro.baselines import (
    AifmConfig,
    LocalMemoryBackend,
    RedyBackend,
    RedyConfig,
    SsdConfig,
    SsdDrive,
)
from repro.experiments.common import build_microbench
from repro.sim.cpu import CostModel
from repro.sim.engine import Simulator
from repro.testbed import Testbed


def drive_worker(dep, backend_index, generator_fn, deadline=120e9):
    thread = dep.compute.cpu.thread()
    backend = dep.backends[backend_index]
    process = dep.sim.spawn(generator_fn(thread, backend))
    return dep.sim.run_until_complete(process, deadline=deadline), thread


def read_n(n, record_bytes=64):
    def gen(thread, backend):
        tokens = []
        for i in range(n):
            token = yield from backend.issue_read(thread, i * record_bytes,
                                                  record_bytes)
            tokens.append(token)
        done = []
        while len(done) < n:
            got = yield from backend.poll_completions(thread, max_ret=n, block=True)
            done.extend(got)
        return (tokens, done)

    return gen


class TestLocalMemoryBackend:
    def test_reads_complete_immediately(self):
        dep = build_microbench("local", 1)
        (tokens, done), thread = drive_worker(dep, 0, read_n(5))
        assert sorted(done) == sorted(tokens)

    def test_costs_are_app_not_comm(self):
        dep = build_microbench("local", 1)
        _result, thread = drive_worker(dep, 0, read_n(10))
        assert thread.stats.cpu_ns.get("comm", 0.0) == 0.0
        assert thread.stats.cpu_ns.get("app", 0.0) > 0.0


class TestOneSidedBackends:
    def test_sync_backend_moves_real_bytes(self):
        dep = build_microbench("one-sided", 1)
        pool_region = dep.pool_host.registry.by_rkey(dep.backends[0].region.rkey)
        pool_region.write(dep.backends[0].region.translate(0), b"Z" * 64)

        def gen(thread, backend):
            token = yield from backend.issue_read(thread, 0, 64)
            got = yield from backend.poll_completions(thread, max_ret=1)
            return token, got

        (token, got), thread = drive_worker(dep, 0, gen)
        assert got == [token]
        # The DMA target (backend scratch) holds the remote bytes.
        scratch = dep.backends[0].scratch
        assert scratch.read(scratch.base_addr, 64) == b"Z" * 64

    def test_sync_burns_round_trip_as_comm_cpu(self):
        dep = build_microbench("one-sided", 1)
        _result, thread = drive_worker(dep, 0, read_n(3))
        # Three round trips of busy polling: microseconds of comm CPU.
        assert thread.stats.cpu_ns["comm"] > 5_000

    def test_async_pipelines_round_trips(self):
        """100 pipelined reads must take far less than 100 RTTs."""
        dep = build_microbench("async", 1)
        _result, _thread = drive_worker(dep, 0, read_n(100))
        assert dep.sim.now < 100 * 2_000  # « 100 x RTT(~3 us)

    def test_async_charges_post_and_poll_per_op(self):
        dep = build_microbench("async", 1)
        _result, thread = drive_worker(dep, 0, read_n(50))
        cost = CostModel()
        per_op = thread.stats.cpu_ns["comm"] / 50
        assert per_op >= cost.rdma_post_total()

    def test_two_sided_uses_pool_cpu(self):
        dep = build_microbench("two-sided", 1)
        _result, _thread = drive_worker(dep, 0, read_n(3))
        server_threads = dep.pool_host.cpu._next_thread_id
        assert server_threads >= 1
        assert dep.pool_host.nic.stats.messages_initiated > 0

    def test_two_sided_server_reuses_one_staging_region(self):
        dep = build_microbench("two-sided", 1)
        backend = dep.backends[0]
        pool_region = dep.pool_host.registry.by_rkey(backend.region.rkey)
        for i in range(3):
            pool_region.write(backend.region.translate(i * 64), bytes([i + 1]) * 64)
        drive_worker(dep, 0, read_n(1))
        regions_after_one_read = len(dep.pool_host.registry)
        drive_worker(dep, 0, read_n(3))
        # Each read is staged in the same server region, not a new one.
        assert len(dep.pool_host.registry) == regions_after_one_read
        # The last three replies landed in the client's scratch in order.
        scratch = backend.scratch
        replies = scratch.read(scratch.base_addr + 64, 3 * 64)
        assert replies == b"".join(bytes([i + 1]) * 64 for i in range(3))


class TestSsd:
    def test_drive_latency_floor(self):
        sim = Simulator()
        drive = SsdDrive(sim, SsdConfig())
        future = drive.submit(512)
        sim.run()
        assert future.done
        assert sim.now >= 80_000  # access latency

    def test_queue_depth_limits_parallelism(self):
        sim = Simulator()
        config = SsdConfig(queue_depth=2)
        drive = SsdDrive(sim, config)
        futures = [drive.submit(512) for _ in range(6)]
        sim.run()
        assert all(f.done for f in futures)
        # 6 I/Os in 3 serialized waves of 2: at least ~3 access times.
        assert sim.now >= 3 * config.access_latency_ns * 0.9

    def test_bandwidth_caps_large_transfers(self):
        sim = Simulator()
        drive = SsdDrive(sim, SsdConfig())
        size = 1 << 20  # 1 MB at 6 Gb/s = ~1.4 ms
        future = drive.submit(size)
        sim.run()
        assert future.done
        assert sim.now >= (size * 8) / 6.0 * 0.9

    def test_sector_rounding(self):
        sim = Simulator()
        drive = SsdDrive(sim, SsdConfig())
        drive.submit(8)  # one sector minimum
        sim.run()
        assert drive.bytes_transferred == 512

    def test_invalid_io_rejected(self):
        sim = Simulator()
        drive = SsdDrive(sim)
        with pytest.raises(ValueError):
            drive.submit(0)

    def test_backend_round_trip_with_backing(self):
        dep = build_microbench("ssd", 1)
        backend = dep.backends[0]
        backend.backing_write(0, b"cold-page")
        assert backend.backing_read(0, 9) == b"cold-page"

    def test_per_thread_completion_routing(self):
        """Two threads sharing the drive must not steal each other's
        completions."""
        dep = build_microbench("ssd", 2)
        results = {}

        def gen(name, thread, backend):
            token = yield from backend.issue_read(thread, 0, 64)
            got = yield from backend.poll_completions(thread, max_ret=8, block=True)
            results[name] = (token, got)

        t1 = dep.compute.cpu.thread()
        t2 = dep.compute.cpu.thread()
        p1 = dep.sim.spawn(gen("a", t1, dep.backends[0]))
        p2 = dep.sim.spawn(gen("b", t2, dep.backends[1]))
        dep.sim.run_until_complete(p1, deadline=10e9)
        dep.sim.run_until_complete(p2, deadline=10e9)
        assert results["a"][1] == [results["a"][0]]
        assert results["b"][1] == [results["b"][0]]


class TestRedy:
    def test_batches_requests(self):
        dep = build_microbench("redy", 2)
        _result, _thread = drive_worker(dep, 0, read_n(40))
        backend = dep.backends[0]
        assert backend.outstanding() == 0

    def test_io_threads_occupy_compute_cores(self):
        dep = build_microbench("redy", 4)
        _result, _thread = drive_worker(dep, 0, read_n(10))
        backend = dep.backends[0]
        assert len(backend.io_thread_objs) >= 1
        io_cpu = sum(
            t.stats.cpu_ns.get("comm", 0.0) for t in backend.io_thread_objs
        )
        assert io_cpu > 0  # the stolen cores did real work

    def test_app_thread_cost_is_cheap_enqueue(self):
        dep = build_microbench("redy", 1)
        _result, thread = drive_worker(dep, 0, read_n(20))
        per_op = thread.stats.cpu_ns["comm"] / 20
        # Enqueue + poll checks: far below one RDMA post.
        assert per_op < CostModel().rdma_post_total()

    def test_writes_reach_pool_memory(self):
        dep = build_microbench("redy", 1)
        handle = dep.backends[0].region

        def gen(thread, backend):
            token = yield from backend.issue_write(thread, 128, b"redy-write")
            got = []
            while not got:
                got = yield from backend.poll_completions(thread, block=True)
            return token

        drive_worker(dep, 0, gen)
        pool_region = dep.pool_host.registry.by_rkey(handle.rkey)
        assert pool_region.read(handle.translate(128), 10) == b"redy-write"

    def test_config_validation(self):
        bed = Testbed()
        compute = bed.add_host("c", cpu_cores=2)
        pool = bed.add_host("p")
        from repro.memory.pool import MemoryPool

        mp = MemoryPool("p")
        handle = mp.allocate_region(1024)
        with pytest.raises(ValueError, match="QP pair"):
            RedyBackend(compute, pool, handle, [], RedyConfig(io_threads=2))


class TestAifm:
    def test_iokernel_serializes_all_requests(self):
        """Aggregate AIFM throughput is capped by the IOKernel core."""
        dep = build_microbench("aifm", 4)
        import time

        def gen(thread, backend):
            tokens = set()
            for i in range(30):
                token = yield from backend.issue_read(thread, i * 8, 8)
                tokens.add(token)
                got = yield from backend.poll_completions(thread, max_ret=8)
                tokens.difference_update(got)
            while tokens:
                got = yield from backend.poll_completions(thread, max_ret=8,
                                                          block=True)
                tokens.difference_update(got)

        threads = [dep.compute.cpu.thread() for _ in range(4)]
        procs = [
            dep.sim.spawn(gen(threads[i], dep.backends[i])) for i in range(4)
        ]
        for p in procs:
            dep.sim.run_until_complete(p, deadline=120e9)
        config = AifmConfig()
        total_ops = 120
        # The IOKernel must have spent at least per-op CPU x ops.
        iokernel = dep.backends[0].iokernel_thread
        assert iokernel.stats.cpu_ns["comm"] >= total_ops * config.iokernel_per_op_ns * 0.99

    def test_per_op_cost_includes_switches(self):
        dep = build_microbench("aifm", 1)
        _result, thread = drive_worker(dep, 0, read_n(10, record_bytes=8))
        config = AifmConfig()
        per_op = thread.stats.cpu_ns["comm"] / 10
        assert per_op >= config.deref_ns + config.switch_ns

    def test_network_rtt_dominates_latency(self):
        dep = build_microbench("aifm", 1)
        _result, _thread = drive_worker(dep, 0, read_n(1, record_bytes=8))
        assert dep.sim.now >= AifmConfig().network_rtt_ns

    def test_writes_reach_pool_memory(self):
        dep = build_microbench("aifm", 1)
        handle = dep.backends[0].region

        def gen(thread, backend):
            yield from backend.issue_write(thread, 64, b"aifm-obj")
            got = []
            while not got:
                got = yield from backend.poll_completions(thread, block=True)

        drive_worker(dep, 0, gen)
        pool_region = dep.pool_host.registry.by_rkey(handle.rkey)
        assert pool_region.read(handle.translate(64), 8) == b"aifm-obj"
