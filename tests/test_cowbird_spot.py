"""Integration tests for the Cowbird-Spot offload engine (Section 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import build_microbench


def run_app(dep, generator, deadline=200_000_000):
    return dep.sim.run_until_complete(dep.sim.spawn(generator), deadline=deadline)


def read_write_roundtrip(dep, offset=0, payload=b"spot-engine-payload"):
    inst = dep.instances[0]
    thread = dep.compute.cpu.thread()

    def app():
        poll = inst.poll_create()
        wid = yield from inst.async_write(thread, 0, offset, payload)
        inst.poll_add(poll, wid)
        yield from inst.poll_wait(thread, poll, max_ret=1)
        rid = yield from inst.async_read(thread, 0, offset, len(payload))
        inst.poll_add(poll, rid)
        events = yield from inst.poll_wait(thread, poll, max_ret=1)
        return inst.fetch_response(events[0].request_id)

    return run_app(dep, app())


class TestBasicOperation:
    def test_read_returns_remote_bytes(self):
        dep = build_microbench("cowbird", 1)
        dep.pool_region().write(dep.region.translate(64), b"hello-cowbird")
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 64, 13)
            inst.poll_add(poll, rid)
            events = yield from inst.poll_wait(thread, poll)
            return inst.fetch_response(events[0].request_id)

        assert run_app(dep, app()) == b"hello-cowbird"

    def test_write_then_read_roundtrip(self):
        dep = build_microbench("cowbird", 1)
        assert read_write_roundtrip(dep) == b"spot-engine-payload"

    def test_write_lands_in_pool_memory(self):
        dep = build_microbench("cowbird", 1)
        read_write_roundtrip(dep, offset=256, payload=b"persisted")
        assert dep.pool_region().read(dep.region.translate(256), 9) == b"persisted"

    def test_compute_node_posts_no_rdma_messages(self):
        """The headline property: zero compute-side RDMA operations."""
        dep = build_microbench("cowbird", 1)
        read_write_roundtrip(dep)
        assert dep.compute.nic.stats.messages_initiated == 0

    def test_compute_cpu_time_is_tens_of_ns_per_op(self):
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        n = 20

        def app():
            poll = inst.poll_create()
            for i in range(n):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
            done = 0
            while done < n:
                events = yield from inst.poll_wait(thread, poll, max_ret=n)
                done += len(events)

        run_app(dep, app())
        comm = thread.stats.cpu_ns.get("comm", 0.0)
        assert comm / n < 100  # tens of ns per op, not ~630

    def test_large_transfer_spans_mtu_segments(self):
        dep = build_microbench("cowbird", 1)
        payload = bytes(i % 251 for i in range(5000))
        assert read_write_roundtrip(dep, payload=payload) == payload

    def test_many_interleaved_ops(self):
        dep = build_microbench("cowbird", 1, seed=7)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        import random

        rng = random.Random(7)
        expected = {}

        def app():
            poll = inst.poll_create()
            pending = 0
            for i in range(40):
                offset = i * 128
                if rng.random() < 0.5:
                    data = bytes([i]) * 64
                    expected[offset] = data
                    rid = yield from inst.async_write(thread, 0, offset, data)
                else:
                    rid = yield from inst.async_read(thread, 0, offset, 64)
                inst.poll_add(poll, rid)
                pending += 1
            while pending:
                events = yield from inst.poll_wait(thread, poll, max_ret=64)
                pending -= len(events)

        run_app(dep, app())
        pool_region = dep.pool_region()
        for offset, data in expected.items():
            assert pool_region.read(dep.region.translate(offset), 64) == data


class TestBatching:
    def test_batch_flush_counts(self):
        dep = build_microbench("cowbird", 1, engine_config={"batch_size": 8})
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            for i in range(16):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
            done = 0
            while done < 16:
                events = yield from inst.poll_wait(thread, poll, max_ret=16)
                done += len(events)

        run_app(dep, app())
        stats = dep.engine.stats
        assert stats.reads_executed == 16
        assert stats.batches_flushed >= 2
        assert stats.batch_entries_total == 16

    def test_batching_disabled_means_one_flush_per_read(self):
        dep = build_microbench("cowbird", 1, engine_config={"batch_size": 1})
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            for i in range(5):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
            done = 0
            while done < 5:
                events = yield from inst.poll_wait(thread, poll, max_ret=8)
                done += len(events)

        run_app(dep, app())
        assert dep.engine.stats.batches_flushed == 5

    def test_partial_batch_flushes_when_idle(self):
        """A batch below BATCH_SIZE must not wait forever."""
        dep = build_microbench("cowbird", 1, engine_config={"batch_size": 100})
        assert read_write_roundtrip(dep) == b"spot-engine-payload"
        assert dep.engine.stats.batches_flushed >= 1

    def test_batching_reduces_rdma_calls(self):
        def run_with(batch_size):
            dep = build_microbench(
                "cowbird", 1, engine_config={"batch_size": batch_size}
            )
            inst = dep.instances[0]
            thread = dep.compute.cpu.thread()

            def app():
                poll = inst.poll_create()
                for i in range(32):
                    rid = yield from inst.async_read(thread, 0, i * 64, 64)
                    inst.poll_add(poll, rid)
                done = 0
                while done < 32:
                    events = yield from inst.poll_wait(thread, poll, max_ret=32)
                    done += len(events)

            run_app(dep, app())
            return dep.compute.nic.stats.rx_packets

        # Batched responses mean far fewer packets hit the compute RNIC.
        assert run_with(batch_size=32) < run_with(batch_size=1)


class TestConsistency:
    def test_read_after_write_same_address_sees_new_data(self):
        """Per-range linearizability: the overlap check must hold the
        read until the conflicting write completes."""
        dep = build_microbench("cowbird", 1)
        dep.pool_region().write(dep.region.translate(0), b"OLD-OLD-")
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            wid = yield from inst.async_write(thread, 0, 0, b"NEW-NEW-")
            rid = yield from inst.async_read(thread, 0, 0, 8)
            inst.poll_add(poll, wid)
            inst.poll_add(poll, rid)
            done = 0
            while done < 2:
                events = yield from inst.poll_wait(thread, poll, max_ret=2)
                done += len(events)
            return inst.fetch_response(rid)

        assert run_app(dep, app()) == b"NEW-NEW-"

    def test_non_overlapping_read_not_stalled(self):
        dep = build_microbench("cowbird", 1)
        dep.pool_region().write(dep.region.translate(4096), b"disjoint")
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            wid = yield from inst.async_write(thread, 0, 0, b"w" * 512)
            rid = yield from inst.async_read(thread, 0, 4096, 8)
            inst.poll_add(poll, wid)
            inst.poll_add(poll, rid)
            done = 0
            while done < 2:
                events = yield from inst.poll_wait(thread, poll, max_ret=2)
                done += len(events)
            return inst.fetch_response(rid)

        assert run_app(dep, app()) == b"disjoint"
        assert dep.engine.stats.overlap_stalls == 0

    def test_overlap_stall_is_counted(self):
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            wid = yield from inst.async_write(thread, 0, 0, b"x" * 256)
            rid = yield from inst.async_read(thread, 0, 128, 64)  # overlaps
            inst.poll_add(poll, wid)
            inst.poll_add(poll, rid)
            done = 0
            while done < 2:
                events = yield from inst.poll_wait(thread, poll, max_ret=2)
                done += len(events)

        run_app(dep, app())
        assert dep.engine.stats.overlap_stalls >= 1

    def test_writes_complete_in_issue_order(self):
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        completions = []

        def app():
            poll = inst.poll_create()
            ids = []
            for i in range(6):
                wid = yield from inst.async_write(thread, 0, i * 64, bytes([i]) * 8)
                inst.poll_add(poll, wid)
                ids.append(wid)
            done = 0
            while done < 6:
                events = yield from inst.poll_wait(thread, poll, max_ret=8)
                completions.extend(e.request_id for e in events)
                done += len(events)
            return ids

        ids = run_app(dep, app())
        assert completions == ids  # linearized, FIFO per type


class TestResourceUsage:
    def test_agent_limited_to_one_core(self):
        dep = build_microbench("cowbird", 1)
        assert dep.agent_host.cpu.physical_cores == 1
        assert dep.agent_host.cpu.hardware_threads == 2

    def test_agent_cpu_accounted(self):
        dep = build_microbench("cowbird", 1)
        read_write_roundtrip(dep)
        assert dep.engine.agent_cpu_ns() > 0

    def test_pool_needs_no_cpu(self):
        dep = build_microbench("cowbird", 1)
        read_write_roundtrip(dep)
        assert dep.pool_host.cpu is None


class TestMultiInstance:
    def test_two_instances_serviced_independently(self):
        dep = build_microbench("cowbird", 2)
        dep.pool_region().write(dep.region.translate(0), b"AAAA")
        dep.pool_region().write(dep.region.translate(64), b"BBBB")
        threads = [dep.compute.cpu.thread() for _ in range(2)]
        results = {}

        def app(index, inst, thread, offset):
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, offset, 4)
            inst.poll_add(poll, rid)
            events = yield from inst.poll_wait(thread, poll)
            results[index] = inst.fetch_response(events[0].request_id)

        sim = dep.sim
        p1 = sim.spawn(app(0, dep.instances[0], threads[0], 0))
        p2 = sim.spawn(app(1, dep.instances[1], threads[1], 64))
        sim.run_until_complete(p1, deadline=100_000_000)
        sim.run_until_complete(p2, deadline=100_000_000)
        assert results == {0: b"AAAA", 1: b"BBBB"}


def _sort_and_merge(ranges, offset, aligned):
    """The staging free-list update as a full sort and merge."""
    merged = []
    for start, size in sorted(ranges + [(offset, aligned)]):
        if merged and merged[-1][0] + merged[-1][1] == start:
            merged[-1] = (merged[-1][0], merged[-1][1] + size)
        else:
            merged.append((start, size))
    return merged


class TestStagingFreeList:
    @pytest.fixture(scope="class")
    def engine(self):
        return build_microbench(
            "cowbird", 1, engine_config={"staging_bytes": 1 << 20}
        ).engine

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.booleans(), st.integers(1, 40_000), st.integers(0, 1 << 16)),
        max_size=80,
    ))
    def test_matches_sort_and_merge(self, engine, steps):
        """Random first-fit allocations and frees in random order: the
        incremental free list equals a full sort and merge after every
        free, so first fit hands out the same addresses."""
        base = engine.staging.base_addr
        engine._free_ranges = [
            (engine._transient_base, engine.staging.length - engine._transient_base)
        ]
        want = list(engine._free_ranges)
        live = []
        for allocate, length, pick in steps:
            if allocate or not live:
                try:
                    addr = engine._batch_staging(length)
                except MemoryError:
                    continue
                live.append((addr, length))
                want = list(engine._free_ranges)
            else:
                addr, length = live.pop(pick % len(live))
                want = _sort_and_merge(want, addr - base, (length + 63) & ~63)
                engine._free_staging(addr, length)
                assert engine._free_ranges == want
        for addr, length in live:
            want = _sort_and_merge(want, addr - base, (length + 63) & ~63)
            engine._free_staging(addr, length)
            assert engine._free_ranges == want
        assert want == [
            (engine._transient_base, engine.staging.length - engine._transient_base)
        ]
