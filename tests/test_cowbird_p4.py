"""Integration tests for the Cowbird-P4 offload engine (Section 5)."""

import pytest

from repro.cowbird.p4_resources import (
    cowbird_pipeline_units,
    estimate_pipeline_resources,
)
from repro.experiments.common import build_microbench
from repro.sim.network import FaultInjector, PRIORITY_LOW


def run_app(dep, generator, deadline=500_000_000):
    return dep.sim.run_until_complete(dep.sim.spawn(generator), deadline=deadline)


def roundtrip(dep, offset=0, payload=b"p4-engine-payload"):
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
        dep = build_microbench("cowbird-p4", 1)
        dep.pool_region().write(dep.region.translate(32), b"switch-read")
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 32, 11)
            inst.poll_add(poll, rid)
            events = yield from inst.poll_wait(thread, poll)
            return inst.fetch_response(events[0].request_id)

        assert run_app(dep, app()) == b"switch-read"

    def test_write_then_read_roundtrip(self):
        dep = build_microbench("cowbird-p4", 1)
        assert roundtrip(dep) == b"p4-engine-payload"

    def test_write_lands_in_pool_memory(self):
        dep = build_microbench("cowbird-p4", 1)
        roundtrip(dep, offset=512, payload=b"to-the-pool")
        assert dep.pool_region().read(dep.region.translate(512), 11) == b"to-the-pool"

    def test_no_cpu_anywhere_but_the_app(self):
        """Cowbird-P4 requires no compute, pool, or agent CPU at all."""
        dep = build_microbench("cowbird-p4", 1)
        roundtrip(dep)
        assert dep.compute.nic.stats.messages_initiated == 0
        assert dep.pool_host.cpu is None
        assert dep.agent_host is None

    def test_segmented_transfer(self):
        dep = build_microbench("cowbird-p4", 1)
        payload = bytes(i % 253 for i in range(4000))
        assert roundtrip(dep, payload=payload) == payload

    def test_pipelined_reads(self):
        dep = build_microbench("cowbird-p4", 1)
        pool_region = dep.pool_region()
        for i in range(16):
            pool_region.write(dep.region.translate(i * 64), bytes([i]) * 64)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rids = []
            for i in range(16):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
                rids.append(rid)
            done = 0
            while done < 16:
                events = yield from inst.poll_wait(thread, poll, max_ret=16)
                done += len(events)
            return [inst.fetch_response(rid) for rid in rids]

        results = run_app(dep, app())
        assert results == [bytes([i]) * 64 for i in range(16)]


class TestPacketRecycling:
    def test_recycling_dominates_generation(self):
        """Only probes are generated; everything else is recycled."""
        dep = build_microbench("cowbird-p4", 1)
        roundtrip(dep)
        stats = dep.engine.stats
        assert stats.recycled_packets > 0
        assert stats.probe_responses > 0

    def test_probes_are_lowest_priority(self):
        dep = build_microbench("cowbird-p4", 1)
        roundtrip(dep)
        # Probe traffic shows up in the low-priority byte counters of the
        # switch->compute link; data traffic in the normal class.
        downlink = dep.bed.switch.port_to("compute")
        assert downlink.stats.bytes_by_priority.get(PRIORITY_LOW, 0) > 0

    def test_probe_rate_respects_interval(self):
        dep = build_microbench(
            "cowbird-p4", 1, engine_config={"probe_interval_ns": 2_000}
        )
        dep.sim.run(until=100_000)
        # 100 us / 2 us = 50 ticks; only one probe outstanding at a time.
        assert dep.engine.stats.probes_sent <= 51
        assert dep.engine.stats.probes_sent >= 10

    def test_adaptive_probing_backs_off_when_idle(self):
        dep = build_microbench(
            "cowbird-p4", 1,
            engine_config={"probe_interval_ns": 2_000, "adaptive_probing": True},
        )
        dep.sim.run(until=500_000)
        idle_probes = dep.engine.stats.probes_sent
        fixed = build_microbench(
            "cowbird-p4", 1, engine_config={"probe_interval_ns": 2_000}
        )
        fixed.sim.run(until=500_000)
        assert idle_probes < fixed.engine.stats.probes_sent


class TestConsistency:
    def test_read_after_write_sees_new_data(self):
        """Pause-all-reads keeps reads behind in-flight writes."""
        dep = build_microbench("cowbird-p4", 1)
        dep.pool_region().write(dep.region.translate(0), b"OLDVALUE")
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            wid = yield from inst.async_write(thread, 0, 0, b"NEWVALUE")
            rid = yield from inst.async_read(thread, 0, 0, 8)
            inst.poll_add(poll, wid)
            inst.poll_add(poll, rid)
            done = 0
            while done < 2:
                events = yield from inst.poll_wait(thread, poll, max_ret=2)
                done += len(events)
            return inst.fetch_response(rid)

        assert run_app(dep, app()) == b"NEWVALUE"

    def test_all_reads_pause_even_disjoint_ones(self):
        """Unlike Spot, P4 pauses every read while a write fetches."""
        dep = build_microbench("cowbird-p4", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            wid = yield from inst.async_write(thread, 0, 0, b"w" * 1024)
            rid = yield from inst.async_read(thread, 0, 8192, 64)  # disjoint
            inst.poll_add(poll, wid)
            inst.poll_add(poll, rid)
            done = 0
            while done < 2:
                events = yield from inst.poll_wait(thread, poll, max_ret=2)
                done += len(events)

        run_app(dep, app())
        assert dep.engine.stats.reads_paused >= 0  # counted when batched together

    def test_per_type_fifo_completion_order(self):
        dep = build_microbench("cowbird-p4", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        order = []

        def app():
            poll = inst.poll_create()
            rids = []
            for i in range(5):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
                rids.append(rid)
            done = 0
            while done < 5:
                events = yield from inst.poll_wait(thread, poll, max_ret=8)
                order.extend(e.request_id for e in events)
                done += len(events)
            return rids

        rids = run_app(dep, app())
        assert order == rids


class TestFaultTolerance:
    def test_recovers_from_random_loss(self):
        injector = FaultInjector(seed=5, drop_rate=0.02)
        dep = build_microbench(
            "cowbird-p4", 1, fault_injector=injector,
            engine_config={"timeout_ns": 100_000},
        )
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        pool_region = dep.pool_region()
        for i in range(20):
            pool_region.write(dep.region.translate(i * 64), bytes([i + 1]) * 64)

        def app():
            poll = inst.poll_create()
            rids = []
            for i in range(20):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
                rids.append(rid)
            done = 0
            while done < 20:
                events = yield from inst.poll_wait(thread, poll, max_ret=32)
                done += len(events)
            return [inst.fetch_response(rid) for rid in rids]

        results = run_app(dep, app(), deadline=5_000_000_000)
        assert results == [bytes([i + 1]) * 64 for i in range(20)]

    def test_go_back_n_counted_under_loss(self):
        injector = FaultInjector(seed=9, drop_rate=0.1)
        dep = build_microbench(
            "cowbird-p4", 1, fault_injector=injector,
            engine_config={"timeout_ns": 50_000},
        )
        roundtrip(dep)
        assert dep.engine.stats.go_back_n_events >= 1

    def test_write_recovery_preserves_data(self):
        injector = FaultInjector(seed=13, drop_rate=0.05)
        dep = build_microbench(
            "cowbird-p4", 1, fault_injector=injector,
            engine_config={"timeout_ns": 100_000},
        )
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            ids = []
            for i in range(10):
                wid = yield from inst.async_write(thread, 0, i * 64, bytes([i]) * 64)
                inst.poll_add(poll, wid)
                ids.append(wid)
            done = 0
            while done < 10:
                events = yield from inst.poll_wait(thread, poll, max_ret=16)
                done += len(events)

        run_app(dep, app(), deadline=5_000_000_000)
        pool_region = dep.pool_region()
        for i in range(10):
            assert pool_region.read(dep.region.translate(i * 64), 64) == bytes([i]) * 64


class TestMultiInstanceTdm:
    def test_probes_round_robin_across_instances(self):
        dep = build_microbench("cowbird-p4", 3)
        dep.sim.run(until=100_000)
        # All three instances' probe channels saw traffic.
        for state in dep.engine._instances:
            assert state.probe_channel.window.send_psn > 0

    def test_instances_do_not_interfere(self):
        dep = build_microbench("cowbird-p4", 2)
        dep.pool_region().write(dep.region.translate(0), b"XXXX")
        dep.pool_region().write(dep.region.translate(64), b"YYYY")
        results = {}
        threads = [dep.compute.cpu.thread() for _ in range(2)]

        def app(index, inst, thread, offset):
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, offset, 4)
            inst.poll_add(poll, rid)
            events = yield from inst.poll_wait(thread, poll)
            results[index] = inst.fetch_response(events[0].request_id)

        sim = dep.sim
        p1 = sim.spawn(app(0, dep.instances[0], threads[0], 0))
        p2 = sim.spawn(app(1, dep.instances[1], threads[1], 64))
        sim.run_until_complete(p1, deadline=500_000_000)
        sim.run_until_complete(p2, deadline=500_000_000)
        assert results == {0: b"XXXX", 1: b"YYYY"}


class TestTable5Resources:
    def test_matches_paper_row(self):
        resources = estimate_pipeline_resources()
        assert resources.phv_bits == 1085
        assert resources.sram_kb == 1424
        assert resources.tcam_kb == pytest.approx(1.28)
        assert resources.stages == 12
        assert resources.vliw_instructions == 38
        assert resources.stateful_alus == 11

    def test_fits_tofino(self):
        assert estimate_pipeline_resources().fits_tofino()

    def test_without_l3_forwarding_is_smaller(self):
        bare = estimate_pipeline_resources(
            cowbird_pipeline_units(l3_forwarding=False)
        )
        full = estimate_pipeline_resources()
        assert bare.sram_kb < full.sram_kb
        assert bare.stages <= full.stages
