"""Integration tests for the RNIC + QP + verbs stack over the testbed."""

import pytest

from repro.rdma.nic import NicConfig
from repro.rdma.qp import (
    CompletionQueue,
    CompletionStatus,
    WorkRequest,
    WorkType,
)
from repro.sim.network import FaultInjector
from repro.testbed import Testbed


def build_bed(**bed_kwargs):
    bed = Testbed(**bed_kwargs)
    compute = bed.add_host("compute", cpu_cores=4)
    pool = bed.add_host("pool")
    qp_c, qp_p = bed.connect_qps(compute, pool)
    return bed, compute, pool, qp_c, qp_p


def run_op(bed, generator, deadline=50_000_000):
    process = bed.sim.spawn(generator)
    return bed.sim.run_until_complete(process, deadline=deadline)


class TestOneSidedRead:
    def test_read_returns_remote_bytes(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096, name="remote")
        local = compute.registry.register(4096, name="local")
        remote.write(remote.base_addr + 100, b"paper-data")
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr + 100,
                remote.rkey, 10,
            )

        run_op(bed, op())
        assert local.read(local.base_addr, 10) == b"paper-data"

    def test_read_latency_includes_round_trip(self):
        """One-sided read = post + request flight + response flight +
        NIC processing; must be microseconds, not nanoseconds."""
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        thread = compute.cpu.thread()
        done_at = []

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 64
            )
            done_at.append(bed.sim.now)

        run_op(bed, op())
        assert 2_000 < done_at[0] < 10_000  # 2-10 us

    def test_large_read_segments_at_mtu(self):
        """Reads above 1024 B come back as First/Middle/Last responses."""
        bed, compute, pool, qp_c, qp_p = build_bed()
        remote = pool.registry.register(8192)
        local = compute.registry.register(8192)
        payload = bytes(i % 251 for i in range(3000))
        remote.write(remote.base_addr, payload)
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 3000
            )

        run_op(bed, op())
        assert local.read(local.base_addr, 3000) == payload
        # 3000 B at MTU 1024 -> 3 response packets + 1 request.
        assert qp_p.packets_sent == 3

    def test_read_consumes_one_psn_per_response_segment(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(8192)
        local = compute.registry.register(8192)
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 3000
            )

        run_op(bed, op())
        assert qp_c.send_psn == 3

    def test_sync_read_charges_post_and_spin_as_comm(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 64
            )

        run_op(bed, op())
        comm = thread.stats.cpu_ns.get("comm", 0.0)
        # Spin-wait burns the full round trip as communication CPU time.
        assert comm > 2_000
        assert thread.stats.cpu_ns.get("app", 0.0) == 0.0


class TestOneSidedWrite:
    def test_write_lands_in_remote_memory(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        local.write(local.base_addr, b"write-me")
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.write_sync(
                thread, qp_c, local.base_addr, remote.base_addr + 8,
                remote.rkey, 8,
            )

        run_op(bed, op())
        assert remote.read(remote.base_addr + 8, 8) == b"write-me"

    def test_multi_packet_write_train(self):
        bed, compute, pool, qp_c, qp_p = build_bed()
        remote = pool.registry.register(8192)
        local = compute.registry.register(8192)
        payload = bytes(i % 249 for i in range(2500))
        local.write(local.base_addr, payload)
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.write_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 2500
            )

        run_op(bed, op())
        assert remote.read(remote.base_addr, 2500) == payload
        # First + Middle + Last data packets then one ACK back.
        assert qp_c.packets_sent == 3
        assert qp_p.packets_sent == 1

    def test_write_completion_arrives_after_ack(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        thread = compute.cpu.thread()
        result = []

        def op():
            completion = yield from compute.verbs.write_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 128
            )
            result.append(completion)

        run_op(bed, op())
        assert result[0].status is CompletionStatus.SUCCESS
        assert result[0].work_type is WorkType.WRITE


class TestTwoSided:
    def test_send_recv_delivers_payload_and_completions(self):
        bed, compute, pool, qp_c, qp_p = build_bed()
        recv_buf = pool.registry.register(1024)
        qp_p.nic.post(
            qp_p,
            WorkRequest(
                work_type=WorkType.RECV,
                local_addr=recv_buf.base_addr,
                remote_addr=0, rkey=0, length=1024,
            ),
        )
        thread = compute.cpu.thread()

        def op():
            wr = WorkRequest(
                work_type=WorkType.SEND,
                local_addr=0, remote_addr=0, rkey=0,
                length=5, inline_payload=b"hello",
            )
            yield from compute.verbs.post_send(thread, qp_c, wr)
            yield from compute.verbs.spin_poll(thread, qp_c.cq, count=1)

        run_op(bed, op())
        assert recv_buf.read(recv_buf.base_addr, 5) == b"hello"
        recv_completions = qp_p.cq.poll()
        assert len(recv_completions) == 1
        assert recv_completions[0].work_type is WorkType.RECV
        assert recv_completions[0].byte_len == 5


class TestReliability:
    def test_lost_read_response_recovered_by_timeout(self):
        # The injector counts packets per link: the pool's first packet
        # out is the read response.
        injector = FaultInjector(seed=3, drop_exactly={"pool->switch": [1]})
        bed, compute, pool, qp_c, _ = build_bed(fault_injector=injector)
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        remote.write(remote.base_addr, b"survivor")
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 8
            )

        run_op(bed, op())
        assert local.read(local.base_addr, 8) == b"survivor"
        assert compute.nic.stats.retransmit_timeouts >= 1
        assert pool.uplink.stats.packets_dropped == 1
        assert injector.dropped == 1

    def test_lost_write_ack_recovered(self):
        # The compute node's first packet in is the ACK: kill its last hop.
        injector = FaultInjector(seed=3, drop_exactly={"switch->compute": [1]})
        bed, compute, pool, qp_c, _ = build_bed(fault_injector=injector)
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        local.write(local.base_addr, b"ackless")
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.write_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 7
            )

        run_op(bed, op())
        assert remote.read(remote.base_addr, 7) == b"ackless"
        assert pool.nic.stats.duplicates >= 1
        assert compute.downlink.stats.packets_dropped == 1
        assert injector.dropped == 1

    def test_random_loss_eventually_completes_all_ops(self):
        injector = FaultInjector(seed=11, drop_rate=0.05)
        bed, compute, pool, qp_c, _ = build_bed(fault_injector=injector)
        remote = pool.registry.register(65536)
        local = compute.registry.register(65536)
        thread = compute.cpu.thread()
        completed = []

        def op():
            for i in range(30):
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, remote.base_addr + 64 * i,
                    remote.rkey, 64,
                )
                completed.append(i)

        run_op(bed, op(), deadline=1_000_000_000)
        assert len(completed) == 30

    def test_ack_never_completes_read_with_lost_response(self):
        """Regression: a cumulative ACK for a later WRITE must not
        retire an earlier READ whose response packets were dropped —
        the read has no data and must be retried, not completed."""
        # The pool's first packet out is the read response (DROPPED);
        # the write train and its ACK flow normally.
        injector = FaultInjector(seed=3, drop_exactly={"pool->switch": [1]})
        bed, compute, pool, qp_c, _ = build_bed(fault_injector=injector)
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        remote.write(remote.base_addr, b"must-see-this!")
        local.write(local.base_addr + 2048, b"w" * 16)
        thread = compute.cpu.thread()
        results = []

        def op():
            # Pipeline a read then a write on the same QP.
            yield from compute.verbs.read_async(
                thread, qp_c, local.base_addr, remote.base_addr,
                remote.rkey, 14,
            )
            yield from compute.verbs.write_async(
                thread, qp_c, local.base_addr + 2048,
                remote.base_addr + 2048, remote.rkey, 16,
            )
            completions = yield from compute.verbs.spin_poll(
                thread, qp_c.cq, count=2
            )
            results.extend(completions)

        run_op(bed, op(), deadline=10_000_000_000)
        assert len(results) == 2
        assert all(c.status is CompletionStatus.SUCCESS for c in results)
        # The read's data is real, not a garbage buffer.
        assert local.read(local.base_addr, 14) == b"must-see-this!"
        assert pool.uplink.stats.packets_dropped == 1
        assert injector.dropped == 1

    def test_total_blackhole_exhausts_retries(self):
        injector = FaultInjector(seed=1, drop_rate=1.0)
        bed, compute, pool, qp_c, _ = build_bed(fault_injector=injector)
        remote = pool.registry.register(4096)
        local = compute.registry.register(4096)
        thread = compute.cpu.thread()
        failed = []

        def op():
            try:
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 8
                )
            except Exception as exc:  # noqa: BLE001 - asserting on type below
                failed.append(exc)

        run_op(bed, op(), deadline=10_000_000_000)
        assert len(failed) == 1
        assert "retry_exceeded" in str(failed[0])

    def test_bad_rkey_produces_nak(self):
        bed, compute, pool, qp_c, _ = build_bed()
        pool.registry.register(4096)
        local = compute.registry.register(4096)
        thread = compute.cpu.thread()

        def op():
            try:
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, 0x4000_0000, 0xBAD_0000, 8
                )
            except Exception:  # noqa: BLE001 - retry exhaustion expected
                pass

        run_op(bed, op(), deadline=10_000_000_000)
        assert pool.nic.stats.naks_sent >= 1


class TestNicPacing:
    def test_message_rate_limits_initiation(self):
        """At 1 Mops the NIC spaces initiations 1000 ns apart."""
        bed = Testbed()
        compute = bed.add_host(
            "compute", cpu_cores=4, nic_config=NicConfig(message_rate_mops=1.0)
        )
        pool = bed.add_host("pool")
        qp_c, _ = bed.connect_qps(compute, pool)
        remote = pool.registry.register(65536)
        local = compute.registry.register(65536)
        thread = compute.cpu.thread()

        def op():
            for i in range(10):
                yield from compute.verbs.read_async(
                    thread, qp_c, local.base_addr + i * 64,
                    remote.base_addr + i * 64, remote.rkey, 64,
                )
            yield from compute.verbs.spin_poll(thread, qp_c.cq, count=10)

        run_op(bed, op())
        # 10 messages at 1 Mops -> at least 9 us of pacing alone.
        assert bed.sim.now > 9_000

    def test_unconnected_qp_rejects_post(self):
        bed = Testbed()
        compute = bed.add_host("compute", cpu_cores=1)
        qp = compute.nic.create_qp()
        with pytest.raises(RuntimeError, match="not connected"):
            compute.nic.post(
                qp,
                WorkRequest(
                    work_type=WorkType.READ, local_addr=0, remote_addr=0,
                    rkey=0, length=8,
                ),
            )


class TestCompletionQueue:
    def test_poll_respects_max_entries(self):
        cq = CompletionQueue()
        from repro.rdma.qp import Completion

        for i in range(5):
            cq.push(Completion(
                wr_id=i, status=CompletionStatus.SUCCESS,
                work_type=WorkType.READ, byte_len=8, qp_num=1,
            ))
        assert len(cq.poll(max_entries=3)) == 3
        assert len(cq.poll(max_entries=10)) == 2
        assert cq.poll() == []

    def test_overflow_counted(self):
        from repro.rdma.qp import Completion

        cq = CompletionQueue(capacity=2)
        for i in range(4):
            cq.push(Completion(
                wr_id=i, status=CompletionStatus.SUCCESS,
                work_type=WorkType.READ, byte_len=8, qp_num=1,
            ))
        assert cq.overflows == 2
        assert len(cq) == 2

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CompletionQueue(capacity=0)
        cq = CompletionQueue()
        with pytest.raises(ValueError):
            cq.poll(max_entries=0)
