"""Integration tests for the RNIC + QP + verbs stack over the testbed."""

import pytest

from repro.rdma.nic import NicConfig
from repro.rdma.packets import Opcode, RocePacket
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
        assert qp_c.window.send_psn == 3

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
        failed = []

        def op():
            try:
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, 0x4000_0000, 0xBAD_0000, 8
                )
            except Exception as exc:  # noqa: BLE001 - asserting on the message below
                failed.append(exc)

        run_op(bed, op(), deadline=10_000_000_000)
        assert pool.nic.stats.naks_sent == 1
        assert len(failed) == 1
        assert "remote_access_error" in str(failed[0])
        assert qp_c.retransmissions == 0


def _write_train(qp, region, payload, first_psn, mtu=1024):
    """The packets of one WRITE of ``payload`` to ``region``'s base."""
    chunks = [payload[i : i + mtu] for i in range(0, len(payload), mtu)]
    opcodes = (
        [Opcode.RC_RDMA_WRITE_ONLY] if len(chunks) == 1 else
        [Opcode.RC_RDMA_WRITE_FIRST]
        + [Opcode.RC_RDMA_WRITE_MIDDLE] * (len(chunks) - 2)
        + [Opcode.RC_RDMA_WRITE_LAST]
    )
    return [
        RocePacket(
            src="compute", dst="pool", opcode=opcode, dest_qp=qp.qpn,
            psn=first_psn + i, ack_request=i == len(chunks) - 1,
            payload=chunk,
            **({"virtual_address": region.base_addr, "remote_key": region.rkey,
                "dma_length": len(payload)} if i == 0 else {}),
        )
        for i, (opcode, chunk) in enumerate(zip(opcodes, chunks))
    ]


class TestDuplicates:
    """A requester replay sends requests the responder executed already.
    Duplicates execute again, but a duplicate multi-packet write lands
    only with a replay that reaches the expected PSN whole."""

    def deliver(self, pool, packets):
        for packet in packets:
            pool.nic.receive(packet, None)

    def test_a_replay_cut_short_lands_no_older_write(self):
        bed, compute, pool, qp_c, qp_p = build_bed()
        remote = pool.registry.register(8192)
        older = _write_train(qp_p, remote, b"1" * 2560, 0)
        newer = _write_train(qp_p, remote, b"2" * 2560, 3)
        self.deliver(pool, older + newer)
        assert qp_p.expected_psn == 6
        # The replay loses the newer write's middle packet.
        self.deliver(pool, older + [newer[0], newer[2]])
        assert remote.read(remote.base_addr, 2560) == b"2" * 2560

    def test_a_whole_replay_lands_in_psn_order(self):
        bed, compute, pool, qp_c, qp_p = build_bed()
        remote = pool.registry.register(8192)
        self.deliver(pool, _write_train(qp_p, remote, b"1" * 2560, 0))
        self.deliver(pool, _write_train(qp_p, remote, b"2" * 2560, 3))
        replay = (
            _write_train(qp_p, remote, b"3" * 2560, 0)
            + _write_train(qp_p, remote, b"4" * 2560, 3)
        )
        self.deliver(pool, replay[:-1])
        assert remote.read(remote.base_addr, 2560) == b"2" * 2560  # held
        self.deliver(pool, replay[-1:])
        assert remote.read(remote.base_addr, 2560) == b"4" * 2560
        assert pool.nic.stats.duplicates == 6

    def test_a_duplicate_read_of_a_half_written_range_is_not_answered(self):
        bed, compute, pool, qp_c, qp_p = build_bed()
        remote = pool.registry.register(8192)
        read = RocePacket(
            src="compute", dst="pool", opcode=Opcode.RC_RDMA_READ_REQUEST,
            dest_qp=qp_p.qpn, psn=0, ack_request=True,
            virtual_address=remote.base_addr, remote_key=remote.rkey, dma_length=64,
        )
        write = _write_train(qp_p, remote, b"w" * 2560, 1)
        self.deliver(pool, [read] + write[:2])  # the write's last packet is late
        sent = qp_p.packets_sent
        self.deliver(pool, [read])
        assert qp_p.packets_sent == sent  # it would return a torn range
        self.deliver(pool, write[2:] + [read])
        assert qp_p.packets_sent == sent + 2  # the write's ACK, then the read


class TestWriteContinuations:
    """A multi-packet write's middle and last packets continue the write
    its first packet opened.  One that arrives in sequence with no write
    open is NAKed and writes nothing."""

    def continuation(self, qp, psn, payload):
        return RocePacket(
            src="compute", dst="pool", opcode=Opcode.RC_RDMA_WRITE_MIDDLE,
            dest_qp=qp.qpn, psn=psn, payload=payload,
        )

    @pytest.mark.parametrize("size", [64, 2560], ids=["single", "train"])
    def test_a_continuation_after_a_whole_write_is_naked(self, size):
        bed, compute, pool, qp_c, qp_p = build_bed()
        remote = pool.registry.register(8192)
        train = _write_train(qp_p, remote, b"w" * size, 0)
        for packet in train:
            pool.nic.receive(packet, None)
        assert qp_p.expected_psn == len(train)
        pool.nic.receive(self.continuation(qp_p, len(train), b"x" * 64), None)
        assert pool.nic.stats.naks_sent == 1
        assert qp_p.expected_psn == len(train)
        assert remote.read(remote.base_addr, size + 64) == b"w" * size + bytes(64)

    def test_a_train_lands_packet_by_packet(self):
        bed, compute, pool, qp_c, qp_p = build_bed()
        remote = pool.registry.register(8192)
        payload = bytes(range(256)) * 10
        for packet in _write_train(qp_p, remote, payload, 0):
            pool.nic.receive(packet, None)
        assert remote.read(remote.base_addr, len(payload)) == payload
        assert pool.nic.stats.naks_sent == 0


class TestRemoteAccessErrors:
    """A bad rkey or an out-of-bounds access is fatal to its WR: the
    responder NAKs it as a remote access error, the requester fails it at
    once without a Go-Back-N round, flushes the rest and enters the error
    state."""

    def run_and_poll(self, bed, compute, qp, posts):
        """Post each ``(kind, remote_addr, rkey, length)`` back to back,
        then reap one completion per post."""
        thread = compute.cpu.thread()
        local = compute.registry.register(8192)
        local.write(local.base_addr, b"w" * 4096)
        results = []

        def op():
            for kind, remote_addr, rkey, length in posts:
                post = compute.verbs.read_async if kind == "read" else compute.verbs.write_async
                yield from post(thread, qp, local.base_addr, remote_addr, rkey, length)
            completions = yield from compute.verbs.spin_poll(thread, qp.cq, count=len(posts))
            results.extend(completions)

        run_op(bed, op(), deadline=10_000_000_000)
        return [c.status for c in results]

    def test_bad_rkey_then_out_of_bounds_read(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        statuses = self.run_and_poll(bed, compute, qp_c, [
            ("read", remote.base_addr, 0xBAD_0000, 8),
            ("read", remote.base_addr + 4090, remote.rkey, 64),
        ])
        assert statuses == [
            CompletionStatus.REMOTE_ACCESS_ERROR, CompletionStatus.FLUSHED,
        ]
        assert qp_c.in_error
        assert qp_c.retransmissions == 0
        assert qp_c.naks_received == 1
        assert pool.nic.stats.naks_sent == 1
        assert bed.sim.now < NicConfig().retransmit_timeout_ns

    def test_out_of_bounds_read_fails_on_its_own(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        statuses = self.run_and_poll(bed, compute, qp_c, [
            ("read", remote.base_addr + 4090, remote.rkey, 64),
        ])
        assert statuses == [CompletionStatus.REMOTE_ACCESS_ERROR]
        assert qp_c.retransmissions == 0

    def test_bad_rkey_write_train_draws_one_nak(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        statuses = self.run_and_poll(bed, compute, qp_c, [
            ("write", remote.base_addr, 0xBAD_0000, 3000),  # three packets
        ])
        assert statuses == [CompletionStatus.REMOTE_ACCESS_ERROR]
        assert pool.nic.stats.naks_sent == 1
        assert qp_c.retransmissions == 0

    def test_earlier_wr_succeeds_and_later_ones_flush(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        statuses = self.run_and_poll(bed, compute, qp_c, [
            ("write", remote.base_addr, remote.rkey, 16),
            ("read", remote.base_addr, 0xBAD_0000, 8),
            ("read", remote.base_addr, remote.rkey, 8),
        ])
        assert statuses == [
            CompletionStatus.SUCCESS,
            CompletionStatus.REMOTE_ACCESS_ERROR,
            CompletionStatus.FLUSHED,
        ]
        assert remote.read(remote.base_addr, 16) == b"w" * 16

    def test_posts_to_a_failed_qp_flush_at_once(self):
        bed, compute, pool, qp_c, _ = build_bed()
        remote = pool.registry.register(4096)
        self.run_and_poll(bed, compute, qp_c, [("read", remote.base_addr, 0xBAD_0000, 8)])
        sent = compute.nic.stats.tx_packets
        statuses = self.run_and_poll(bed, compute, qp_c, [
            ("read", remote.base_addr, remote.rkey, 8),
            ("write", remote.base_addr, remote.rkey, 8),
        ])
        assert statuses == [CompletionStatus.FLUSHED, CompletionStatus.FLUSHED]
        assert compute.nic.stats.tx_packets == sent  # nothing reached the wire


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


class TestWorkRequest:
    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            WorkRequest(WorkType.READ, 0, 0, 0, -1)

    def test_wr_ids_are_unique_and_increasing(self):
        ids = [WorkRequest(WorkType.WRITE, 0, 0, 0, 8).wr_id for _ in range(100)]
        assert ids == sorted(set(ids))
        assert WorkRequest(WorkType.READ, 0, 0, 0, 8).wr_id > ids[-1]

    def test_an_explicit_wr_id_is_kept(self):
        wr = WorkRequest(WorkType.SEND, 0, 0, 0, 0, wr_id=7, inline_payload=b"x")
        assert (wr.wr_id, wr.signaled, wr.inline_payload, wr.priority) == (
            7, True, b"x", None
        )

