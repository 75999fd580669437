"""White-box tests for Cowbird-P4 engine internals."""

import pytest

from repro.cowbird.p4_engine import _AppOp
from repro.cowbird.wire import RequestMetadata, RwType
from repro.experiments.common import build_microbench
from repro.rdma.packets import (
    PSN_MODULUS,
    SYNDROME_ACK,
    Opcode,
    RocePacket,
    psn_add,
    psn_distance,
)


def build(num_instances=1, **p4_kwargs):
    return build_microbench("cowbird-p4", num_instances, engine_config=p4_kwargs)


class TestChannels:
    def test_three_channels_per_single_pool_instance(self):
        dep = build()
        state = dep.engine._instances[0]
        assert state.probe_channel is not None
        assert state.data_channel is not None
        assert len(state.pool_channels) == 1
        # Distinct virtual QPNs, all registered in the demux map.
        vqpns = {
            state.probe_channel.virtual_qpn,
            state.data_channel.virtual_qpn,
            next(iter(state.pool_channels.values())).virtual_qpn,
        }
        assert len(vqpns) == 3
        for vqpn in vqpns:
            assert vqpn in dep.engine._channels_by_vqpn

    def test_probe_channel_uses_lowest_priority(self):
        from repro.sim.network import PRIORITY_LOW, PRIORITY_NORMAL

        dep = build()
        state = dep.engine._instances[0]
        assert state.probe_channel.priority == PRIORITY_LOW
        assert state.data_channel.priority == PRIORITY_NORMAL

    def test_psn_ranges_allocated_contiguously(self):
        dep = build()
        state = dep.engine._instances[0]
        channel = state.data_channel
        op1 = channel.emit_read(0x1000, 100, kind="meta", instance=state)
        op2 = channel.emit_read(0x2000, 3000, kind="meta", instance=state)
        assert op1.first_psn == 0 and op1.num_psns == 1
        assert op2.first_psn == 1 and op2.num_psns == 3  # 3000 B / 1024 MTU
        assert channel.send_psn == 4

    def test_match_finds_covering_op_and_skips_done(self):
        dep = build()
        state = dep.engine._instances[0]
        channel = state.data_channel
        op = channel.emit_read(0x1000, 3000, kind="meta", instance=state)
        assert channel.match(op.first_psn) is op
        assert channel.match(psn_add(op.first_psn, 2)) is op
        assert channel.match(psn_add(op.first_psn, 3)) is None
        channel.retire(op)
        assert channel.match(op.first_psn) is None

    def test_go_back_n_rewinds_psn(self):
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        op1 = channel.emit_read(0x1000, 100, kind="meta", instance=state)
        op2 = channel.emit_read(0x2000, 100, kind="meta", instance=state)
        del op2
        psn_before = channel.send_psn
        assert psn_before == 2
        engine._go_back_n(channel)
        # The rewind resets to the oldest incomplete op's first PSN and
        # re-allocates; meta replays re-enter via _maybe_fetch_metadata,
        # so the counter never exceeds its pre-failure value.
        assert channel.send_psn <= psn_before
        assert engine.stats.go_back_n_events == 1


def _app_op(state, rw_type, sequence, length=8):
    metadata = RequestMetadata(
        rw_type=rw_type, req_addr=0, resp_addr=0, length=length, region_id=0
    )
    return _AppOp(
        instance=state, sequence=sequence, metadata=metadata,
        ring_index=sequence - 1,
    )


def _full_scan_retired(channel, psn):
    """What a scan over every in-flight op retires for an ACK of ``psn``:
    each pending write-kind op whose last PSN is at or before ``psn``."""
    return [
        op for op in channel.inflight
        if op.kind in ("resp_write", "pool_write", "red_update")
        and psn_distance(op.last_psn, psn) < PSN_MODULUS // 2
    ]


def _assert_psn_order(channel):
    start = channel.inflight[0].first_psn
    offsets = [psn_distance(start, op.first_psn) for op in channel.inflight]
    assert offsets == sorted(offsets)


class TestCumulativeAckAcrossPsnWrap:
    """A cumulative ACK retires exactly the covered write-kind ops, in
    PSN order, also when their PSN ranges cross the 24-bit wrap."""

    def _ack(self, engine, channel, psn):
        """Deliver an ACK for ``psn``; return the ops it retired, in order."""
        expected = _full_scan_retired(channel, psn)
        retired = []
        retire = channel.retire
        channel.retire = lambda op: (retired.append(op), retire(op))
        try:
            packet = RocePacket(
                src=channel.peer_node, dst=engine.node,
                opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=channel.virtual_qpn, psn=psn,
                syndrome=SYNDROME_ACK, msn=0,
            )
            assert engine._pipeline(packet, None) == []
        finally:
            del channel.retire
        assert retired == expected
        return retired

    def test_data_channel_writes_cross_the_wrap(self):
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        channel.send_psn = PSN_MODULUS - 2
        first, second = _app_op(state, RwType.READ, 1), _app_op(state, RwType.READ, 2)
        meta = channel.emit_read(0x1000, 100, kind="meta", instance=state)
        train = channel.open_op(3000, kind="resp_write", parent=first, instance=state)
        fetch = channel.emit_read(
            0x2000, 100, kind="write_fetch",
            parent=_app_op(state, RwType.WRITE, 1), instance=state,
        )
        red = channel.open_op(40, kind="red_update", parent=None, instance=state)
        later = channel.open_op(2048, kind="resp_write", parent=second, instance=state)
        assert [op.first_psn for op in channel.inflight] == [
            PSN_MODULUS - 2, PSN_MODULUS - 1, 2, 3, 4,
        ]
        assert train.last_psn == 1  # the train crosses the wrap

        assert self._ack(engine, channel, PSN_MODULUS - 1) == []
        assert self._ack(engine, channel, 0) == []  # mid-train: not covered
        assert self._ack(engine, channel, 3) == [train, red]
        assert first.completed and not second.completed
        # Read-kind ops stay pending; completing ``first`` queued its red
        # block update (PSN 6) behind ``later``.
        assert list(channel.inflight)[:3] == [meta, fetch, later]
        update = channel.inflight[-1]
        assert (update.kind, update.first_psn) == ("red_update", 6)
        assert self._ack(engine, channel, 5) == [later]
        assert second.completed
        assert self._ack(engine, channel, 6) == [update]
        assert list(channel.inflight)[:2] == [meta, fetch]

    def test_pool_channel_leaves_read_fetches_pending(self):
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = next(iter(state.pool_channels.values()))
        channel.send_psn = PSN_MODULUS - 1
        rkey = state.descriptor.remote_regions[0].rkey
        reads = [_app_op(state, RwType.READ, n) for n in (1, 2)]
        fetch = channel.emit_read(
            0, 1024, kind="read_fetch", parent=reads[0], instance=state, rkey=rkey
        )
        write = _app_op(state, RwType.WRITE, 1)
        train = channel.open_op(2048, kind="pool_write", parent=write, instance=state)
        fetch2 = channel.emit_read(
            1024, 2048, kind="read_fetch", parent=reads[1], instance=state, rkey=rkey
        )
        assert [op.first_psn for op in channel.inflight] == [PSN_MODULUS - 1, 0, 2]
        assert self._ack(engine, channel, 3) == [train]
        assert write.completed
        assert list(channel.inflight) == [fetch, fetch2]

    def test_after_go_back_n_rewind(self):
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        channel.send_psn = PSN_MODULUS - 2
        channel.emit_read(0x1000, 100, kind="meta", instance=state)
        channel.emit_read(
            0x2000, 100, kind="write_fetch",
            parent=_app_op(state, RwType.WRITE, 1), instance=state,
        )
        channel.open_op(3000, kind="resp_write",
                            parent=_app_op(state, RwType.READ, 1), instance=state)
        channel.open_op(40, kind="red_update", parent=None, instance=state)
        engine._go_back_n(channel)
        # Rewound to the oldest op's PSN and replayed in order: the write
        # fetch and the red block update; the meta read is regenerated by
        # probing and the response train by a pool re-fetch.
        assert channel.send_psn == psn_add(PSN_MODULUS - 2, 2)
        fetch, red = channel.inflight
        assert (fetch.kind, fetch.first_psn) == ("write_fetch", PSN_MODULUS - 2)
        assert (red.kind, red.first_psn) == ("red_update", PSN_MODULUS - 1)
        train = channel.open_op(3000, kind="resp_write",
                                    parent=_app_op(state, RwType.READ, 2), instance=state)
        meta = channel.emit_read(0x3000, 100, kind="meta", instance=state)
        red2 = channel.open_op(40, kind="red_update", parent=None, instance=state)
        _assert_psn_order(channel)
        assert (train.first_psn, train.last_psn) == (0, 2)
        assert self._ack(engine, channel, 1) == [red]
        assert self._ack(engine, channel, 4) == [train, red2]
        assert list(channel.inflight)[:2] == [fetch, meta]
        _assert_psn_order(channel)


def _fetch_response(engine, state, fetch, segment, opcode):
    """One compute-node read-response segment for ``fetch``."""
    mtu = engine.config.mtu_bytes
    size = min(mtu, fetch.expect_bytes - segment * mtu)
    return RocePacket(
        src="compute", dst=engine.node,
        opcode=opcode, dest_qp=state.data_channel.virtual_qpn,
        psn=psn_add(fetch.first_psn, segment),
        syndrome=SYNDROME_ACK, msn=0,
        payload=b"w" * size,
    )


class TestGoBackNReplay:
    def test_replayed_read_waits_for_a_replayed_write_fetch(self):
        """Go-Back-N on a pool channel re-fetches a lost pool write's
        payload from the compute node; the read replayed with it waits
        for that fetch (pause-all-reads) instead of overtaking the write,
        and counts as no new recycled packet."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        pool = next(iter(state.pool_channels.values()))
        write = _app_op(state, RwType.WRITE, 1)
        read = _app_op(state, RwType.READ, 2)
        engine._execute_write(state, write)
        engine._pipeline(_fetch_response(
            engine, state, write.fetch_op, 0, Opcode.RC_RDMA_READ_RESPONSE_ONLY,
        ), None)
        engine._execute_read(state, read)
        recycled = engine.stats.recycled_packets

        engine._go_back_n(pool)
        assert list(state.pending) == [read]
        assert not pool.inflight
        (fetch,) = state.data_channel.inflight
        assert (fetch.kind, fetch.parent) == ("write_fetch", write)
        assert state.fetching_writes == 1

        # The payload arrives: the write goes to the pool, then the read.
        response = _fetch_response(
            engine, state, fetch, 0, Opcode.RC_RDMA_READ_RESPONSE_ONLY,
        )
        assert engine._pipeline(response, None) == []
        assert [(op.kind, op.parent) for op in pool.inflight] == [
            ("pool_write", write), ("read_fetch", read),
        ]
        assert not state.pending
        assert state.fetching_writes == 0
        # One recycle for the converted write data, none for the replay.
        assert engine.stats.recycled_packets == recycled + 1

    def test_one_red_update_per_rewind(self):
        """Each red block update carries the whole current red block, so
        a rewind over several of them replays one, in the first one's
        place, with the current block."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        for sequence in (1, 2, 3):
            channel.open_op(40, kind="red_update", parent=None, instance=state)
            write = _app_op(state, RwType.WRITE, sequence)
            write.fetch_op = channel.emit_read(
                0x2000, 100, kind="write_fetch", parent=write, instance=state,
            )
        state.fetching_writes = 3
        updates = engine.stats.red_updates

        engine._go_back_n(channel)
        assert [op.kind for op in channel.inflight] == [
            "red_update", "write_fetch", "write_fetch", "write_fetch",
        ]
        assert [op.first_psn for op in channel.inflight] == [0, 1, 2, 3]
        assert engine.stats.red_updates == updates + 1
        assert state.fetching_writes == 3

    @pytest.mark.parametrize("max_retries", [16, 0])
    def test_rewind_mid_fetch_keeps_fetching_writes_balanced(self, max_retries):
        """A two-MTU write opens its pool train on the first fetched
        segment.  Rewinding the pool channel then supersedes a fetch that
        is still streaming: its ``fetching_writes`` count is given back,
        so a queued read drains once the replayed fetch lands (or at once
        when the write is given up)."""
        dep = build(max_retries=max_retries)
        engine = dep.engine
        state = engine._instances[0]
        pool = next(iter(state.pool_channels.values()))
        mtu = engine.config.mtu_bytes
        write = _app_op(state, RwType.WRITE, 1, length=2 * mtu)
        read = _app_op(state, RwType.READ, 2)
        engine._execute_write(state, write)
        state.pending.append(read)
        engine._drain_pending(state)
        assert list(state.pending) == [read]  # paused behind the write

        stale_fetch = write.fetch_op
        engine._pipeline(_fetch_response(
            engine, state, stale_fetch, 0, Opcode.RC_RDMA_READ_RESPONSE_FIRST,
        ), None)
        assert [op.kind for op in pool.inflight] == ["pool_write"]

        engine._go_back_n(pool)
        assert stale_fetch not in state.data_channel.inflight
        # The rest of the superseded fetch is stale.
        stale = engine.stats.stale_packets
        engine._pipeline(_fetch_response(
            engine, state, stale_fetch, 1, Opcode.RC_RDMA_READ_RESPONSE_LAST,
        ), None)
        assert engine.stats.stale_packets == stale + 1

        if max_retries == 0:
            assert engine.stats.ops_failed == 1
            assert not state.data_channel.inflight
        else:
            assert state.fetching_writes == 1
            assert list(state.pending) == [read]
            fetch = write.fetch_op
            for segment, opcode in enumerate((
                Opcode.RC_RDMA_READ_RESPONSE_FIRST,
                Opcode.RC_RDMA_READ_RESPONSE_LAST,
            )):
                engine._pipeline(
                    _fetch_response(engine, state, fetch, segment, opcode), None
                )
            assert [(op.kind, op.parent) for op in pool.inflight] == [
                ("pool_write", write), ("read_fetch", read),
            ]
        assert state.fetching_writes == 0
        assert not state.pending


class TestProbePolicies:
    def test_round_robin_cycles_uniformly(self):
        dep = build(num_instances=3)
        engine = dep.engine
        targets = [engine._next_probe_target() for _ in range(6)]
        names = [t.descriptor.instance_id for t in targets]
        assert names == [0, 1, 2, 0, 1, 2]

    def test_weighted_skips_idle_instances(self):
        dep = build(num_instances=2, probe_policy="weighted", idle_stride=4)
        engine = dep.engine
        hot, idle = engine._instances
        hot.activity_ttl = 16
        idle.activity_ttl = 0
        picks = [engine._next_probe_target() for _ in range(10)]
        hot_picks = sum(1 for p in picks if p is hot)
        idle_picks = sum(1 for p in picks if p is idle)
        assert hot_picks > idle_picks
        assert idle_picks >= 1  # stride guarantees eventual service

    def test_weighted_all_idle_still_probes_eventually(self):
        dep = build(num_instances=2, probe_policy="weighted", idle_stride=3)
        engine = dep.engine
        for state in engine._instances:
            state.activity_ttl = 0
        picks = [engine._next_probe_target() for _ in range(12)]
        assert any(p is not None for p in picks)

    def test_double_engine_on_switch_rejected(self):
        dep = build()
        from repro.cowbird.p4_engine import CowbirdP4Engine

        with pytest.raises(RuntimeError, match="pipeline"):
            CowbirdP4Engine(dep.sim, dep.bed.switch)

    def test_start_requires_instances(self):
        from repro.cowbird.p4_engine import CowbirdP4Engine
        from repro.testbed import Testbed

        bed = Testbed()
        engine = CowbirdP4Engine(bed.sim, bed.switch)
        with pytest.raises(RuntimeError, match="no instances"):
            engine.start()

    def test_double_start_rejected(self):
        dep = build()
        with pytest.raises(RuntimeError, match="already started"):
            dep.engine.start()
