"""White-box tests for Cowbird-P4 engine internals.

The channels' PSN bookkeeping is the shared requester window
(``tests/test_requester_window.py`` covers it for both engines); these
cases drive the data plane program: acknowledgments completing requests,
and Go-Back-N sending every outstanding op again at its own PSNs.
"""

import pytest

from repro.cowbird.p4_engine import _AppOp, _EngineOp
from repro.cowbird.wire import RedBlock, RequestMetadata, RwType
from repro.experiments.common import build_microbench
from repro.rdma.packets import (
    PSN_MODULUS,
    SYNDROME_ACK,
    Opcode,
    RocePacket,
    psn_add,
)


def build(num_instances=1, **p4_kwargs):
    return build_microbench("cowbird-p4", num_instances, engine_config=p4_kwargs)


def capture(dep):
    """Keep every packet the switch sends in a list instead of the network:
    the engine sends on the switch's egress links, in order."""
    sent = []
    switch = dep.bed.switch
    for node in switch.attached_nodes:
        switch.port_to(node).send = lambda packet, ready_at=None: sent.append(packet)
    return sent


def wire(packets):
    """``(destination, opcode, psn)`` of each sent packet."""
    return [(p.dst, p.opcode, p.psn) for p in packets]


def _app_op(state, rw_type, sequence, length=8):
    metadata = RequestMetadata(
        rw_type=rw_type, req_addr=0, resp_addr=0, length=length, region_id=0
    )
    return _AppOp(
        parsed_at=0.0, metadata=metadata, sequence=sequence,
        ring_index=sequence - 1,
    )


def _open(channel, kind, num_psns, parent=None):
    """Open a write op on ``channel`` as the engine would have sent it."""
    op = _EngineOp(
        num_psns=num_psns, kind=kind, channel=channel, length=num_psns * 1024,
        parent=parent, instance=channel.engine._instances[0],
    )
    channel.window.open(op)
    if parent is not None:
        parent.write_train = op
    return op


def _ack(engine, channel, psn):
    packet = RocePacket(
        src=channel.peer_node, dst=engine.node,
        opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=channel.virtual_qpn, psn=psn,
        syndrome=SYNDROME_ACK, msn=0,
    )
    consumed = engine.switch.stats.packets_consumed
    engine.receive(packet, None)
    assert engine.switch.stats.packets_consumed == consumed + 1


def _response(engine, channel, op, segment, opcode):
    """One read-response segment for ``op`` on ``channel``."""
    mtu = engine.config.mtu_bytes
    size = min(mtu, op.length - segment * mtu)
    return RocePacket(
        src=channel.peer_node, dst=engine.node,
        opcode=opcode, dest_qp=channel.virtual_qpn,
        psn=psn_add(op.first_psn, segment),
        syndrome=SYNDROME_ACK, msn=0,
        payload=b"w" * size,
    )


ONLY = Opcode.RC_RDMA_READ_RESPONSE_ONLY


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
        op1 = dep.engine._emit(channel, 0x1000, 100, kind="meta", instance=state)
        op2 = dep.engine._emit(channel, 0x2000, 3000, kind="meta", instance=state)
        assert op1.first_psn == 0 and op1.num_psns == 1
        assert op2.first_psn == 1 and op2.num_psns == 3  # 3000 B / 1024 MTU
        assert channel.window.send_psn == 4

    def test_match_finds_covering_op_and_skips_done(self):
        dep = build()
        state = dep.engine._instances[0]
        window = state.data_channel.window
        op = dep.engine._emit(
            state.data_channel, 0x1000, 3000, kind="meta", instance=state
        )
        assert window.find(op.first_psn) is op
        assert window.find(psn_add(op.first_psn, 2)) is op
        assert window.find(psn_add(op.first_psn, 3)) is None
        op.missing = 0  # its data is in
        assert window.retire_through(op.last_psn) == [op]
        assert window.find(op.first_psn) is None

    def test_go_back_n_replays_at_own_psns(self):
        """Go-Back-N sends every outstanding op again at its own PSNs,
        oldest first; ``send_psn`` never moves back."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        sent = capture(dep)
        op1 = engine._emit(channel, 0x1000, 100, kind="meta", instance=state)
        op2 = engine._emit(channel, 0x2000, 100, kind="meta", instance=state)
        sent.clear()
        engine._go_back_n(channel)
        read = Opcode.RC_RDMA_READ_REQUEST
        assert wire(sent) == [("compute", read, 0), ("compute", read, 1)]
        assert channel.window.send_psn == 2
        assert list(channel.window.outstanding) == [op1, op2]
        assert op1.retries == op2.retries == 1
        assert engine.stats.go_back_n_events == 1


class TestCumulativeAckAcrossPsnWrap:
    """An ACK through the pipeline completes the requests of the trains
    it covers, in PSN order, also across the 24-bit wrap."""

    def test_data_channel_writes_cross_the_wrap(self):
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        sent = capture(dep)
        channel.window.send_psn = PSN_MODULUS - 2
        first, second = _app_op(state, RwType.READ, 1), _app_op(state, RwType.READ, 2)
        train = _open(channel, "resp_write", 3, first)
        red = _open(channel, "red_update", 1)
        later = _open(channel, "resp_write", 2, second)
        assert [op.first_psn for op in channel.window.outstanding] == [
            PSN_MODULUS - 2, 1, 2,
        ]

        _ack(engine, channel, PSN_MODULUS - 1)  # mid-train: not covered
        assert list(channel.window.outstanding) == [train, red, later]
        _ack(engine, channel, 0)
        assert first.completed and not second.completed
        # The completion sent its red block update at the next PSN.
        update = channel.window.outstanding[-1]
        assert (update.kind, update.first_psn) == ("red_update", 4)
        assert wire(sent) == [("compute", Opcode.RC_RDMA_WRITE_ONLY, 4)]
        _ack(engine, channel, 3)
        assert second.completed
        assert [op.kind for op in channel.window.outstanding] == ["red_update"] * 2
        _ack(engine, channel, 5)
        assert not channel.window.outstanding

    def test_pool_channel_leaves_read_fetches_pending(self):
        """A read fetch whose data is not in holds back the write behind
        it, though the pool acknowledged the write: the fetch may have to
        be sent again, and then so must everything after it."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = next(iter(state.pool_channels.values()))
        capture(dep)
        channel.window.send_psn = PSN_MODULUS - 1
        rkey = state.descriptor.remote_regions[0].rkey
        reads = [_app_op(state, RwType.READ, n, length=1024) for n in (1, 2)]
        fetch = engine._emit(
            channel, 0, 1024, kind="read_fetch", parent=reads[0], instance=state, rkey=rkey
        )
        write = _app_op(state, RwType.WRITE, 1)
        train = _open(channel, "pool_write", 2, write)
        fetch2 = engine._emit(
            channel, 1024, 1024, kind="read_fetch", parent=reads[1], instance=state, rkey=rkey
        )
        assert [op.first_psn for op in channel.window.outstanding] == [PSN_MODULUS - 1, 0, 2]
        _ack(engine, channel, 1)
        assert not write.completed
        assert list(channel.window.outstanding) == [fetch, train, fetch2]
        # The fetch's data arrives: it retires, and the next ACK covers
        # the write.
        engine.receive(_response(engine, channel, fetch, 0, ONLY), None)
        assert list(channel.window.outstanding) == [train, fetch2]
        _ack(engine, channel, 1)
        assert write.completed
        assert list(channel.window.outstanding) == [fetch2]

    def test_after_go_back_n_replay(self):
        """After a replay, new ops take the PSNs after every replayed
        one, and ACKs retire them all in PSN order."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        sent = capture(dep)
        channel.window.send_psn = PSN_MODULUS - 2
        meta = engine._emit(channel, 0x1000, 100, kind="meta", instance=state)
        fetch = engine._emit(
            channel, 0x2000, 100, kind="write_fetch",
            parent=_app_op(state, RwType.WRITE, 1), instance=state,
        )
        red = _open(channel, "red_update", 1)
        sent.clear()
        engine._go_back_n(channel)
        read, write = Opcode.RC_RDMA_READ_REQUEST, Opcode.RC_RDMA_WRITE_ONLY
        assert wire(sent) == [
            ("compute", read, PSN_MODULUS - 2),
            ("compute", read, PSN_MODULUS - 1),
            ("compute", write, 0),
        ]
        meta2 = engine._emit(channel, 0x3000, 100, kind="meta", instance=state)
        assert meta2.first_psn == 1
        assert wire(sent[-1:]) == [("compute", read, 1)]
        _ack(engine, channel, 0)
        assert list(channel.window.outstanding) == [meta, fetch, red, meta2]
        meta.missing = fetch.missing = 0  # their data arrived
        _ack(engine, channel, 0)
        assert list(channel.window.outstanding) == [meta2]


class TestGoBackNReplay:
    def test_replayed_read_waits_for_a_replayed_write_fetch(self):
        """Go-Back-N on a pool channel re-fetches a pool write's payload
        over the probe channel, which carries only reads; the read
        behind the write waits until the write went out again."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        pool = next(iter(state.pool_channels.values()))
        sent = capture(dep)
        write = _app_op(state, RwType.WRITE, 1)
        read = _app_op(state, RwType.READ, 2)
        engine._execute_write(state, write)
        (fetch,) = state.data_channel.window.outstanding
        engine.receive(_response(engine, state.data_channel, fetch, 0, ONLY), None)
        assert not state.data_channel.window.outstanding  # the fetch retired
        state.pending.append(read)
        engine._drain_pending(state)
        recycled = engine.stats.recycled_packets

        sent.clear()
        engine._go_back_n(pool)
        (refetch,) = state.probe_channel.window.outstanding
        assert (refetch.kind, refetch.parent) == ("refetch", write)
        assert wire(sent) == [("compute", Opcode.RC_RDMA_READ_REQUEST, 0)]
        assert [op.parent for op in pool.backlog] == [write, read]

        # The payload arrives: the write goes to the pool again, then the
        # read, each at its own PSN.
        engine.receive(_response(engine, state.probe_channel, refetch, 0, ONLY), None)
        assert wire(sent[1:]) == [
            ("pool", Opcode.RC_RDMA_WRITE_ONLY, 0),
            ("pool", Opcode.RC_RDMA_READ_REQUEST, 1),
        ]
        assert not pool.backlog
        # One recycle for the converted write data.
        assert engine.stats.recycled_packets == recycled + 1

    def test_red_updates_replay_the_current_block(self):
        """Each red block update is sent again at its own PSN, carrying
        the red block as it is now."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        sent = capture(dep)
        pool = next(iter(state.pool_channels.values()))
        writes = [_app_op(state, RwType.WRITE, n) for n in (1, 2, 3)]
        state.in_order.extend(writes)
        for write in writes:
            _open(pool, "pool_write", 1, write)
        for psn in (0, 1, 2):
            _ack(engine, pool, psn)  # completes one write, which sends an update
        assert all(write.completed for write in writes)
        assert [RedBlock.unpack(p.payload).write_progress for p in sent] == [1, 2, 3]
        updates = engine.stats.red_updates

        sent.clear()
        engine._go_back_n(channel)
        assert wire(sent) == [
            ("compute", Opcode.RC_RDMA_WRITE_ONLY, psn) for psn in (0, 1, 2)
        ]
        assert [RedBlock.unpack(p.payload).write_progress for p in sent] == [3, 3, 3]
        assert engine.stats.red_updates == updates

    @pytest.mark.parametrize("max_retries", [16, 0])
    def test_rewind_mid_fetch_keeps_fetching_writes_balanced(self, max_retries):
        """A two-MTU write opens its pool train on the first fetched
        segment.  Go-Back-N on the pool channel while the fetch still
        streams makes the train re-fetch its payload (or gives it up).
        The fetch's own completion gives back its ``fetching_writes``
        count, so the paused read drains, and goes to the pool only
        behind the write."""
        dep = build(max_retries=max_retries)
        engine = dep.engine
        state = engine._instances[0]
        pool = next(iter(state.pool_channels.values()))
        sent = capture(dep)
        mtu = engine.config.mtu_bytes
        write = _app_op(state, RwType.WRITE, 1, length=2 * mtu)
        read = _app_op(state, RwType.READ, 2)
        engine._execute_write(state, write)
        state.pending.append(read)
        engine._drain_pending(state)
        assert list(state.pending) == [read]  # paused behind the write

        (fetch,) = state.data_channel.window.outstanding
        first, last = Opcode.RC_RDMA_READ_RESPONSE_FIRST, Opcode.RC_RDMA_READ_RESPONSE_LAST
        engine.receive(_response(engine, state.data_channel, fetch, 0, first), None)
        assert [op.kind for op in pool.window.outstanding] == ["pool_write"]

        engine._go_back_n(pool)
        sent.clear()
        # The rest of the fetch completes it, but no longer feeds the train.
        engine.receive(_response(engine, state.data_channel, fetch, 1, last), None)
        assert state.fetching_writes == 0
        assert not state.pending
        if max_retries == 0:
            assert engine.stats.ops_failed == 1
            assert wire(sent) == [("pool", Opcode.RC_RDMA_READ_REQUEST, 2)]
        else:
            assert not sent  # the read waits behind the train
            (refetch,) = state.probe_channel.window.outstanding
            for segment, opcode in enumerate((first, last)):
                engine.receive(
                    _response(engine, state.probe_channel, refetch, segment, opcode),
                    None,
                )
            assert wire(sent) == [
                ("pool", Opcode.RC_RDMA_WRITE_FIRST, 0),
                ("pool", Opcode.RC_RDMA_WRITE_LAST, 1),
                ("pool", Opcode.RC_RDMA_READ_REQUEST, 2),
            ]
            assert engine.stats.ops_failed == 0

    def test_a_waiting_train_is_not_acknowledged(self):
        """An ACK for a train that waits to be sent again retires neither
        it nor what follows: an older duplicate sent since may have undone
        it at the responder."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        pool = next(iter(state.pool_channels.values()))
        capture(dep)
        older, newer = _app_op(state, RwType.WRITE, 1), _app_op(state, RwType.WRITE, 2)
        _open(pool, "pool_write", 1, older)
        _open(pool, "pool_write", 1, newer)
        engine._go_back_n(pool)
        assert [op.parent for op in pool.backlog] == [older, newer]
        _ack(engine, pool, 1)  # the originals' late ACK
        assert not older.completed and not newer.completed
        assert len(pool.window.outstanding) == 2

    def test_a_response_train_refetches_from_the_pool(self):
        """A response train whose pool read is done reads the pool again
        as a new read at the pool channel's next PSN, behind every write
        the pool executed before it."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        pool = next(iter(state.pool_channels.values()))
        sent = capture(dep)
        read = _app_op(state, RwType.READ, 1)
        state.pending.append(read)
        engine._drain_pending(state)
        (fetch,) = pool.window.outstanding
        engine.receive(_response(engine, pool, fetch, 0, ONLY), None)
        train = read.write_train
        assert (train.kind, train.first_psn) == ("resp_write", 0)
        engine._execute_write(state, _app_op(state, RwType.WRITE, 1))

        sent.clear()
        engine._go_back_n(state.data_channel)
        (refetch,) = pool.window.outstanding
        assert (refetch.kind, refetch.first_psn) == ("refetch", 1)
        # The write fetch behind the train waits for it.
        assert wire(sent) == [("pool", Opcode.RC_RDMA_READ_REQUEST, 1)]
        engine.receive(_response(engine, pool, refetch, 0, ONLY), None)
        assert wire(sent[1:]) == [
            ("compute", Opcode.RC_RDMA_WRITE_ONLY, 0),
            ("compute", Opcode.RC_RDMA_READ_REQUEST, 1),
        ]

    def test_a_source_read_sent_again_makes_its_train_refetch(self):
        """A pool read sent again may return newer data than the segments
        its train already sent; the train takes its payload from one new
        read instead, so one response never mixes two versions."""
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        pool = next(iter(state.pool_channels.values()))
        sent = capture(dep)
        mtu = engine.config.mtu_bytes
        read = _app_op(state, RwType.READ, 1, length=2 * mtu)
        state.pending.append(read)
        engine._drain_pending(state)
        (fetch,) = pool.window.outstanding
        first = Opcode.RC_RDMA_READ_RESPONSE_FIRST
        engine.receive(_response(engine, pool, fetch, 0, first), None)
        train = read.write_train
        assert train.source is fetch and train.sent == 1

        sent.clear()
        engine._go_back_n(pool)
        refetch = pool.window.outstanding[-1]
        assert refetch.kind == "refetch" and train.source is refetch
        assert wire(sent) == [
            ("pool", Opcode.RC_RDMA_READ_REQUEST, 0),
            ("pool", Opcode.RC_RDMA_READ_REQUEST, 2),
        ]
        # The old read's responses feed nothing; the new one's restart
        # the train at its first segment.
        engine.receive(_response(engine, pool, fetch, 0, first), None)
        assert len(sent) == 2
        engine.receive(_response(engine, pool, refetch, 0, first), None)
        assert wire(sent[2:]) == [("compute", Opcode.RC_RDMA_WRITE_FIRST, 0)]


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
