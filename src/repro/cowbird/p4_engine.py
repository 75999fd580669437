"""Cowbird-P4: the programmable-switch offload engine (Section 5).

The engine lives entirely in the switch data plane.  It discovers new
requests by generating low-priority RDMA read *probes* of the compute
node's green bookkeeping block (Phase II), fetches and parses request
metadata, then *recycles* packets to execute transfers (Phase III):

* a probe response is recycled into a metadata read request,
* a memory-pool read response is recycled into an RDMA write of the
  payload to the compute node (Response First/Middle/Last become Write
  First/Middle/Last — the payload is never parsed, matching PHV
  limits),
* the final ACK is recycled into the Phase IV bookkeeping write.

Engine-to-host traffic uses three requester channels per instance —
probe (low priority), compute data, and one per memory-pool peer — so
strict-priority queueing can never reorder packets within a PSN space.

Consistency (Section 5.3): the switch cannot do range comparisons, so
whenever any write is fetching its payload (Phase III step 1b) the
engine pauses *all* newly probed reads.  Recovery is Go-Back-N: on a
data-plane timeout the channel's PSN is rewound to the oldest
incomplete operation and everything after it is re-executed.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.cowbird.api import CowbirdInstance, InstanceDescriptor
from repro.cowbird.engine_core import RequestCore
from repro.cowbird.wire import GreenBlock, RequestMetadata, RwType
from repro.rdma.packets import (
    CARRIES_RETH,
    OP_ACKNOWLEDGE,
    OP_READ_REQUEST,
    OP_WRITE_FIRST,
    OP_WRITE_LAST,
    OP_WRITE_MIDDLE,
    OP_WRITE_ONLY,
    PSN_MODULUS,
    READ_RESPONSE_TAILS,
    READ_RESPONSES,
    Bth,
    PacketPool,
    Reth,
    RocePacket,
    psn_add,
    psn_distance,
)
from repro.sim.engine import Simulator
from repro.sim.network import PRIORITY_LOW, PRIORITY_NORMAL, Switch

__all__ = ["CowbirdP4Engine", "P4EngineConfig"]

#: Serial-number comparison window: ``b`` is at or after ``a`` when
#: ``(b - a) % PSN_MODULUS`` is below half the PSN space.
_HALF_PSN_SPACE = PSN_MODULUS // 2
#: Op kinds a cumulative ACK retires; read-kind ops retire only through
#: their responses.
_ACKED_KINDS = frozenset({"resp_write", "pool_write", "red_update"})


@dataclass
class P4EngineConfig:
    """Tunables of the switch data plane program."""

    #: Probe generation interval (1 probe / 2 us for FASTER, Section 5.2).
    probe_interval_ns: float = 2_000.0
    #: Data-plane timeout before Go-Back-N recovery.
    timeout_ns: float = 500_000.0
    #: Give up on a request after this many replays (counted in
    #: ``ops_failed``).
    max_retries: int = 16
    #: Probes ride the lowest priority so they only use idle cycles.
    probe_priority: int = PRIORITY_LOW
    #: Priority of execute/complete traffic (Figure 14 raises this).
    data_priority: int = PRIORITY_NORMAL
    mtu_bytes: int = 1024
    #: Adaptive probing: back off while idle, snap back on activity
    #: ("the switch can also start at a low baseline rate and ramp up").
    adaptive_probing: bool = False
    adaptive_max_interval_ns: float = 64_000.0
    #: Multi-instance probe scheduling (Section 5.4 leaves richer
    #: policies to future work; we implement one): "round-robin" cycles
    #: instances uniformly; "weighted" visits instances with recent
    #: activity every cycle and idle ones only every ``idle_stride``-th
    #: visit, concentrating probe bandwidth on active applications.
    probe_policy: str = "round-robin"
    idle_stride: int = 8


@dataclass
class P4EngineStats:
    probe_rounds: int = 0
    probes_sent: int = 0
    probe_responses: int = 0
    metadata_fetches: int = 0
    requests_parsed: int = 0
    reads_executed: int = 0
    writes_executed: int = 0
    recycled_packets: int = 0
    red_updates: int = 0
    go_back_n_events: int = 0
    stale_packets: int = 0
    reads_paused: int = 0
    #: Requests given up after ``max_retries`` replays: never completed.
    ops_failed: int = 0


@dataclass(eq=False, slots=True)
class _EngineOp:
    """One switch-initiated RDMA operation awaiting its response/ACK.

    Ops compare by identity, so finding one in a channel's in-flight
    queue never compares field values.
    """

    kind: str  # probe | meta | read_fetch | write_fetch | resp_write | pool_write | red_update
    channel: "_Channel"
    first_psn: int
    num_psns: int
    expect_bytes: int = 0
    received_bytes: int = 0
    issued_at: float = 0.0
    parent: Optional["_AppOp"] = None
    instance: Optional["_Instance"] = None
    buffer: bytearray = field(default_factory=bytearray)

    @property
    def last_psn(self) -> int:
        return psn_add(self.first_psn, self.num_psns - 1)


@dataclass
class _AppOp:
    """One application-level Cowbird request being executed."""

    instance: "_Instance"
    sequence: int
    metadata: RequestMetadata
    ring_index: int
    completed: bool = False
    fetch_op: Optional[_EngineOp] = None
    write_train: Optional[_EngineOp] = None
    #: Sim time the switch parsed this request (span begin for telemetry).
    parsed_at: float = 0.0
    #: Go-Back-N replays so far.
    retries: int = 0


class _Channel:
    """The engine's requester state toward one host QP.

    The switch holds this in stateful registers: the destination QPN,
    the next PSN, and the set of in-flight operations keyed by PSN.
    """

    def __init__(
        self,
        engine: "CowbirdP4Engine",
        peer_node: str,
        peer_qpn: int,
        virtual_qpn: int,
        rkey: int,
        priority: int,
    ) -> None:
        self.engine = engine
        self.peer_node = peer_node
        self.peer_qpn = peer_qpn
        self.virtual_qpn = virtual_qpn
        self.rkey = rkey
        self.priority = priority
        self.send_psn = 0
        self.inflight: deque[_EngineOp] = deque()

    # ------------------------------------------------------------------
    def open_op(
        self,
        length: int,
        kind: str,
        parent: Optional[_AppOp] = None,
        instance: Optional["_Instance"] = None,
    ) -> _EngineOp:
        """Reserve the PSN range for ``length`` bytes and track the op."""
        mtu = self.engine.config.mtu_bytes
        num_psns = max(1, (length + mtu - 1) // mtu)
        op = _EngineOp(
            kind=kind,
            channel=self,
            first_psn=self.send_psn,
            num_psns=num_psns,
            expect_bytes=length,
            issued_at=self.engine.sim.now,
            parent=parent,
            instance=instance,
        )
        self.send_psn = psn_add(self.send_psn, num_psns)
        self.inflight.append(op)
        return op

    def emit_read(
        self,
        addr: int,
        length: int,
        kind: str,
        parent: Optional[_AppOp] = None,
        instance: Optional["_Instance"] = None,
        rkey: Optional[int] = None,
    ) -> _EngineOp:
        """Issue an RDMA READ request; responses are matched by PSN."""
        op = self.open_op(length, kind, parent, instance)
        packet = self.engine.pool.acquire(
            src=self.engine.node,
            dst=self.peer_node,
            bth=Bth(
                opcode=OP_READ_REQUEST,
                dest_qp=self.peer_qpn,
                psn=op.first_psn,
                ack_request=True,
            ),
            reth=Reth(
                virtual_address=addr,
                remote_key=rkey if rkey is not None else self.rkey,
                dma_length=length,
            ),
            priority=self.priority,
        )
        self.engine.switch.inject(packet)
        return op

    def emit_write_segment(
        self,
        op: _EngineOp,
        segment_index: int,
        dest_addr: int,
        dest_rkey: int,
        payload: bytes,
        recycle: Optional[RocePacket] = None,
    ) -> None:
        """Stream one converted segment of a write train.

        When ``recycle`` is given (the Phase III read-response-to-write
        conversion), the incoming packet is rewritten in place — headers
        swapped, payload untouched — so the steady-state execute path
        allocates no packet objects.
        """
        n = op.num_psns
        if n == 1:
            opcode = OP_WRITE_ONLY
        elif segment_index == 0:
            opcode = OP_WRITE_FIRST
        elif segment_index == n - 1:
            opcode = OP_WRITE_LAST
        else:
            opcode = OP_WRITE_MIDDLE
        is_tail = segment_index == n - 1
        reth = (
            Reth(
                virtual_address=dest_addr,
                remote_key=dest_rkey,
                dma_length=op.expect_bytes,
            )
            if opcode in CARRIES_RETH
            else None
        )
        psn = psn_add(op.first_psn, segment_index)
        if recycle is not None:
            packet = recycle.recycle(
                src=self.engine.node,
                dst=self.peer_node,
                opcode=opcode,
                dest_qp=self.peer_qpn,
                psn=psn,
                ack_request=is_tail,
                reth=reth,
                priority=self.priority,
            )
        else:
            packet = self.engine.pool.acquire(
                src=self.engine.node,
                dst=self.peer_node,
                bth=Bth(
                    opcode=opcode,
                    dest_qp=self.peer_qpn,
                    psn=psn,
                    ack_request=is_tail,
                ),
                reth=reth,
                payload=payload,
                priority=self.priority,
            )
        self.engine.switch.inject(packet)

    # ------------------------------------------------------------------
    def match(self, psn: int) -> Optional[_EngineOp]:
        for op in self.inflight:
            if (psn - op.first_psn) % PSN_MODULUS < op.num_psns:
                return op
        return None

    def retire(self, op: _EngineOp) -> bool:
        """Remove a finished op, or one a replayed parent supersedes.

        Returns whether ``op`` was still in flight.
        """
        try:
            self.inflight.remove(op)
        except ValueError:
            return False  # already gone
        return True

    def oldest_pending(self) -> Optional[_EngineOp]:
        return self.inflight[0] if self.inflight else None


class _Instance(RequestCore):
    """Per-instance switch register state (Section 5.4): the request
    core of one client instance plus the switch's channels toward it."""

    def __init__(self, descriptor: InstanceDescriptor) -> None:
        super().__init__(descriptor)
        self.probe_channel: Optional[_Channel] = None
        self.data_channel: Optional[_Channel] = None
        self.pool_channels: dict[str, _Channel] = {}
        # Execution pipeline.
        self.pending: deque[_AppOp] = deque()
        self.fetching_writes = 0
        self.meta_fetch_inflight = False
        self.probe_inflight = False
        self.probe_interval_scale = 1.0
        self._meta_fetch_span: tuple[int, int] = (0, 0)
        #: Weighted probing state: probes remaining before this instance
        #: is demoted to idle (hysteresis), and how many visits an idle
        #: instance has been skipped for.
        self.activity_ttl = 16
        self.idle_skips = 0


class CowbirdP4Engine:
    """The switch data plane program plus its control-plane state."""

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        config: Optional[P4EngineConfig] = None,
        node: str = "switch",
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.config = config or P4EngineConfig()
        self.node = node
        self.stats = P4EngineStats()
        #: Free-list for switch-generated packets; shells come back when
        #: the receiving NIC finishes dispatching them.
        self.pool = PacketPool(sanitizer=sim.sanitizer)
        tel = sim.telemetry
        self._tel = tel
        tel.expose("p4", self.stats)
        self._tel_request_ns = tel.histogram("p4.request_latency_ns")
        self._instances: list[_Instance] = []
        #: QPN-to-instance/channel map (Section 5.4: packets after Phase II
        #: carry no instance id, so the switch keys on the QPN).
        self._channels_by_vqpn: dict[int, _Channel] = {}
        self._instance_by_vqpn: dict[int, _Instance] = {}
        self._vqpn_counter = itertools.count(0x200)
        self._probe_cycle = 0
        self._started = False
        self._probe_token = None
        self._timeout_token = None
        previous = switch.pipeline
        if previous is not None:
            raise RuntimeError("switch already has a pipeline installed")
        switch.pipeline = self._pipeline

    # ------------------------------------------------------------------
    # Phase I: setup (control-plane RPC from the compute node)
    # ------------------------------------------------------------------
    def register_instance(self, instance: CowbirdInstance, pool_hosts: dict) -> None:
        """Install one client instance: create QPs and switch registers.

        ``pool_hosts`` maps pool node name -> Host for every memory pool
        referenced by the instance's remote regions.
        """
        descriptor = instance.descriptor()
        state = _Instance(descriptor)
        compute_host = instance.host
        # Probe channel and data channel toward the compute node.
        for attr, priority in (
            ("probe_channel", self.config.probe_priority),
            ("data_channel", self.config.data_priority),
        ):
            qp = compute_host.nic.create_qp()
            vqpn = next(self._vqpn_counter)
            qp.connect(self.node, vqpn)
            channel = _Channel(
                self, compute_host.name, qp.qpn, vqpn, descriptor.rkey, priority
            )
            setattr(state, attr, channel)
            self._channels_by_vqpn[vqpn] = channel
            self._instance_by_vqpn[vqpn] = state
        # One channel per distinct memory-pool node.
        pool_nodes = {h.node for h in descriptor.remote_regions.values()}
        for pool_node in sorted(pool_nodes):
            pool_host = pool_hosts[pool_node]
            qp = pool_host.nic.create_qp()
            vqpn = next(self._vqpn_counter)
            qp.connect(self.node, vqpn)
            channel = _Channel(
                self, pool_node, qp.qpn, vqpn, 0, self.config.data_priority
            )
            state.pool_channels[pool_node] = channel
            self._channels_by_vqpn[vqpn] = channel
            self._instance_by_vqpn[vqpn] = state
        self._instances.append(state)

    def start(self) -> None:
        """Begin Phase II probing and the timeout scanner."""
        if self._started:
            raise RuntimeError("engine already started")
        if not self._instances:
            raise RuntimeError("no instances registered")
        self._started = True
        self._probe_token = self.sim.call_after_cancellable(
            self.config.probe_interval_ns, self._probe_tick
        )
        self._timeout_token = self.sim.call_after_cancellable(
            self.config.timeout_ns, self._timeout_tick
        )

    def stop(self) -> None:
        """Halt probing and timeout scanning; cancel the pending ticks.

        Without this a built deployment leaks one recurring sim event
        per tick forever (each tick re-arms itself unconditionally).
        Idempotent: stopping a never-started or already-stopped engine
        is a no-op.
        """
        self._started = False
        if self._probe_token is not None:
            self._probe_token.cancel()
            self._probe_token = None
        if self._timeout_token is not None:
            self._timeout_token.cancel()
            self._timeout_token = None

    def stats_snapshot(self) -> dict:
        """Flat engine counters (the OffloadEngine protocol view)."""
        return dataclasses.asdict(self.stats)

    # ------------------------------------------------------------------
    # Phase II: probing (time-division multiplexed across instances)
    # ------------------------------------------------------------------
    def _probe_tick(self) -> None:
        if not self._started:
            return
        state = self._next_probe_target()
        interval = self.config.probe_interval_ns
        if self.config.adaptive_probing and state is not None:
            interval = min(
                interval * state.probe_interval_scale,
                self.config.adaptive_max_interval_ns,
            )
        self.stats.probe_rounds += 1
        if state is not None and not state.probe_inflight:
            state.probe_inflight = True
            self.stats.probes_sent += 1
            state.probe_channel.emit_read(
                state.descriptor.bookkeeping_addr,
                GreenBlock.SIZE,
                kind="probe",
                instance=state,
            )
        self._probe_token = self.sim.call_after_cancellable(
            interval, self._probe_tick
        )

    def _next_probe_target(self) -> Optional[_Instance]:
        """Pick the instance this probe slot serves (Section 5.4 TDM).

        Round-robin treats instances uniformly.  The weighted policy
        concentrates slots on recently active instances: an idle
        instance only consumes a slot every ``idle_stride`` visits, so
        active applications see probe intervals close to the slot
        period even with many idle co-tenants.
        """
        n = len(self._instances)
        if self.config.probe_policy == "round-robin":
            state = self._instances[self._probe_cycle % n]
            self._probe_cycle += 1
            return state
        for _ in range(n):
            state = self._instances[self._probe_cycle % n]
            self._probe_cycle += 1
            if state.activity_ttl > 0:
                return state
            state.idle_skips += 1
            if state.idle_skips >= self.config.idle_stride:
                state.idle_skips = 0
                return state
        return None

    # ------------------------------------------------------------------
    # The data plane pipeline: every packet traverses this
    # ------------------------------------------------------------------
    def _pipeline(self, packet, link) -> list:
        if not isinstance(packet, RocePacket) or packet.dst != self.node:
            return [packet]  # transit traffic: forward unchanged
        bth = packet.bth
        channel = self._channels_by_vqpn.get(bth.dest_qp)
        if channel is None:
            self.stats.stale_packets += 1
            return []
        state = self._instance_by_vqpn[bth.dest_qp]
        opcode = bth.opcode
        if opcode in READ_RESPONSES:
            self._on_read_response(state, channel, packet)
        elif opcode is OP_ACKNOWLEDGE:
            self._on_ack(state, channel, packet)
        return []  # always consumed: the switch interdicts all RDMA

    def _on_read_response(self, state: _Instance, channel: _Channel, packet) -> None:
        op = channel.match(packet.bth.psn)
        if op is None:
            self.stats.stale_packets += 1
            return
        offset = psn_distance(op.first_psn, packet.bth.psn) * self.config.mtu_bytes
        if op.kind in ("probe", "meta"):
            # Control reads are parsed by the pipeline (they fit the PHV).
            if len(op.buffer) < op.expect_bytes:
                op.buffer.extend(b"\x00" * (op.expect_bytes - len(op.buffer)))
            op.buffer[offset : offset + len(packet.payload)] = packet.payload
        op.received_bytes += len(packet.payload)
        complete = (
            op.received_bytes >= op.expect_bytes
            and packet.bth.opcode in READ_RESPONSE_TAILS
        )
        if op.kind == "probe":
            if complete:
                channel.retire(op)
                if self._tel.enabled:
                    self._tel.complete(
                        "p4.probe", op.issued_at, self.sim.now,
                        process=self.node, track=f"qp{channel.virtual_qpn}",
                    )
                self._on_probe_response(state, bytes(op.buffer))
        elif op.kind == "meta":
            if complete:
                channel.retire(op)
                if self._tel.enabled:
                    self._tel.complete(
                        "p4.meta_fetch", op.issued_at, self.sim.now,
                        process=self.node, track=f"qp{channel.virtual_qpn}",
                        bytes=op.expect_bytes,
                    )
                self._on_metadata(state, bytes(op.buffer))
        elif op.kind == "read_fetch":
            self._convert_read_data(state, op, packet, offset, complete)
        elif op.kind == "write_fetch":
            self._convert_write_data(state, op, packet, offset, complete)
        else:
            self.stats.stale_packets += 1

    # -- Phase II continued: probe response -> metadata fetch ------------
    def _on_probe_response(self, state: _Instance, payload: bytes) -> None:
        self.stats.probe_responses += 1
        state.probe_inflight = False
        state.see_tail(GreenBlock.unpack(payload).request_meta_tail)
        activity = state.has_unparsed()
        if activity:
            state.activity_ttl = 16  # hysteresis: stay hot for a while
        elif state.activity_ttl > 0:
            state.activity_ttl -= 1
        if self.config.adaptive_probing:
            state.probe_interval_scale = (
                1.0 if activity else min(state.probe_interval_scale * 2.0, 64.0)
            )
        self._maybe_fetch_metadata(state)

    def _maybe_fetch_metadata(self, state: _Instance) -> None:
        if state.meta_fetch_inflight or not state.has_unparsed():
            return
        # The ring may wrap: fetch only the contiguous run from the
        # parse point ("issue one or more RDMA read requests", Section 5.2).
        start, end, addr, length = state.next_fetch()
        state.meta_fetch_inflight = True
        self.stats.metadata_fetches += 1
        self.stats.recycled_packets += 1  # probe response recycled into this read
        state.data_channel.emit_read(addr, length, kind="meta", instance=state)
        state._meta_fetch_span = (start, end)

    # -- Phase III: parse metadata, execute transfers ---------------------
    def _on_metadata(self, state: _Instance, payload: bytes) -> None:
        start, end = state._meta_fetch_span
        state.meta_fetch_inflight = False
        now = self.sim.now
        app_ops = state.parse(
            payload, start, end,
            lambda metadata, sequence, index: _AppOp(
                instance=state, sequence=sequence, metadata=metadata,
                ring_index=index, parsed_at=now,
            ),
        )
        self.stats.requests_parsed += len(app_ops)
        state.pending.extend(app_ops)
        self._drain_pending(state)
        self._maybe_fetch_metadata(state)

    def _drain_pending(self, state: _Instance) -> None:
        """FIFO execution with the pause-all-reads rule (Section 5.3)."""
        while state.pending:
            app_op = state.pending[0]
            if app_op.metadata.rw_type is RwType.READ:
                if state.fetching_writes > 0:
                    self.stats.reads_paused += 1
                    return  # paused until no write is in Phase III step 1b
                state.pending.popleft()
                self._execute_read(state, app_op)
            else:
                state.pending.popleft()
                self._execute_write(state, app_op)

    def _pool_channel_for(self, state: _Instance, region_id: int) -> tuple[_Channel, int]:
        handle = state.descriptor.remote_regions[region_id]
        return state.pool_channels[handle.node], handle.rkey

    def _execute_read(self, state: _Instance, app_op: _AppOp) -> None:
        """Phase III step 1a: fetch the requested data from the pool."""
        channel, rkey = self._pool_channel_for(state, app_op.metadata.region_id)
        if not app_op.retries:
            self.stats.recycled_packets += 1  # recycled from the Phase II response
        app_op.fetch_op = channel.emit_read(
            app_op.metadata.req_addr,
            app_op.metadata.length,
            kind="read_fetch",
            parent=app_op,
            instance=state,
            rkey=rkey,
        )

    def _execute_write(self, state: _Instance, app_op: _AppOp) -> None:
        """Phase III step 1b: fetch the to-be-written data from compute."""
        self.stats.recycled_packets += 1
        self._execute_write_fetch(state, app_op)

    def _execute_write_fetch(self, state: _Instance, app_op: _AppOp) -> None:
        state.fetching_writes += 1
        app_op.fetch_op = state.data_channel.emit_read(
            app_op.metadata.req_addr,
            app_op.metadata.length,
            kind="write_fetch",
            parent=app_op,
            instance=state,
        )

    def _convert_read_data(
        self, state: _Instance, op: _EngineOp, packet, offset: int, complete: bool
    ) -> None:
        """Step 2a: recycle a pool read response into a compute write."""
        app_op = op.parent
        if app_op.write_train is None:
            app_op.write_train = state.data_channel.open_op(
                op.expect_bytes, kind="resp_write", parent=app_op, instance=state
            )
        self.stats.recycled_packets += 1
        segment = psn_distance(op.first_psn, packet.bth.psn)
        if complete:
            op.channel.retire(op)
        state.data_channel.emit_write_segment(
            app_op.write_train,
            segment,
            dest_addr=app_op.metadata.resp_addr,
            dest_rkey=state.descriptor.rkey,
            payload=packet.payload,
            recycle=packet,
        )

    def _convert_write_data(
        self, state: _Instance, op: _EngineOp, packet, offset: int, complete: bool
    ) -> None:
        """Step 2b: recycle compute data into a memory-pool write."""
        app_op = op.parent
        channel, rkey = self._pool_channel_for(state, app_op.metadata.region_id)
        if app_op.write_train is None:
            app_op.write_train = channel.open_op(
                op.expect_bytes, kind="pool_write", parent=app_op, instance=state
            )
        self.stats.recycled_packets += 1
        segment = psn_distance(op.first_psn, packet.bth.psn)
        channel.emit_write_segment(
            app_op.write_train,
            segment,
            dest_addr=app_op.metadata.resp_addr,
            dest_rkey=rkey,
            payload=packet.payload,
            recycle=packet,
        )
        if complete:
            op.channel.retire(op)
            state.fetching_writes -= 1
            self._drain_pending(state)

    # -- Phase IV: completion ---------------------------------------------
    def _on_ack(self, state: _Instance, channel: _Channel, packet) -> None:
        if packet.aeth is not None and packet.aeth.is_nak:
            self._go_back_n(channel)
            return
        # Cumulative ACK: retire covered *write* ops on this channel, in
        # PSN order.  Read-kind ops retire only via their responses — if
        # a response was dropped, the timeout path must still find the op
        # pending.  ``inflight`` is in PSN order: every append allocates
        # the next PSNs, and Go-Back-N drops every pending op when it
        # rewinds ``send_psn``.  So the scan stops at the first op that
        # starts after the ACKed PSN; no later op can be covered while
        # fewer than half the PSN space is in flight.
        psn = packet.bth.psn
        covered = []
        for op in channel.inflight:
            first_psn = op.first_psn
            if (psn - first_psn) % PSN_MODULUS >= _HALF_PSN_SPACE:
                break
            if (
                op.kind in _ACKED_KINDS
                and (psn - first_psn - op.num_psns + 1) % PSN_MODULUS < _HALF_PSN_SPACE
            ):
                covered.append(op)
        for op in covered:
            channel.retire(op)
            if op.kind != "red_update":
                self._complete_app_op(state, op.parent)

    def _complete_app_op(self, state: _Instance, app_op: _AppOp) -> None:
        app_op.completed = True
        metadata = app_op.metadata
        self._tel_request_ns.observe(self.sim.now - app_op.parsed_at)
        if self._tel.enabled:
            self._tel.complete(
                "p4.request", app_op.parsed_at, self.sim.now,
                process=self.node, track=f"inst{self._instances.index(state)}",
                rw=metadata.rw_type.name.lower(), bytes=metadata.length,
                sequence=app_op.sequence,
            )
        if metadata.rw_type is RwType.READ:
            self.stats.reads_executed += 1
        else:
            self.stats.writes_executed += 1
        state.publish()
        self._emit_red_update(state)

    def _emit_red_update(self, state: _Instance) -> None:
        """Phase IV: one RDMA write refreshes all bookkeeping (R3)."""
        self.stats.red_updates += 1
        self.stats.recycled_packets += 1  # recycled from the ACK
        payload = state.red.pack()
        train = state.data_channel.open_op(
            len(payload), kind="red_update", parent=None, instance=state
        )
        state.data_channel.emit_write_segment(
            train,
            0,
            dest_addr=state.descriptor.bookkeeping_addr + 64,  # red offset
            dest_rkey=state.descriptor.rkey,
            payload=payload,
        )

    # ------------------------------------------------------------------
    # Fault tolerance: data-plane timeouts + Go-Back-N (Section 5.3)
    # ------------------------------------------------------------------
    def _timeout_tick(self) -> None:
        if not self._started:
            return
        for channel in self._channels_by_vqpn.values():
            oldest = channel.oldest_pending()
            if oldest is not None and (
                self.sim.now - oldest.issued_at >= self.config.timeout_ns
            ):
                self._go_back_n(channel)
        self._timeout_token = self.sim.call_after_cancellable(
            self.config.timeout_ns, self._timeout_tick
        )

    def _go_back_n(self, channel: _Channel) -> None:
        """Rewind the channel PSN and re-execute everything incomplete.

        Replayed reads go back to the front of the instance's pending
        queue, in their original order, and obey pause-all-reads like new
        ones: a replayed write fetches its payload from the compute node
        again, and a read sent at once could overtake it.
        """
        pending = list(channel.inflight)
        if not pending:
            return
        self.stats.go_back_n_events += 1
        if self._tel.enabled:
            self._tel.instant(
                "p4.go_back_n", process=self.node,
                track=f"qp{channel.virtual_qpn}", pending=len(pending),
            )
        channel.inflight.clear()
        channel.send_psn = pending[0].first_psn
        state = pending[0].instance
        reads = []
        for op in pending:
            if op.kind == "probe":
                state.probe_inflight = False
                continue  # the probe loop regenerates probes
            if op.kind == "meta":
                state.meta_fetch_inflight = False
                self._maybe_fetch_metadata(state)
                continue
            if op.kind == "red_update":
                self._emit_red_update(state)
                continue
            # The op executes a request; the switch keeps no payloads, so
            # a replay fetches from the source again and supersedes the
            # request's fetch and converted train, on whichever channel.
            app_op = op.parent
            fetch = app_op.fetch_op
            if fetch is not None:
                # The fetch was in flight if it still sits on its own
                # channel or is ``op`` (the rewind just cleared it).  A
                # write fetch cut short gives back its ``fetching_writes``
                # count; only the fetch re-emitted below takes one again.
                in_flight = fetch.channel.retire(fetch) or fetch is op
                if in_flight and fetch.kind == "write_fetch":
                    state.fetching_writes -= 1
            if app_op.write_train is not None:
                app_op.write_train.channel.retire(app_op.write_train)
                app_op.write_train = None
            app_op.retries += 1
            if app_op.retries > self.config.max_retries:
                # Give up: the request never completes, so the client
                # sees it stall and ``ops_failed`` says why.
                self.stats.ops_failed += 1
            elif op.kind in ("read_fetch", "resp_write"):
                reads.append(app_op)
            else:
                self._execute_write_fetch(state, app_op)
        state.pending.extendleft(reversed(reads))
        self._drain_pending(state)
