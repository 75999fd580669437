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
Each channel keeps its operations in a
:class:`~repro.rdma.window.RequesterWindow`, as an RNIC queue pair does.

Consistency (Section 5.3): the switch cannot do range comparisons, so
whenever any write is fetching its payload (Phase III step 1b) the
engine pauses *all* newly probed reads.  Recovery is Go-Back-N: on a NAK
or a data-plane timeout the channel sends every outstanding operation
again at its own PSNs, oldest first.  The switch keeps no payloads, so a
write train re-reads its payload before it goes out again: a response
train from the pool, as a new read behind every write the pool executed
before it, and a pool write train from the client's request data ring,
over the probe channel, which carries only reads and so never waits
behind a write.  A channel sends in PSN order: nothing behind a train
that waits for its payload goes out before that train.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.cowbird.api import CowbirdInstance, InstanceDescriptor
from repro.cowbird.engine_core import RequestCore
from repro.cowbird.wire import GreenBlock, RedBlock, RequestMetadata, RwType
from repro.rdma.packets import (
    CARRIES_RETH,
    OP_ACKNOWLEDGE,
    OP_READ_REQUEST,
    OP_WRITE_FIRST,
    OP_WRITE_LAST,
    OP_WRITE_MIDDLE,
    OP_WRITE_ONLY,
    PSN_MASK,
    READ_RESPONSE_TAILS,
    READ_RESPONSES,
    PacketPool,
    RocePacket,
)
from repro.rdma.window import HALF_PSN_SPACE, RequesterWindow, WindowEntry
from repro.sim.engine import Simulator
from repro.sim.network import PRIORITY_LOW, PRIORITY_NORMAL, Link, Switch

__all__ = ["CowbirdP4Engine", "P4EngineConfig"]

#: Op kinds that read from a host; the rest write to one.
_READ_KINDS = frozenset({"probe", "meta", "read_fetch", "write_fetch", "refetch"})
#: Write trains: the payload of one request, converted from a read.
_TRAIN_KINDS = frozenset({"resp_write", "pool_write"})


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
class _EngineOp(WindowEntry):
    """One switch-initiated RDMA operation awaiting its response/ACK."""

    #: probe | meta | read_fetch | write_fetch | refetch (reads);
    #: resp_write | pool_write (write trains) | red_update
    kind: str = ""
    channel: Optional["_Channel"] = None
    #: Bytes moved, and where: the read's source or the write's target.
    length: int = 0
    addr: int = 0
    rkey: int = 0
    parent: Optional["_AppOp"] = None
    instance: Optional["_Instance"] = None
    #: A probe or metadata read's response, the only data parsed.
    buffer: Optional[bytearray] = None
    #: A write train's payload: one execution of the read it converts;
    #: None while the train waits for a re-fetch, and once it is sent.
    source: Optional["_EngineOp"] = None
    #: Segments of a write train sent so far, in order.
    sent: int = 0
    #: A read's response was handled; a late duplicate changes nothing.
    done: bool = False


@dataclass(slots=True, eq=False)
class _AppOp:
    """One application-level Cowbird request being executed.

    ``parsed_at`` leads, so that ``partial(_AppOp, parsed_at)`` is the
    ``make`` that :meth:`RequestCore.parse` calls with the rest; ops
    compare by identity.
    """

    #: Sim time the switch parsed this request (span begin for telemetry).
    parsed_at: float
    metadata: RequestMetadata
    sequence: int
    ring_index: int
    completed: bool = False
    write_train: Optional[_EngineOp] = None
    #: Counted in ``ops_failed``: one of its ops ran out of retries.
    failed: bool = False


class _Channel:
    """The engine's requester state toward one host QP, held in switch
    registers: the destination QPN, the switch port that reaches it and
    a window of in-flight operations.  It sends in PSN order: while a
    write train streams or waits for its payload, the ops opened behind
    it wait in ``backlog``."""

    def __init__(self, engine: "CowbirdP4Engine", peer_node: str, peer_qpn: int,
                 virtual_qpn: int, rkey: int, priority: int, egress: Link) -> None:
        self.engine = engine
        self.peer_node = peer_node
        self.peer_qpn = peer_qpn
        self.virtual_qpn = virtual_qpn
        self.rkey = rkey
        self.priority = priority
        #: The switch's egress link toward ``peer_node``.
        self.egress = egress
        self.window = RequesterWindow()
        #: Opened ops not yet sent, in PSN order, headed by a write train.
        self.backlog: deque[_EngineOp] = deque()


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
        #: The program keeps the switch's counters for the packets it
        #: consumes and sends (see :meth:`Switch.install`).
        self._switch_stats = switch.stats
        self._forward_delay_ns = switch.forward_delay_ns
        switch.install(self)

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
        compute, rkey = instance.host, descriptor.rkey
        config = self.config
        state.probe_channel = self._connect(state, compute, rkey, config.probe_priority)
        state.data_channel = self._connect(state, compute, rkey, config.data_priority)
        # One channel per distinct memory-pool node.
        for pool_node in sorted({h.node for h in descriptor.remote_regions.values()}):
            state.pool_channels[pool_node] = self._connect(
                state, pool_hosts[pool_node], 0, config.data_priority
            )
        self._instances.append(state)

    def _connect(self, state: _Instance, host, rkey: int, priority: int) -> _Channel:
        """A channel toward a new QP on ``host``, which the switch answers
        under a virtual QPN (Section 5.4: the switch keys on the QPN)."""
        qp = host.nic.create_qp()
        vqpn = next(self._vqpn_counter)
        qp.connect(self.node, vqpn)
        channel = _Channel(
            self, host.name, qp.qpn, vqpn, rkey, priority,
            self.switch.port_to(host.name),
        )
        self._channels_by_vqpn[vqpn] = channel
        self._instance_by_vqpn[vqpn] = state
        return channel

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
            self._emit(
                state.probe_channel,
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
    # The data plane program: every packet that arrives at the switch
    # comes here first (Switch.install)
    # ------------------------------------------------------------------
    def receive(self, packet, link) -> None:
        """Consume an RDMA packet addressed to the switch (the switch
        interdicts all RDMA); forward any other packet unchanged."""
        if packet.__class__ is not RocePacket or packet.dst != self.node:
            self.switch.receive(packet, link)  # transit traffic
            return
        self._switch_stats.packets_consumed += 1
        channel = self._channels_by_vqpn.get(packet.dest_qp)
        if channel is None:
            self.stats.stale_packets += 1
            return
        state = self._instance_by_vqpn[packet.dest_qp]
        opcode = packet.opcode
        if opcode in READ_RESPONSES:
            psn = self._on_read_response(state, channel, packet)
            if psn is None:
                return
        elif opcode is not OP_ACKNOWLEDGE:
            return
        elif (packet.syndrome & 0xE0) == 0x60:  # a NAK, of any NAK code
            self._go_back_n(channel)
            return
        else:
            psn = packet.psn
        # Phase IV: an ACK, or a read's last response, retires what it
        # covers; an acknowledged write train completes its request.
        # Nothing waiting in the backlog retires, though the responder
        # may have executed it before: an older duplicate sent since may
        # have undone it.  So a train never retires while it waits for
        # its payload.
        backlog = channel.backlog
        if backlog:
            first = backlog[0].first_psn
            if (psn - first) & PSN_MASK < HALF_PSN_SPACE:  # psn >= first
                psn = (first - 1) & PSN_MASK
        for op in channel.window.retire_through(psn):
            if op.kind not in _TRAIN_KINDS:
                continue
            # The request completes.
            app_op = op.parent
            app_op.completed = True
            if self._tel.enabled:
                self._trace_request(state, app_op)
            stats = self.stats
            if app_op.metadata.rw_type is RwType.READ:
                stats.reads_executed += 1
            else:
                stats.writes_executed += 1
            state.publish()
            # One RDMA write refreshes all bookkeeping (R3).
            stats.red_updates += 1
            stats.recycled_packets += 1  # recycled from the ACK
            self._emit(
                state.data_channel,
                state.descriptor.bookkeeping_addr + 64,  # the red block's offset
                RedBlock.SIZE, "red_update", None, state,
            )

    def _on_read_response(self, state: _Instance, channel: _Channel, packet) -> Optional[int]:
        """Handle one read response; return the read's last PSN once its
        data is all in."""
        op = channel.window.find(packet.psn)
        if op is None:
            self.stats.stale_packets += 1
            return None
        op.missing -= len(packet.payload)
        complete = op.missing <= 0 and packet.opcode in READ_RESPONSE_TAILS
        # A duplicate of a response already handled only retires the op.
        if op.done:
            pass
        elif op.kind == "probe" or op.kind == "meta":
            # Control reads are parsed by the pipeline (they fit the PHV).
            if op.buffer is None:
                op.buffer = bytearray(op.length)
            offset = ((packet.psn - op.first_psn) & PSN_MASK) * self.config.mtu_bytes
            op.buffer[offset : offset + len(packet.payload)] = packet.payload
            if complete:
                op.done = True
                probe = op.kind == "probe"
                if self._tel.enabled:
                    self._tel.complete(
                        "p4.probe" if probe else "p4.meta_fetch",
                        op.issued_at, self.sim.now,
                        process=self.node, track=f"qp{channel.virtual_qpn}",
                        **({} if probe else {"bytes": op.length}),
                    )
                if probe:
                    self._on_probe_response(state, bytes(op.buffer))
                else:
                    self._on_metadata(state, bytes(op.buffer))
        else:
            self._convert(state, op, packet, complete)
        return (op.first_psn + op.num_psns - 1) & PSN_MASK if complete else None

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
        self._emit(state.data_channel, addr, length, kind="meta", instance=state)
        state._meta_fetch_span = (start, end)

    # -- Phase III: parse metadata, execute transfers ---------------------
    def _on_metadata(self, state: _Instance, payload: bytes) -> None:
        start, end = state._meta_fetch_span
        state.meta_fetch_inflight = False
        app_ops = state.parse(payload, start, end, partial(_AppOp, self.sim.now))
        self.stats.requests_parsed += len(app_ops)
        state.pending.extend(app_ops)
        self._drain_pending(state)
        self._maybe_fetch_metadata(state)

    def _drain_pending(self, state: _Instance) -> None:
        """FIFO execution with the pause-all-reads rule (Section 5.3)."""
        pending = state.pending
        while pending:
            app_op = pending[0]
            metadata = app_op.metadata
            if metadata.rw_type is not RwType.READ:
                pending.popleft()
                self._execute_write(state, app_op)
                continue
            if state.fetching_writes > 0:
                self.stats.reads_paused += 1
                return  # paused until no write is in Phase III step 1b
            pending.popleft()
            # Phase III step 1a: fetch the requested data from the pool.
            handle = state.descriptor.remote_regions[metadata.region_id]
            self.stats.recycled_packets += 1  # recycled from the Phase II response
            self._emit(
                state.pool_channels[handle.node], metadata.req_addr, metadata.length,
                "read_fetch", app_op, state, handle.rkey,
            )

    def _execute_write(self, state: _Instance, app_op: _AppOp) -> None:
        """Phase III step 1b: fetch the to-be-written data from compute."""
        self.stats.recycled_packets += 1
        state.fetching_writes += 1
        metadata = app_op.metadata
        self._emit(
            state.data_channel, metadata.req_addr, metadata.length, "write_fetch",
            app_op, state,
        )

    def _convert(self, state: _Instance, op: _EngineOp, packet, complete: bool) -> None:
        """Step 2: recycle a fetched segment into the request's write train,
        a pool read response into a compute write (2a) or compute data
        into a pool write (2b).  The fetch's first response opens the
        train; only its current source feeds it, one segment after the
        other."""
        app_op = op.parent
        train = app_op.write_train
        if train is None:
            metadata = app_op.metadata
            if op.kind == "read_fetch":
                channel = state.data_channel
                kind, rkey = "resp_write", state.descriptor.rkey
            else:
                handle = state.descriptor.remote_regions[metadata.region_id]
                channel = state.pool_channels[handle.node]
                kind, rkey = "pool_write", handle.rkey
            # first_psn, num_psns, issued_at, missing, retries, kind, channel,
            # length, addr, rkey, parent, instance, buffer, source
            train = app_op.write_train = _EngineOp(
                0, op.num_psns, self.sim.now, 0, 0, kind, channel,
                op.length, metadata.resp_addr, rkey, app_op, state, None, op,
            )
            channel.window.open(train)
            if channel.backlog:
                train.source = None  # behind another train: re-fetch at the head
            channel.backlog.append(train)
        segment = (packet.psn - op.first_psn) & PSN_MASK
        if train.source is op and segment == train.sent:
            # Recycle the response in place: headers swapped, payload
            # untouched, so the execute path allocates no packets.
            self.stats.recycled_packets += 1
            n = train.num_psns
            if n == 1:
                opcode = OP_WRITE_ONLY
            elif segment == 0:
                opcode = OP_WRITE_FIRST
            elif segment == n - 1:
                opcode = OP_WRITE_LAST
            else:
                opcode = OP_WRITE_MIDDLE
            is_tail = segment == n - 1
            # Only the head of the train (FIRST or ONLY) carries the RETH.
            if opcode in CARRIES_RETH:
                vaddr, rkey, length = train.addr, train.rkey, train.length
            else:
                vaddr = rkey = length = 0
            channel = train.channel
            switch_stats = self._switch_stats
            switch_stats.packets_generated += 1
            switch_stats.packets_forwarded += 1
            channel.egress.send(
                packet.recycle(
                    self.node, channel.peer_node, opcode, channel.peer_qpn,
                    (train.first_psn + segment) & PSN_MASK,
                    is_tail, vaddr, rkey, length,  # ack_request, RETH
                    channel.priority,
                ),
                self.sim.now + self._forward_delay_ns,
            )
            train.sent = segment + 1
            if is_tail:  # the train heads its backlog: the ops behind it go
                train.source = None
                channel.backlog.popleft()
                if channel.backlog:
                    self._flush(channel)
        if complete:
            op.done = True
            if op.kind == "write_fetch":
                state.fetching_writes -= 1
                self._drain_pending(state)

    # -- Phase IV: completion (in receive) ---------------------------------
    def _trace_request(self, state: _Instance, app_op: _AppOp) -> None:
        """Record a completed request's latency and span."""
        metadata = app_op.metadata
        self._tel_request_ns.observe(self.sim.now - app_op.parsed_at)
        self._tel.complete(
            "p4.request", app_op.parsed_at, self.sim.now,
            process=self.node, track=f"inst{self._instances.index(state)}",
            rw=metadata.rw_type.name.lower(), bytes=metadata.length,
            sequence=app_op.sequence,
        )

    # ------------------------------------------------------------------
    # Fault tolerance: data-plane timeouts + Go-Back-N (Section 5.3)
    # ------------------------------------------------------------------
    def _timeout_tick(self) -> None:
        if not self._started:
            return
        now = self.sim.now
        timeout = self.config.timeout_ns
        for channel in self._channels_by_vqpn.values():
            if channel.window.expired(now, timeout):
                self._go_back_n(channel)
        self._timeout_token = self.sim.call_after_cancellable(
            self.config.timeout_ns, self._timeout_tick
        )

    def _go_back_n(self, channel: _Channel) -> None:
        """Send every outstanding op again at its own PSNs, oldest first,
        as the RNIC does; ``send_psn`` never moves back.  A write train
        re-fetches its payload first (:meth:`_flush`), and nothing behind
        it goes out before it: the older write, executed again, would
        undo a later one.  An op sent more than ``max_retries`` times is
        given up."""
        outstanding = channel.window.outstanding
        if not outstanding:
            return
        self.stats.go_back_n_events += 1
        if self._tel.enabled:
            self._tel.instant(
                "p4.go_back_n", process=self.node,
                track=f"qp{channel.virtual_qpn}", pending=len(outstanding),
            )
        now = self.sim.now
        backlog = channel.backlog
        backlog.clear()
        starved = []
        for op in list(outstanding):
            op.retries += 1
            if op.kind in _READ_KINDS:
                op.missing = op.length
                train = op.parent.write_train if op.parent is not None else None
                if train is not None and train.source is op:
                    # A read sent again may return newer data: the train
                    # it streams into re-fetches rather than mix versions.
                    train.source = None
                    starved.append(train)
            elif op.kind in _TRAIN_KINDS:
                op.source = None
            if op.retries > self.config.max_retries:
                self._give_up(channel, op)
                continue
            op.issued_at = now
            backlog.append(op)
        self._flush(channel)
        for train in starved:
            self._flush(train.channel)

    def _emit(self, channel: _Channel, addr: int, length: int, kind: str,
              parent: Optional[_AppOp] = None, instance: Optional[_Instance] = None,
              rkey: Optional[int] = None) -> _EngineOp:
        """Open a read, or a red block update, on ``channel`` and send it
        unless it must wait behind a write train; read responses are
        matched by PSN."""
        mtu = self.config.mtu_bytes
        now = self.sim.now
        # first_psn (the window's to give), num_psns, issued_at, missing,
        # retries, kind, channel, length, addr, rkey, parent, instance
        op = _EngineOp(
            0, (length + mtu - 1) // mtu or 1, now,
            length if kind in _READ_KINDS else 0, 0,
            kind, channel, length, addr, channel.rkey if rkey is None else rkey,
            parent, instance,
        )
        channel.window.open(op)
        if channel.backlog:
            channel.backlog.append(op)
            return op
        # _send, inlined: one send per op.
        if kind == "red_update":
            opcode, payload = OP_WRITE_ONLY, instance.red.pack()
        else:
            opcode, payload = OP_READ_REQUEST, b""
        stats = self._switch_stats
        stats.packets_generated += 1
        stats.packets_forwarded += 1
        channel.egress.send(
            self.pool.acquire(
                self.node, channel.peer_node, opcode, channel.peer_qpn, op.first_psn,
                True, addr, op.rkey, length,  # ack_request, RETH
                0, 0, payload,  # no AETH
                channel.priority,
            ),
            now + self._forward_delay_ns,
        )
        return op

    def _send(self, channel: _Channel, op: _EngineOp) -> None:
        """Put a read request or a red block update from the backlog on the
        wire (:meth:`_emit` sends the others itself).  An update carries
        the red block as it is when sent."""
        now = op.issued_at = self.sim.now
        if op.kind == "red_update":
            opcode, payload = OP_WRITE_ONLY, op.instance.red.pack()
        else:
            opcode, payload = OP_READ_REQUEST, b""
        stats = self._switch_stats
        stats.packets_generated += 1
        stats.packets_forwarded += 1
        channel.egress.send(
            self.pool.acquire(
                self.node, channel.peer_node, opcode, channel.peer_qpn, op.first_psn,
                True, op.addr, op.rkey, op.length,  # ack_request, RETH
                0, 0, payload,  # no AETH
                channel.priority,
            ),
            now + self._forward_delay_ns,
        )

    def _flush(self, channel: _Channel) -> None:
        """Send the channel's backlog in PSN order, up to the first write
        train; a train without a payload source re-fetches it."""
        backlog = channel.backlog
        while backlog:
            op = backlog[0]
            if op.kind in _TRAIN_KINDS:
                if op.source is None:
                    self._refetch(op)
                return  # the train's tail lets the rest go
            backlog.popleft()
            self._send(channel, op)

    def _refetch(self, train: _EngineOp) -> None:
        """Read a write train's payload again.  A response train reads the
        pool as a new read on its pool channel, after every write the pool
        executed before it.  A pool write train reads the client's request
        data ring over the probe channel, which carries only reads; the
        client frees those bytes only once this train is acknowledged."""
        state = train.instance
        app_op = train.parent
        metadata = app_op.metadata
        if train.kind == "resp_write":
            handle = state.descriptor.remote_regions[metadata.region_id]
            channel, rkey = state.pool_channels[handle.node], handle.rkey
        else:
            channel, rkey = state.probe_channel, None
        train.issued_at = self.sim.now
        train.sent = 0
        train.source = self._emit(
            channel, metadata.req_addr, metadata.length, "refetch", app_op, state, rkey
        )

    def _give_up(self, channel: _Channel, op: _EngineOp) -> None:
        """Drop an op out of retries: its request never completes, and
        ``ops_failed`` says why; a probe or metadata read is issued anew."""
        channel.window.outstanding.remove(op)
        state = op.instance
        if op.kind == "probe":
            state.probe_inflight = False
        elif op.kind == "meta":
            state.meta_fetch_inflight = False
        app_op = op.parent
        if app_op is not None and not app_op.failed:
            app_op.failed = True
            self.stats.ops_failed += 1
        if op.kind == "write_fetch" and not op.done:
            state.fetching_writes -= 1
            self._drain_pending(state)
