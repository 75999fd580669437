"""The RNIC model: DMA, segmentation, reliability, and pacing.

An :class:`RNIC` terminates a host's link and implements both halves of
the reliable-connection protocol:

* **Requester**: turns posted work requests into RoCEv2 packets —
  one READ request per read (responses consume one PSN per MTU
  segment), a First/Middle/Last WRITE train per write — and retires
  them into completion queues when responses/ACKs arrive.
* **Responder**: services incoming one-sided operations against the
  host's registered memory *without any host CPU involvement* (this is
  why the memory pool needs no compute, and why the Cowbird compute
  node can have its request queues read remotely for free).
* **Reliability**: 24-bit PSN validation, cumulative ACKs, one NAK per
  sequence error, and Go-Back-N retransmission on a sequence NAK or
  timeout (Section 5.3's recovery story ends up exercising exactly this
  machinery).  Each QP's outstanding WRs live in a
  :class:`~repro.rdma.window.RequesterWindow`.  Duplicates execute
  again, but a duplicate multi-packet write lands only with a replay
  that is whole.  A remote access error (bad rkey, out of bounds) is not
  retried: it fails its WR and puts the QP in the error state.
* **Pacing**: a per-message initiation gap models the NIC's finite
  message rate — the "request-level bottleneck" that motivates
  batching in Redy and in Cowbird's offload engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.memory.region import AccessError, BoundsError, RegionRegistry
from repro.rdma.packets import (
    CARRIES_AETH,
    CARRIES_RETH,
    OP_ACKNOWLEDGE,
    OP_READ_REQUEST,
    OP_READ_RESPONSE_FIRST,
    OP_READ_RESPONSE_LAST,
    OP_READ_RESPONSE_MIDDLE,
    OP_READ_RESPONSE_ONLY,
    OP_SEND_ONLY,
    OP_WRITE_FIRST,
    OP_WRITE_LAST,
    OP_WRITE_MIDDLE,
    OP_WRITE_ONLY,
    READ_RESPONSE_TAILS,
    READ_RESPONSES,
    WRITE_TAILS,
    WRITES,
    PSN_MASK,
    RocePacket,
    SYNDROME_ACK,
    SYNDROME_NAK_PSN_ERROR,
    SYNDROME_NAK_REMOTE_ACCESS,
)
from repro.rdma.qp import (
    Completion,
    CompletionQueue,
    CompletionStatus,
    QueuePair,
    WorkRequest,
    WorkType,
    _Outstanding,
)
from repro.rdma.window import HALF_PSN_SPACE
from repro.sim.engine import Simulator
from repro.sim.network import Link, PRIORITY_NORMAL

__all__ = ["NicConfig", "RNIC"]


@dataclass
class NicConfig:
    """RNIC performance parameters (ConnectX-5 class defaults)."""

    #: Maximum message initiation rate, millions of messages per second
    #: (a ConnectX-5 sustains ~200 M small messages/s across QPs).
    message_rate_mops: float = 200.0
    #: Fixed packet-processing latency on receive.
    processing_delay_ns: float = 250.0
    #: Path MTU; RDMA segments payloads above this (Section 5.2: 1024).
    mtu_bytes: int = 1024
    #: Go-Back-N retransmission timeout.
    retransmit_timeout_ns: float = 100_000.0
    #: Retry budget before a WR completes with RETRY_EXCEEDED.
    max_retries: int = 7
    #: Network priority stamped on generated packets.
    priority: int = PRIORITY_NORMAL
    #: Minimum time between two message initiations, derived from
    #: ``message_rate_mops`` once rather than on every post.
    message_gap_ns: float = field(init=False)

    def __post_init__(self) -> None:
        self.message_gap_ns = (
            1_000.0 / self.message_rate_mops if self.message_rate_mops > 0 else 0.0
        )


@dataclass
class NicStats:
    posts: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0
    rx_packets: int = 0
    rx_bytes: int = 0
    messages_initiated: int = 0
    retransmit_timeouts: int = 0
    naks_sent: int = 0
    duplicates: int = 0


@dataclass
class _WriteContext:
    """Responder-side cursor for an in-progress multi-packet write."""

    rkey: int
    next_addr: int


class RNIC:
    """One host's RDMA NIC, attached to the host's region registry."""

    def __init__(
        self,
        sim: Simulator,
        node: str,
        registry: RegionRegistry,
        config: Optional[NicConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.registry = registry
        self.config = config or NicConfig()
        self.link: Optional[Link] = None
        self.stats = NicStats()
        self._qps: dict[int, QueuePair] = {}
        self._next_qpn = 100
        self._next_send_slot = 0.0
        self._recv_queues: dict[int, deque[WorkRequest]] = {}
        self._write_contexts: dict[int, _WriteContext] = {}
        self._timer_armed: set[int] = set()
        #: Per-QP timeout callbacks, created once so re-arming a timer
        #: allocates nothing.
        self._timer_callbacks: dict[int, Callable[[], None]] = {}
        # Send slots are monotonic, so pending initiations drain FIFO
        # through one cached callback instead of a closure per message.
        self._initiate_pending: deque[tuple[QueuePair, WorkRequest]] = deque()
        self._initiate_next_callback = self._initiate_next
        #: Taps invoked on every delivered (non-dropped) packet, in
        #: attach order; :meth:`add_rx_hook` chains one more.
        self._rx_hooks: list[Callable[[RocePacket], None]] = []
        self._tel = sim.telemetry
        self._tel.expose(f"nic.{node}", self.stats)

    # ------------------------------------------------------------------
    # Receive taps
    # ------------------------------------------------------------------
    def add_rx_hook(self, hook: Callable[[RocePacket], None]) -> None:
        """Chain ``hook`` after any existing taps (never overwrites)."""
        self._rx_hooks.append(hook)

    # ------------------------------------------------------------------
    # Setup (Phase I)
    # ------------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        self.link = link

    def create_qp(self, cq: Optional[CompletionQueue] = None) -> QueuePair:
        qpn = self._next_qpn
        self._next_qpn += 1
        # Note: an empty CompletionQueue is falsy (it has __len__), so an
        # explicit None check is required here.
        qp = QueuePair(qpn, self, cq if cq is not None else CompletionQueue())
        self._qps[qpn] = qp
        self._recv_queues[qpn] = deque()
        return qp

    def qp(self, qpn: int) -> QueuePair:
        return self._qps[qpn]

    # ------------------------------------------------------------------
    # Requester: posting work
    # ------------------------------------------------------------------
    def post(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Ring the doorbell: initiate ``wr`` on ``qp``.

        CPU cost of the post is charged by the verbs layer; here the NIC
        schedules the work respecting its message-rate limit.
        """
        if qp.remote_node is None or qp.remote_qpn is None:  # QueuePair.connected
            raise RuntimeError(f"QP {qp.qpn} not connected")
        self.stats.posts += 1
        if qp.in_error:
            self._flush(qp, wr)
            return
        if wr.work_type is WorkType.RECV:
            self._recv_queues[qp.qpn].append(wr)
            return
        # Serialize message initiations at the NIC's message rate.
        sim = self.sim
        now = sim.now
        slot = max(now, self._next_send_slot)
        self._next_send_slot = slot + self.config.message_gap_ns
        self._initiate_pending.append((qp, wr))
        sim.call_at(now + (slot - now), self._initiate_next_callback)

    def _initiate_next(self) -> None:
        """Initiate the oldest posted work request, at its send slot."""
        qp, wr = self._initiate_pending.popleft()
        if qp.in_error:  # the QP failed while ``wr`` waited for its slot
            self._flush(qp, wr)
            return
        self.stats.messages_initiated += 1
        work_type = wr.work_type
        mtu = self.config.mtu_bytes
        num_psns = 1 if work_type is WorkType.SEND else (wr.length + mtu - 1) // mtu or 1
        # first_psn (the window's to give), num_psns, issued_at, missing
        # (a read's data), retries, wr
        entry = _Outstanding(
            0, num_psns, self.sim.now,
            wr.length if work_type is WorkType.READ else 0, 0, wr,
        )
        window = qp.window
        window.open(entry)
        if self._tel.enabled:
            qp._tel_outstanding.set(len(window.outstanding))
        self._emit(qp, entry)
        if qp.qpn not in self._timer_armed:
            self._arm_timer(qp)

    def _emit(self, qp: QueuePair, entry: _Outstanding) -> None:
        """Send a WR's packets: one READ request, a WRITE train (First /
        Middle / Last) or one SEND."""
        wr = entry.wr
        work_type = wr.work_type
        priority = wr.priority if wr.priority is not None else self.config.priority
        if work_type is WorkType.READ:
            packet = RocePacket(
                self.node, qp.remote_node, OP_READ_REQUEST, qp.remote_qpn, entry.first_psn,
                True, wr.remote_addr, wr.rkey, wr.length,  # ack_request, RETH
                0, 0, b"",  # no AETH, no payload
                priority,
            )
            self._transmit(packet, qp)
        elif work_type is WorkType.WRITE:
            payload = self._dma_read_local(wr.local_addr, wr.length)
            n = entry.num_psns
            if n == 1:
                packet = RocePacket(
                    self.node, qp.remote_node, OP_WRITE_ONLY, qp.remote_qpn,
                    entry.first_psn,
                    True, wr.remote_addr, wr.rkey, wr.length,  # ack_request, RETH
                    0, 0, payload,  # no AETH
                    priority,
                )
                self._transmit(packet, qp)
                return
            mtu = self.config.mtu_bytes
            for i in range(n):
                chunk = payload[i * mtu : (i + 1) * mtu]
                if i == 0:
                    opcode = OP_WRITE_FIRST
                elif i == n - 1:
                    opcode = OP_WRITE_LAST
                else:
                    opcode = OP_WRITE_MIDDLE
                # Only the head of the train (FIRST or ONLY) carries the RETH.
                if opcode in CARRIES_RETH:
                    vaddr, rkey, length = wr.remote_addr, wr.rkey, wr.length
                else:
                    vaddr = rkey = length = 0
                packet = RocePacket(
                    self.node, qp.remote_node, opcode, qp.remote_qpn,
                    (entry.first_psn + i) & PSN_MASK,
                    i == n - 1, vaddr, rkey, length,  # ack_request, RETH
                    0, 0, chunk,  # no AETH
                    priority,
                )
                self._transmit(packet, qp)
        elif work_type is WorkType.SEND:
            payload = wr.inline_payload or self._dma_read_local(wr.local_addr, wr.length)
            if len(payload) > self.config.mtu_bytes:
                raise ValueError("SEND payloads above one MTU are not modelled")
            packet = RocePacket(
                self.node, qp.remote_node, OP_SEND_ONLY, qp.remote_qpn, entry.first_psn,
                True, 0, 0, 0,  # ack_request, no RETH
                0, 0, payload,  # no AETH
                self.config.priority,
            )
            self._transmit(packet, qp)
        else:  # pragma: no cover - RECV handled in post()
            raise RuntimeError(f"cannot initiate {work_type}")

    def _dma_read_local(self, addr: int, length: int) -> bytes:
        region = self.registry.by_addr(addr, length)
        return region.read(addr, length)

    def _dma_write_local(self, addr: int, data: bytes) -> None:
        region = self.registry.by_addr(addr, len(data))
        region.write(addr, data)

    def _transmit(self, packet: RocePacket, qp: Optional[QueuePair] = None) -> None:
        if self.link is None:
            raise RuntimeError(f"NIC {self.node!r} has no link attached")
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += packet.size_bytes
        if qp is not None:
            qp.packets_sent += 1
        self.link.send(packet)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    @property
    def rx_delay_ns(self) -> float:
        """Receive processing latency; the link folds it into delivery."""
        return self.config.processing_delay_ns

    def receive(self, packet, link) -> None:
        """Endpoint entry, :attr:`rx_delay_ns` after the packet arrived."""
        if packet.__class__ is not RocePacket:
            return  # non-RDMA traffic (e.g. TCP) addressed to this host
        stats = self.stats
        stats.rx_packets += 1
        stats.rx_bytes += packet.size_bytes
        try:
            for hook in self._rx_hooks:
                hook(packet)
            qp = self._qps.get(packet.dest_qp)
            if qp is None:
                return  # no such QP: real HCAs silently drop
            qp.packets_received += 1
            opcode = packet.opcode
            if opcode is OP_READ_REQUEST:
                self._respond_read(qp, packet)
            elif opcode in WRITES:
                self._respond_write(qp, packet)
            elif opcode is OP_SEND_ONLY:
                self._respond_send(qp, packet)
            elif opcode in READ_RESPONSES:
                self._requester_read_response(qp, packet)
            elif opcode is OP_ACKNOWLEDGE:
                self._requester_ack(qp, packet)
        finally:
            # The NIC is the terminal consumer of every delivered packet;
            # pool-allocated shells go back to their free-list here
            # (RocePacket.release, inlined).
            pool = packet._pool
            if pool is not None:
                pool.release(packet)

    # -- responder side -------------------------------------------------
    # Each responder handles the expected PSN inline; it ends a sequence
    # error, so the next gap may be NAKed again.  Any other PSN goes
    # through :meth:`_out_of_sequence`.
    def _out_of_sequence(self, qp: QueuePair, packet: RocePacket) -> bool:
        """Handle a request whose PSN is not the expected one; return
        whether to drop it.

        A duplicate (behind the expected PSN) is counted and executed
        again without advancing state.  A gap is dropped and NAKed, once
        per sequence error: the packets behind the lost one all arrive as
        gaps, and each NAK would cost the requester a full Go-Back-N
        round.
        """
        if (qp.expected_psn - packet.psn) & PSN_MASK < HALF_PSN_SPACE:
            self.stats.duplicates += 1
            return False
        if not qp.nak_pending:
            qp.nak_pending = True
            self._send_nak(qp, packet.src, SYNDROME_NAK_PSN_ERROR, qp.expected_psn)
        return True

    # A requester replay sends executed requests again, in PSN order, up to
    # the expected PSN.  They execute again, but a duplicate multi-packet
    # write waits until the replay reaches the expected PSN with no packet
    # missing, and then lands: cut short, it would be torn, or land over a
    # newer write whose own duplicate was lost.
    def _replay(self, qp: QueuePair, psn: int, next_psn: int, starts: bool,
                held: Optional[tuple] = None) -> bool:
        """Follow the replay through the duplicate at ``psn`` (up to
        ``next_psn``); return whether it continues it with no hole (a first
        packet may begin a new one).  ``held`` waits for the replay's end."""
        if psn != qp.replay_psn:
            qp.replay_writes.clear()
            if not starts:
                qp.replay_psn = None
                return False
        if held is not None:
            qp.replay_writes.append(held)
        if next_psn != qp.expected_psn:
            qp.replay_psn = next_psn
            return True
        qp.replay_psn = None
        writes, qp.replay_writes = qp.replay_writes, []
        for addr, payload, rkey in writes:  # each landed once before
            self.registry.by_rkey(rkey).remote_write(addr, payload, rkey)
        return True

    def _nak_access_error(self, qp: QueuePair, packet: RocePacket) -> None:
        """NAK a request for memory it may not touch (bad rkey, out of
        bounds) with the request's own PSN.  The expected PSN stays put
        and no sequence NAK follows for the packets behind it: the
        requester fails the WR and flushes the rest."""
        qp.nak_pending = True
        self._send_nak(qp, packet.src, SYNDROME_NAK_REMOTE_ACCESS, packet.psn)

    def _send_nak(self, qp: QueuePair, dst: str, syndrome: int, psn: int) -> None:
        self.stats.naks_sent += 1
        packet = RocePacket(
            self.node, dst, OP_ACKNOWLEDGE, qp.remote_qpn, psn,
            False, 0, 0, 0,  # no ack request, no RETH
            syndrome, qp.msn, b"",  # AETH, no payload
            self.config.priority,
        )
        self._transmit(packet, qp)

    def _send_ack(self, qp: QueuePair, psn: int,
                  priority: Optional[int] = None) -> None:
        packet = RocePacket(
            self.node, qp.remote_node, OP_ACKNOWLEDGE, qp.remote_qpn, psn,
            False, 0, 0, 0,  # no ack request, no RETH
            SYNDROME_ACK, qp.msn, b"",  # AETH, no payload
            priority if priority is not None else self.config.priority,
        )
        self._transmit(packet, qp)

    def _respond_read(self, qp: QueuePair, packet: RocePacket) -> None:
        psn = packet.psn
        expected = psn == qp.expected_psn
        if expected:
            qp.nak_pending = False
            if qp.replay_psn is not None:
                qp.replay_psn = None  # a replay cut short: its writes never land
                qp.replay_writes.clear()
        elif self._out_of_sequence(qp, packet):
            return
        rkey = packet.remote_key
        mtu = self.config.mtu_bytes
        n = max(1, (packet.dma_length + mtu - 1) // mtu)
        if not expected:
            self._replay(qp, psn, (psn + n) & PSN_MASK, True)
            partial = qp.partial_write
            if (partial is not None and partial[0] == rkey
                    and packet.virtual_address < partial[2]
                    and partial[1] < packet.virtual_address + packet.dma_length):
                # A write the read came before is half applied: the read
                # would return a torn range.  Leave it to the requester's
                # timeout; by then the write is whole.
                return
        try:
            region = self.registry.by_rkey(rkey)
            data = region.remote_read(packet.virtual_address, packet.dma_length, rkey)
        except (AccessError, BoundsError):
            self._nak_access_error(qp, packet)
            return
        if expected:
            qp.expected_psn = (psn + n) & PSN_MASK
            qp.msn = (qp.msn + 1) & PSN_MASK
        if n == 1:
            response = RocePacket(
                self.node, packet.src, OP_READ_RESPONSE_ONLY, qp.remote_qpn, psn,
                False, 0, 0, 0,  # no ack request, no RETH
                SYNDROME_ACK, qp.msn, data,
                # Echo the request's class (DSCP reflection): control
                # reads come back at control priority.
                packet.priority,
            )
            # _transmit, inlined: one response per single-packet read.
            link = self.link
            if link is None:
                raise RuntimeError(f"NIC {self.node!r} has no link attached")
            stats = self.stats
            stats.tx_packets += 1
            stats.tx_bytes += response.size_bytes
            qp.packets_sent += 1
            link.send(response)
            return
        for i in range(n):
            chunk = data[i * mtu : (i + 1) * mtu]
            if i == 0:
                opcode = OP_READ_RESPONSE_FIRST
            elif i == n - 1:
                opcode = OP_READ_RESPONSE_LAST
            else:
                opcode = OP_READ_RESPONSE_MIDDLE
            # MIDDLE responses carry no AETH.
            if opcode in CARRIES_AETH:
                syndrome, msn = SYNDROME_ACK, qp.msn
            else:
                syndrome = msn = 0
            response = RocePacket(
                self.node, packet.src, opcode, qp.remote_qpn, (psn + i) & PSN_MASK,
                False, 0, 0, 0,  # no ack request, no RETH
                syndrome, msn, chunk,
                packet.priority,
            )
            self._transmit(response, qp)

    def _respond_write(self, qp: QueuePair, packet: RocePacket) -> None:
        psn = packet.psn
        if psn != qp.expected_psn:
            if not self._out_of_sequence(qp, packet):
                self._replay_write(qp, packet)
            return
        qp.nak_pending = False
        if qp.replay_psn is not None:
            qp.replay_psn = None  # a replay cut short: its held writes never land
            qp.replay_writes.clear()
        opcode = packet.opcode
        # A multi-packet write keeps a cursor from its first packet to its
        # last; a single-packet one needs none.  A continuation with no
        # write in progress is NAKed.
        if opcode is OP_WRITE_ONLY:
            context = None
            rkey, addr = packet.remote_key, packet.virtual_address
        else:
            if opcode is OP_WRITE_FIRST:
                context = _WriteContext(packet.remote_key, packet.virtual_address)
                self._write_contexts[qp.qpn] = context
            elif opcode is OP_WRITE_LAST:
                context = self._write_contexts.pop(qp.qpn, None)
            else:
                context = self._write_contexts.get(qp.qpn)
            if context is None:
                self._send_nak(qp, packet.src, SYNDROME_NAK_PSN_ERROR, qp.expected_psn)
                return
            rkey, addr = context.rkey, context.next_addr
            context.next_addr = addr + len(packet.payload)
        try:
            region = self.registry.by_rkey(rkey)
            region.remote_write(addr, packet.payload, rkey)
        except (AccessError, BoundsError):
            self._nak_access_error(qp, packet)
            return
        qp.expected_psn = (psn + 1) & PSN_MASK
        if opcode in WRITE_TAILS:
            qp.msn = (qp.msn + 1) & PSN_MASK
            if qp.partial_write is not None:
                qp.partial_write = None
        elif opcode is OP_WRITE_FIRST:
            qp.partial_write = (rkey, addr, addr + packet.dma_length)
        if packet.ack_request:
            # _send_ack and _transmit, inlined: one ACK per write.
            ack = RocePacket(
                self.node, qp.remote_node, OP_ACKNOWLEDGE, qp.remote_qpn, psn,
                False, 0, 0, 0,  # no ack request, no RETH
                SYNDROME_ACK, qp.msn, b"",  # AETH, no payload
                packet.priority,
            )
            link = self.link
            if link is None:
                raise RuntimeError(f"NIC {self.node!r} has no link attached")
            stats = self.stats
            stats.tx_packets += 1
            stats.tx_bytes += ack.size_bytes
            qp.packets_sent += 1
            link.send(ack)

    def _replay_write(self, qp: QueuePair, packet: RocePacket) -> None:
        """A duplicate write packet: it lands again with its replay."""
        psn = packet.psn
        opcode = packet.opcode
        starts = opcode in CARRIES_RETH
        if starts:
            qp.replay_context = (packet.remote_key, packet.virtual_address, psn)
        rkey, first_addr, first_psn = qp.replay_context
        # By PSN: a continuing packet follows its write's first one.
        addr = first_addr + ((psn - first_psn) & PSN_MASK) * self.config.mtu_bytes
        single = opcode is OP_WRITE_ONLY
        held = None if single else (addr, packet.payload, rkey)
        if self._replay(qp, psn, (psn + 1) & PSN_MASK, starts, held) and single:
            try:
                self.registry.by_rkey(rkey).remote_write(addr, packet.payload, rkey)
            except (AccessError, BoundsError):
                self._nak_access_error(qp, packet)
                return
        if packet.ack_request:
            # Cumulative: acknowledge everything received so far.
            self._send_ack(qp, (qp.expected_psn - 1) & PSN_MASK, packet.priority)

    def _respond_send(self, qp: QueuePair, packet: RocePacket) -> None:
        psn = packet.psn
        if psn == qp.expected_psn:
            qp.nak_pending = False
            qp.expected_psn = (psn + 1) & PSN_MASK
            qp.msn = (qp.msn + 1) & PSN_MASK
            recvq = self._recv_queues[qp.qpn]
            if recvq:
                recv_wr = recvq.popleft()
                length = min(len(packet.payload), recv_wr.length)
                if recv_wr.local_addr:
                    self._dma_write_local(recv_wr.local_addr, packet.payload[:length])
                qp.cq.push(
                    Completion(
                        recv_wr.wr_id, CompletionStatus.SUCCESS, WorkType.RECV,
                        length, qp.qpn, self.sim.now,
                    )
                )
            # Receiver-not-ready without a posted recv: real RC would RNR-NAK;
            # we deliver the ACK anyway and count nothing (tests post recvs).
        elif self._out_of_sequence(qp, packet):
            return
        if packet.ack_request:
            self._send_ack(qp, psn, packet.priority)

    # -- requester side ---------------------------------------------------
    def _requester_read_response(self, qp: QueuePair, packet: RocePacket) -> None:
        window = qp.window
        entry = window.find(packet.psn)
        if entry is None:
            self.stats.duplicates += 1
            return
        offset = ((packet.psn - entry.first_psn) & PSN_MASK) * self.config.mtu_bytes
        local_addr = entry.wr.local_addr
        if local_addr:
            payload = packet.payload  # _dma_write_local, inlined
            addr = local_addr + offset
            self.registry.by_addr(addr, len(payload)).write(addr, payload)
        entry.missing -= len(packet.payload)
        if packet.opcode in READ_RESPONSE_TAILS and entry.missing <= 0:
            # Read responses arrive in order on RC; the tail retires the
            # entry and everything acknowledged before it.
            last_psn = (entry.first_psn + entry.num_psns - 1) & PSN_MASK
            for done in window.retire_through(last_psn):
                self._complete(qp, done, CompletionStatus.SUCCESS)

    def _requester_ack(self, qp: QueuePair, packet: RocePacket) -> None:
        if (packet.syndrome & 0xE0) == 0x60:  # a NAK, of any NAK code
            qp.note_nak()
            # Only a sequence error is recoverable by resending; any
            # other NAK fails the WR it names.
            if packet.syndrome == SYNDROME_NAK_PSN_ERROR:
                self._go_back_n(qp)
            else:
                self._fail_from(qp, packet.psn)
            return
        for done in qp.window.retire_through(packet.psn):
            self._complete(qp, done, CompletionStatus.SUCCESS)

    def _fail_from(self, qp: QueuePair, psn: int) -> None:
        """Fail the WR at ``psn`` with a remote access error.

        As on an IB RC QP, the error is fatal to the connection: the WRs
        before the failed one completed at the responder, every later one
        is flushed, and the QP enters the error state, in which later
        posts complete ``FLUSHED`` at once.
        """
        window = qp.window
        failed = window.find(psn)
        if failed is None:
            return  # stale: that WR already retired
        for done in window.retire_through((failed.first_psn - 1) & PSN_MASK):
            self._complete(qp, done, CompletionStatus.SUCCESS)
        qp.in_error = True
        rest = list(window.outstanding)
        window.outstanding.clear()
        for entry in rest:
            status = (
                CompletionStatus.REMOTE_ACCESS_ERROR if entry is failed
                else CompletionStatus.FLUSHED
            )
            self._complete(qp, entry, status)

    def _flush(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Complete a WR posted to a QP in the error state."""
        entry = _Outstanding(qp.window.send_psn, 1, self.sim.now, 0, 0, wr)
        self._complete(qp, entry, CompletionStatus.FLUSHED)

    def _complete(self, qp: QueuePair, entry: _Outstanding, status: CompletionStatus) -> None:
        wr = entry.wr
        if self._tel.enabled:
            self._tel.complete(
                f"rdma.{wr.work_type.value}",
                entry.issued_at, self.sim.now,
                process=self.node, track=f"qp{qp.qpn}",
                wr_id=wr.wr_id, bytes=wr.length,
                status=status.value, retries=entry.retries,
            )
        if wr.signaled:
            qp.cq.push(
                Completion(wr.wr_id, status, wr.work_type, wr.length, qp.qpn, self.sim.now)
            )

    # ------------------------------------------------------------------
    # Go-Back-N recovery
    # ------------------------------------------------------------------
    def _go_back_n(self, qp: QueuePair) -> None:
        """Retransmit every outstanding WR at its own PSNs, oldest first
        (Section 5.3)."""
        outstanding = qp.window.outstanding
        qp.note_retransmission()
        if self._tel.enabled:
            self._tel.instant(
                "rdma.go_back_n", process=self.node, track=f"qp{qp.qpn}",
                outstanding=len(outstanding),
            )
        for entry in list(outstanding):
            entry.retries += 1
            if entry.retries > self.config.max_retries:
                outstanding.remove(entry)
                self._complete(qp, entry, CompletionStatus.RETRY_EXCEEDED)
                continue
            entry.issued_at = self.sim.now
            if entry.wr.work_type is WorkType.READ:
                entry.missing = entry.wr.length
            self._emit(qp, entry)

    def _arm_timer(self, qp: QueuePair) -> None:
        if qp.qpn in self._timer_armed:
            return
        self._timer_armed.add(qp.qpn)
        callback = self._timer_callbacks.get(qp.qpn)
        if callback is None:
            def callback(qp: QueuePair = qp) -> None:
                self._check_timeout(qp)
            self._timer_callbacks[qp.qpn] = callback
        self.sim.call_after(self.config.retransmit_timeout_ns, callback)

    def _check_timeout(self, qp: QueuePair) -> None:
        self._timer_armed.discard(qp.qpn)
        window = qp.window
        if not window.outstanding:
            return
        if window.expired(self.sim.now, self.config.retransmit_timeout_ns):
            self.stats.retransmit_timeouts += 1
            self._go_back_n(qp)
        self._arm_timer(qp)
