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
  sequence error, and Go-Back-N retransmission on NAK or timeout
  (Section 5.3's recovery story ends up exercising exactly this
  machinery).
* **Pacing**: a per-message initiation gap models the NIC's finite
  message rate — the "request-level bottleneck" that motivates
  batching in Redy and in Cowbird's offload engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    Aeth,
    Bth,
    Reth,
    RocePacket,
    SYNDROME_ACK,
    SYNDROME_NAK_PSN_ERROR,
    psn_add,
    psn_distance,
    PSN_MODULUS,
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

    @property
    def message_gap_ns(self) -> float:
        if self.message_rate_mops <= 0:
            return 0.0
        return 1_000.0 / self.message_rate_mops


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
        if not qp.connected:
            raise RuntimeError(f"QP {qp.qpn} not connected")
        self.stats.posts += 1
        if wr.work_type is WorkType.RECV:
            self._recv_queues[qp.qpn].append(wr)
            return
        delay = self._reserve_send_slot()
        self._initiate_pending.append((qp, wr))
        self.sim.call_after(delay, self._initiate_next_callback)

    def _reserve_send_slot(self) -> float:
        """Serialize message initiations at the NIC's message rate."""
        now = self.sim.now
        slot = max(now, self._next_send_slot)
        self._next_send_slot = slot + self.config.message_gap_ns
        return slot - now

    def _initiate_next(self) -> None:
        qp, wr = self._initiate_pending.popleft()
        self._initiate(qp, wr)

    def _initiate(self, qp: QueuePair, wr: WorkRequest) -> None:
        self.stats.messages_initiated += 1
        if wr.work_type is WorkType.READ:
            self._initiate_read(qp, wr)
        elif wr.work_type is WorkType.WRITE:
            self._initiate_write(qp, wr)
        elif wr.work_type is WorkType.SEND:
            self._initiate_send(qp, wr)
        else:  # pragma: no cover - RECV handled in post()
            raise RuntimeError(f"cannot initiate {wr.work_type}")
        self._arm_timer(qp)

    def _segments(self, length: int) -> int:
        mtu = self.config.mtu_bytes
        return max(1, (length + mtu - 1) // mtu)

    def _initiate_read(self, qp: QueuePair, wr: WorkRequest) -> None:
        num_packets = self._segments(wr.length)
        first_psn = qp.reserve_psns(num_packets)
        entry = _Outstanding(
            wr=wr, first_psn=first_psn, num_packets=num_packets,
            issued_at=self.sim.now,
        )
        qp.track(entry)
        self._emit_read_request(qp, entry)

    def _emit_read_request(self, qp: QueuePair, entry: _Outstanding) -> None:
        packet = RocePacket(
            src=self.node,
            dst=qp.remote_node,
            bth=Bth(
                opcode=OP_READ_REQUEST,
                dest_qp=qp.remote_qpn,
                psn=entry.first_psn,
                ack_request=True,
            ),
            reth=Reth(
                virtual_address=entry.wr.remote_addr,
                remote_key=entry.wr.rkey,
                dma_length=entry.wr.length,
            ),
            priority=entry.wr.priority
            if entry.wr.priority is not None
            else self.config.priority,
        )
        self._transmit(packet, qp)

    def _initiate_write(self, qp: QueuePair, wr: WorkRequest) -> None:
        num_packets = self._segments(wr.length)
        first_psn = qp.reserve_psns(num_packets)
        entry = _Outstanding(
            wr=wr, first_psn=first_psn, num_packets=num_packets,
            issued_at=self.sim.now,
        )
        qp.track(entry)
        self._emit_write_train(qp, entry)

    def _emit_write_train(self, qp: QueuePair, entry: _Outstanding) -> None:
        wr = entry.wr
        payload = self._dma_read_local(wr.local_addr, wr.length)
        mtu = self.config.mtu_bytes
        n = entry.num_packets
        for i in range(n):
            chunk = payload[i * mtu : (i + 1) * mtu]
            if n == 1:
                opcode = OP_WRITE_ONLY
            elif i == 0:
                opcode = OP_WRITE_FIRST
            elif i == n - 1:
                opcode = OP_WRITE_LAST
            else:
                opcode = OP_WRITE_MIDDLE
            is_tail = i == n - 1
            packet = RocePacket(
                src=self.node,
                dst=qp.remote_node,
                bth=Bth(
                    opcode=opcode,
                    dest_qp=qp.remote_qpn,
                    psn=psn_add(entry.first_psn, i),
                    ack_request=is_tail,
                ),
                reth=Reth(
                    virtual_address=wr.remote_addr,
                    remote_key=wr.rkey,
                    dma_length=wr.length,
                )
                if opcode in CARRIES_RETH
                else None,
                payload=chunk,
                priority=wr.priority if wr.priority is not None
                else self.config.priority,
            )
            self._transmit(packet, qp)

    def _initiate_send(self, qp: QueuePair, wr: WorkRequest) -> None:
        first_psn = qp.reserve_psns(1)
        entry = _Outstanding(
            wr=wr, first_psn=first_psn, num_packets=1, issued_at=self.sim.now
        )
        qp.track(entry)
        self._emit_send(qp, entry)

    def _emit_send(self, qp: QueuePair, entry: _Outstanding) -> None:
        wr = entry.wr
        payload = wr.inline_payload or self._dma_read_local(wr.local_addr, wr.length)
        if len(payload) > self.config.mtu_bytes:
            raise ValueError("SEND payloads above one MTU are not modelled")
        packet = RocePacket(
            src=self.node,
            dst=qp.remote_node,
            bth=Bth(
                opcode=OP_SEND_ONLY,
                dest_qp=qp.remote_qpn,
                psn=entry.first_psn,
                ack_request=True,
            ),
            payload=payload,
            priority=self.config.priority,
        )
        self._transmit(packet, qp)

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
        if not isinstance(packet, RocePacket):
            return  # non-RDMA traffic (e.g. TCP) addressed to this host
        stats = self.stats
        stats.rx_packets += 1
        stats.rx_bytes += packet.size_bytes
        try:
            for hook in self._rx_hooks:
                hook(packet)
            qp = self._qps.get(packet.bth.dest_qp)
            if qp is None:
                return  # no such QP: real HCAs silently drop
            qp.packets_received += 1
            opcode = packet.bth.opcode
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
            # pool-allocated shells go back to their free-list here.
            packet.release()

    # -- responder side -------------------------------------------------
    def _psn_status(self, qp: QueuePair, psn: int) -> str:
        """Classify ``psn`` against the responder's expected PSN.

        The expected PSN ends a sequence error: the next gap may be
        NAKed again.
        """
        if psn == qp.expected_psn:
            qp.nak_pending = False
            return "expected"
        if psn_distance(psn, qp.expected_psn) < PSN_MODULUS // 2:
            return "duplicate"
        return "gap"

    def _nak_sequence_error(self, qp: QueuePair, packet: RocePacket) -> None:
        """NAK a PSN gap, once per sequence error: the packets behind the
        lost one all arrive as gaps, and each NAK would cost the requester
        a full Go-Back-N round."""
        if not qp.nak_pending:
            qp.nak_pending = True
            self._send_nak(qp, packet.src)

    def _send_nak(self, qp: QueuePair, request_psn_src: str,
                  priority: Optional[int] = None) -> None:
        self.stats.naks_sent += 1
        packet = RocePacket(
            src=self.node,
            dst=request_psn_src,
            bth=Bth(
                opcode=OP_ACKNOWLEDGE,
                dest_qp=qp.remote_qpn,
                psn=qp.expected_psn,
            ),
            aeth=Aeth(syndrome=SYNDROME_NAK_PSN_ERROR, msn=qp.msn),
            priority=priority if priority is not None else self.config.priority,
        )
        self._transmit(packet, qp)

    def _send_ack(self, qp: QueuePair, psn: int,
                  priority: Optional[int] = None) -> None:
        packet = RocePacket(
            src=self.node,
            dst=qp.remote_node,
            bth=Bth(opcode=OP_ACKNOWLEDGE, dest_qp=qp.remote_qpn, psn=psn),
            aeth=Aeth(syndrome=SYNDROME_ACK, msn=qp.msn),
            priority=priority if priority is not None else self.config.priority,
        )
        self._transmit(packet, qp)

    def _respond_read(self, qp: QueuePair, packet: RocePacket) -> None:
        status = self._psn_status(qp, packet.bth.psn)
        if status == "gap":
            self._nak_sequence_error(qp, packet)
            return
        if status == "duplicate":
            self.stats.duplicates += 1
            # Reads are replayable: re-execute without advancing state.
        reth = packet.reth
        try:
            region = self.registry.by_rkey(reth.remote_key)
            data = region.remote_read(reth.virtual_address, reth.dma_length, reth.remote_key)
        except (AccessError, BoundsError):
            self._send_nak(qp, packet.src)
            return
        mtu = self.config.mtu_bytes
        n = max(1, (len(data) + mtu - 1) // mtu)
        if status == "expected":
            qp.expected_psn = psn_add(packet.bth.psn, n)
            qp.msn = (qp.msn + 1) % PSN_MODULUS
        for i in range(n):
            chunk = data[i * mtu : (i + 1) * mtu]
            if n == 1:
                opcode = OP_READ_RESPONSE_ONLY
            elif i == 0:
                opcode = OP_READ_RESPONSE_FIRST
            elif i == n - 1:
                opcode = OP_READ_RESPONSE_LAST
            else:
                opcode = OP_READ_RESPONSE_MIDDLE
            response = RocePacket(
                src=self.node,
                dst=packet.src,
                bth=Bth(
                    opcode=opcode,
                    dest_qp=qp.remote_qpn,
                    psn=psn_add(packet.bth.psn, i),
                ),
                aeth=Aeth(syndrome=SYNDROME_ACK, msn=qp.msn)
                if opcode in CARRIES_AETH
                else None,
                payload=chunk,
                # Echo the request's class (DSCP reflection): control
                # reads come back at control priority.
                priority=packet.priority,
            )
            self._transmit(response, qp)

    def _respond_write(self, qp: QueuePair, packet: RocePacket) -> None:
        status = self._psn_status(qp, packet.bth.psn)
        if status == "gap":
            self._nak_sequence_error(qp, packet)
            return
        if status == "duplicate":
            self.stats.duplicates += 1
        opcode = packet.bth.opcode
        if opcode in CARRIES_RETH:
            context = _WriteContext(
                rkey=packet.reth.remote_key,
                next_addr=packet.reth.virtual_address,
            )
            self._write_contexts[qp.qpn] = context
        else:
            context = self._write_contexts.get(qp.qpn)
            if context is None:
                self._send_nak(qp, packet.src)
                return
        try:
            region = self.registry.by_rkey(context.rkey)
            region.remote_write(context.next_addr, packet.payload, context.rkey)
        except (AccessError, BoundsError):
            self._send_nak(qp, packet.src)
            return
        context.next_addr += len(packet.payload)
        is_tail = opcode in WRITE_TAILS
        if status == "expected":
            qp.expected_psn = psn_add(packet.bth.psn, 1)
            if is_tail:
                qp.msn = (qp.msn + 1) % PSN_MODULUS
        if packet.bth.ack_request:
            # Cumulative: acknowledge everything received so far.
            ack_psn = packet.bth.psn if status == "expected" else psn_add(qp.expected_psn, -1)
            self._send_ack(qp, ack_psn, priority=packet.priority)

    def _respond_send(self, qp: QueuePair, packet: RocePacket) -> None:
        status = self._psn_status(qp, packet.bth.psn)
        if status == "gap":
            self._nak_sequence_error(qp, packet)
            return
        if status == "expected":
            qp.expected_psn = psn_add(packet.bth.psn, 1)
            qp.msn = (qp.msn + 1) % PSN_MODULUS
            recvq = self._recv_queues[qp.qpn]
            if recvq:
                recv_wr = recvq.popleft()
                length = min(len(packet.payload), recv_wr.length)
                if recv_wr.local_addr:
                    self._dma_write_local(recv_wr.local_addr, packet.payload[:length])
                qp.cq.push(
                    Completion(
                        wr_id=recv_wr.wr_id,
                        status=CompletionStatus.SUCCESS,
                        work_type=WorkType.RECV,
                        byte_len=length,
                        qp_num=qp.qpn,
                        completed_at=self.sim.now,
                    )
                )
            # Receiver-not-ready without a posted recv: real RC would RNR-NAK;
            # we deliver the ACK anyway and count nothing (tests post recvs).
        else:
            self.stats.duplicates += 1
        if packet.bth.ack_request:
            self._send_ack(qp, packet.bth.psn, priority=packet.priority)

    # -- requester side ---------------------------------------------------
    def _requester_read_response(self, qp: QueuePair, packet: RocePacket) -> None:
        entry = qp.find_outstanding_by_psn(packet.bth.psn)
        if entry is None:
            self.stats.duplicates += 1
            return
        offset = psn_distance(entry.first_psn, packet.bth.psn) * self.config.mtu_bytes
        if entry.wr.local_addr:
            self._dma_write_local(entry.wr.local_addr + offset, packet.payload)
        entry.bytes_received += len(packet.payload)
        is_tail = packet.bth.opcode in READ_RESPONSE_TAILS
        if is_tail and entry.bytes_received >= entry.wr.length:
            # Read responses arrive in order on RC; the tail retires the
            # entry and everything acknowledged before it.
            retired = qp.complete_through(entry.last_psn, self.sim.now)
            for done in retired:
                self._complete(qp, done, CompletionStatus.SUCCESS)

    def _requester_ack(self, qp: QueuePair, packet: RocePacket) -> None:
        aeth = packet.aeth
        if aeth.is_nak:
            qp.note_nak()
            self._go_back_n(qp)
            return
        retired = qp.complete_through(packet.bth.psn, self.sim.now)
        for done in retired:
            self._complete(qp, done, CompletionStatus.SUCCESS)

    def _complete(self, qp: QueuePair, entry: _Outstanding, status: CompletionStatus) -> None:
        if self._tel.enabled:
            self._tel.complete(
                f"rdma.{entry.wr.work_type.value}",
                entry.issued_at, self.sim.now,
                process=self.node, track=f"qp{qp.qpn}",
                wr_id=entry.wr.wr_id, bytes=entry.wr.length,
                status=status.value, retries=entry.retries,
            )
        if not entry.wr.signaled:
            return
        qp.cq.push(
            Completion(
                wr_id=entry.wr.wr_id,
                status=status,
                work_type=entry.wr.work_type,
                byte_len=entry.wr.length,
                qp_num=qp.qpn,
                completed_at=self.sim.now,
            )
        )

    # ------------------------------------------------------------------
    # Go-Back-N recovery
    # ------------------------------------------------------------------
    def _go_back_n(self, qp: QueuePair) -> None:
        """Retransmit every outstanding WR, oldest first (Section 5.3)."""
        qp.note_retransmission()
        if self._tel.enabled:
            self._tel.instant(
                "rdma.go_back_n", process=self.node, track=f"qp{qp.qpn}",
                outstanding=len(qp.outstanding),
            )
        for entry in list(qp.outstanding):
            entry.retries += 1
            if entry.retries > self.config.max_retries:
                qp.outstanding.remove(entry)
                self._complete(qp, entry, CompletionStatus.RETRY_EXCEEDED)
                continue
            entry.issued_at = self.sim.now
            entry.bytes_received = 0
            if entry.wr.work_type is WorkType.READ:
                self._emit_read_request(qp, entry)
            elif entry.wr.work_type is WorkType.WRITE:
                self._emit_write_train(qp, entry)
            elif entry.wr.work_type is WorkType.SEND:
                self._emit_send(qp, entry)

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
        oldest = qp.oldest_outstanding()
        if oldest is None:
            return
        if self.sim.now - oldest.issued_at >= self.config.retransmit_timeout_ns:
            self.stats.retransmit_timeouts += 1
            self._go_back_n(qp)
        self._arm_timer(qp)
