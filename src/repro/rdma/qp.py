"""Queue pairs, work requests, and completion queues.

A reliable-connection (RC) queue pair carries the requester state the
RNIC model needs, a :class:`~repro.rdma.window.RequesterWindow` of the
work requests awaiting acknowledgment (the Go-Back-N retransmit window),
and the responder's expected PSN.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.rdma.window import RequesterWindow, WindowEntry

__all__ = [
    "Completion",
    "CompletionQueue",
    "CompletionStatus",
    "QueuePair",
    "WorkRequest",
    "WorkType",
]


class WorkType(enum.Enum):
    """Operation kinds supported by the verbs layer."""

    READ = "read"
    WRITE = "write"
    SEND = "send"
    RECV = "recv"


class CompletionStatus(enum.Enum):
    SUCCESS = "success"
    RETRY_EXCEEDED = "retry_exceeded"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    FLUSHED = "flushed"


@dataclass(slots=True, init=False)
class WorkRequest:
    """One posted operation (the WQE the doorbell announces).

    Addresses are absolute virtual addresses; ``local_addr`` names
    requester-side memory (the DMA target for reads, source for
    writes), ``remote_addr``/``rkey`` name responder-side memory.
    ``wr_id`` is the next id of the simulation the request runs in
    (``Simulator.next_wr_id``), so a run's ids are unique and increase
    in construction order, whatever ran before it in the process.
    """

    work_type: WorkType
    local_addr: int
    remote_addr: int
    rkey: int
    length: int
    wr_id: int
    signaled: bool
    #: Inline payload for SEND operations (bypasses local memory read).
    inline_payload: bytes
    #: Network priority override (None -> the NIC's configured class).
    priority: Optional[int]

    # Written out rather than generated: a default factory and a
    # __post_init__ would make each work request three calls, and the
    # Spot agent builds several per client request.
    def __init__(
        self, work_type: WorkType, local_addr: int, remote_addr: int, rkey: int,
        length: int, wr_id: int, signaled: bool = True,
        inline_payload: bytes = b"", priority: Optional[int] = None,
    ) -> None:
        if length < 0:
            raise ValueError(f"negative length: {length}")
        self.work_type = work_type
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.length = length
        self.wr_id = wr_id
        self.signaled = signaled
        self.inline_payload = inline_payload
        self.priority = priority


@dataclass(slots=True)
class Completion:
    """A completion-queue entry (CQE)."""

    wr_id: int
    status: CompletionStatus
    work_type: WorkType
    byte_len: int
    qp_num: int
    completed_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is CompletionStatus.SUCCESS


class CompletionQueue:
    """A FIFO of completions shared by one or more queue pairs."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[Completion] = deque()
        self.overflows = 0
        self._waiters: list = []

    def push(self, completion: Completion) -> None:
        if len(self._entries) >= self.capacity:
            # Real HCAs raise a fatal async event on CQ overrun; we count
            # and drop, and tests assert the counter stays zero.
            self.overflows += 1
            return
        self._entries.append(completion)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.resolve(None)

    def notify_next_push(self, future) -> None:
        """Resolve ``future`` when the next completion arrives.

        If entries are already queued the future resolves immediately —
        this is the hook the verbs layer uses to model busy-polling
        without simulating every empty poll iteration.
        """
        if self._entries:
            future.resolve(None)
        else:
            self._waiters.append(future)

    def poll(self, max_entries: int = 16) -> list[Completion]:
        """Pop up to ``max_entries`` completions (may return [])."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        out: list[Completion] = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        return out

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(eq=False, slots=True)
class _Outstanding(WindowEntry):
    """Requester-side tracking of one in-flight work request."""

    wr: Optional[WorkRequest] = None


class QueuePair:
    """A reliable-connection queue pair endpoint.

    Created by :meth:`repro.rdma.nic.RNIC.create_qp` and connected to a
    remote QP during setup (Phase I).  The QP holds both requester state
    (``window``) and responder state (``expected_psn``, ``msn``).
    """

    MAX_OUTSTANDING = 1024

    def __init__(self, qpn: int, nic, cq: CompletionQueue) -> None:
        self.qpn = qpn
        self.nic = nic
        self.cq = cq
        self.remote_node: Optional[str] = None
        self.remote_qpn: Optional[int] = None
        # Requester state.
        self.window = RequesterWindow(capacity=self.MAX_OUTSTANDING)
        #: A fatal NAK (remote access error) put the QP in the error
        #: state: every WR posted from then on completes ``FLUSHED``.
        self.in_error = False
        # Responder state.
        self.expected_psn = 0
        self.msn = 0
        #: A sequence-error NAK is out for ``expected_psn``: an RC
        #: responder sends one per sequence error and sends no other
        #: until the expected PSN arrives.
        self.nak_pending = False
        #: A requester replay (``RNIC._replay``): the next PSN it needs, the
        #: writes waiting for it, and ``(rkey, addr, psn)`` of its write.
        self.replay_psn: Optional[int] = None
        self.replay_writes: list = []
        self.replay_context = (0, 0, 0)
        #: ``(rkey, lo, hi)`` of a multi-packet write missing its last packet.
        self.partial_write: Optional[tuple[int, int, int]] = None
        # Stats.
        self.packets_sent = 0
        self.packets_received = 0
        self.retransmissions = 0
        self.naks_received = 0
        # Telemetry mirrors of the recovery stats, registered under the
        # QP's stable name so retransmit storms show up per-connection.
        tel = nic.sim.telemetry
        self._tel_retransmits = tel.counter(f"qp.{qpn}.retransmits")
        self._tel_naks = tel.counter(f"qp.{qpn}.naks_received")
        self._tel_outstanding = tel.gauge(f"qp.{qpn}.outstanding")

    @property
    def connected(self) -> bool:
        return self.remote_node is not None and self.remote_qpn is not None

    def connect(self, remote_node: str, remote_qpn: int, initial_psn: int = 0) -> None:
        """Phase I: bind this QP to its remote peer."""
        if self.connected:
            raise RuntimeError(f"QP {self.qpn} already connected")
        self.remote_node = remote_node
        self.remote_qpn = remote_qpn
        self.window.send_psn = initial_psn
        self.expected_psn = initial_psn

    def note_retransmission(self) -> None:
        """Count one Go-Back-N episode (plain stat + telemetry mirror)."""
        self.retransmissions += 1
        self._tel_retransmits.inc()

    def note_nak(self) -> None:
        """Count one received NAK (plain stat + telemetry mirror)."""
        self.naks_received += 1
        self._tel_naks.inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueuePair(qpn={self.qpn}, remote={self.remote_node}:"
            f"{self.remote_qpn}, psn={self.window.send_psn})"
        )
