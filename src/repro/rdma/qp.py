"""Queue pairs, work requests, and completion queues.

A reliable-connection (RC) queue pair carries the requester state the
RNIC model needs: the next PSN to stamp on outgoing packets, the
expected PSN on the responder side, and the window of outstanding work
requests awaiting acknowledgment (the Go-Back-N retransmit window).
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.rdma.packets import PSN_MODULUS, psn_add, psn_distance

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


_wr_ids = itertools.count(1)


@dataclass(slots=True)
class WorkRequest:
    """One posted operation (the WQE the doorbell announces).

    Addresses are absolute virtual addresses; ``local_addr`` names
    requester-side memory (the DMA target for reads, source for
    writes), ``remote_addr``/``rkey`` name responder-side memory.
    """

    work_type: WorkType
    local_addr: int
    remote_addr: int
    rkey: int
    length: int
    wr_id: int = field(default_factory=lambda: next(_wr_ids))
    signaled: bool = True
    #: Inline payload for SEND operations (bypasses local memory read).
    inline_payload: bytes = b""
    #: Network priority override (None -> the NIC's configured class).
    priority: Optional[int] = None

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative length: {self.length}")


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


@dataclass(slots=True)
class _Outstanding:
    """Requester-side tracking of one in-flight work request."""

    wr: WorkRequest
    first_psn: int
    num_packets: int
    #: For READs: payload bytes DMA'd so far (completion when == length).
    bytes_received: int = 0
    issued_at: float = 0.0
    retries: int = 0

    @property
    def last_psn(self) -> int:
        return psn_add(self.first_psn, self.num_packets - 1)


class QueuePair:
    """A reliable-connection queue pair endpoint.

    Created by :meth:`repro.rdma.nic.RNIC.create_qp` and connected to a
    remote QP during setup (Phase I).  The QP holds both requester state
    (``send_psn``, outstanding window) and responder state
    (``expected_psn``, ``msn``).
    """

    MAX_OUTSTANDING = 1024

    def __init__(self, qpn: int, nic, cq: CompletionQueue) -> None:
        self.qpn = qpn
        self.nic = nic
        self.cq = cq
        self.remote_node: Optional[str] = None
        self.remote_qpn: Optional[int] = None
        # Requester state.
        self.send_psn = 0
        self.outstanding: deque[_Outstanding] = deque()
        # Responder state.
        self.expected_psn = 0
        self.msn = 0
        #: A sequence-error NAK is out for ``expected_psn``: an RC
        #: responder sends one per sequence error and sends no other
        #: until the expected PSN arrives.
        self.nak_pending = False
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
        self.send_psn = initial_psn
        self.expected_psn = initial_psn

    # ------------------------------------------------------------------
    # Requester-side PSN window management
    # ------------------------------------------------------------------
    def reserve_psns(self, count: int) -> int:
        """Allocate ``count`` consecutive PSNs; return the first."""
        if count < 1:
            raise ValueError("must reserve at least one PSN")
        first = self.send_psn
        self.send_psn = psn_add(self.send_psn, count)
        return first

    def track(self, entry: _Outstanding) -> None:
        if len(self.outstanding) >= self.MAX_OUTSTANDING:
            raise RuntimeError(f"QP {self.qpn} outstanding window full")
        self.outstanding.append(entry)
        self._tel_outstanding.set(len(self.outstanding))

    def note_retransmission(self) -> None:
        """Count one Go-Back-N episode (plain stat + telemetry mirror)."""
        self.retransmissions += 1
        self._tel_retransmits.inc()

    def note_nak(self) -> None:
        """Count one received NAK (plain stat + telemetry mirror)."""
        self.naks_received += 1
        self._tel_naks.inc()

    def oldest_outstanding(self) -> Optional[_Outstanding]:
        return self.outstanding[0] if self.outstanding else None

    def find_outstanding_by_psn(self, psn: int) -> Optional[_Outstanding]:
        """Locate the in-flight WR whose PSN range covers ``psn``."""
        for entry in self.outstanding:
            if psn_distance(entry.first_psn, psn) < entry.num_packets:
                return entry
        return None

    def complete_through(self, psn: int, now: float) -> list[_Outstanding]:
        """Retire outstanding WRs fully acknowledged by ``psn`` (inclusive).

        Used on ACK receipt: an ACK for PSN p acknowledges everything at
        or before p (cumulative acknowledgment semantics) — **except**
        READs whose response data has not arrived.  An ACK proves the
        responder processed the read, but if the response packets were
        lost in flight the requester still has no data; real HCAs keep
        the read outstanding and retry it (here: the Go-Back-N timeout
        re-issues it).  Retiring it on the ACK would complete the WR
        with a garbage buffer.
        """
        retired: list[_Outstanding] = []
        while self.outstanding:
            head = self.outstanding[0]
            if psn_distance(head.last_psn, psn) >= PSN_MODULUS // 2:
                break  # head.last_psn > psn in serial arithmetic
            if (
                head.wr.work_type is WorkType.READ
                and head.bytes_received < head.wr.length
            ):
                break  # data not here yet: the timeout path must retry
            self.outstanding.popleft()
            retired.append(head)
        return retired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueuePair(qpn={self.qpn}, remote={self.remote_node}:"
            f"{self.remote_qpn}, psn={self.send_psn})"
        )
