"""The requester half of a reliable connection: one PSN window.

The RNIC's queue pairs and the Cowbird-P4 switch's channels both keep
their in-flight operations in a :class:`RequesterWindow`.  What to send,
and how to send it again, stays with the requester.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.rdma.packets import PSN_MASK, PSN_MODULUS

__all__ = ["HALF_PSN_SPACE", "RequesterWindow", "WindowEntry"]

#: Serial-number comparison: ``b`` is at or after ``a`` when
#: ``(b - a) & PSN_MASK`` is below half the PSN space.
HALF_PSN_SPACE = PSN_MODULUS // 2


@dataclass(eq=False, slots=True)
class WindowEntry:
    """One operation holding ``num_psns`` PSNs from ``first_psn`` on;
    requesters subclass it.  Entries compare by identity."""

    first_psn: int = 0
    num_psns: int = 1
    issued_at: float = 0.0  # when last sent: the timeout counts from here
    #: Read data still to come (a write has none); a read retires only
    #: once it is in.
    missing: int = 0
    retries: int = 0  # times sent again

    @property
    def last_psn(self) -> int:
        return (self.first_psn + self.num_psns - 1) & PSN_MASK


class RequesterWindow:
    """PSN allocation and the outstanding operations of one requester.

    ``outstanding`` is in PSN order: :meth:`open` takes the next PSNs,
    and operations leave from the front (:meth:`retire_through`) or when
    their requester gives up on them.  ``send_psn`` never moves back, so
    a replay sends an operation again at its own PSNs.
    """

    __slots__ = ("send_psn", "outstanding", "capacity")

    def __init__(self, psn: int = 0, capacity: Optional[int] = None) -> None:
        self.send_psn = psn
        self.outstanding: deque = deque()
        self.capacity = capacity  # most operations in flight (None: any)

    def open(self, entry: WindowEntry) -> None:
        """Give ``entry`` the next ``entry.num_psns`` PSNs and track it."""
        outstanding = self.outstanding
        if self.capacity is not None and len(outstanding) >= self.capacity:
            raise RuntimeError("requester window full")
        first = entry.first_psn = self.send_psn
        self.send_psn = (first + entry.num_psns) & PSN_MASK
        outstanding.append(entry)

    def find(self, psn: int) -> Optional[WindowEntry]:
        """The outstanding operation whose PSN range covers ``psn``."""
        for entry in self.outstanding:
            if (psn - entry.first_psn) & PSN_MASK < entry.num_psns:
                return entry
        return None

    def retire_through(self, psn: int) -> list:
        """Retire, oldest first, and return the operations a cumulative
        acknowledgment of ``psn`` covers.  A read whose data is not all in
        stops the sweep: the responder executed it, but the requester
        must fetch the lost data again."""
        retired = []
        outstanding = self.outstanding
        while outstanding:
            head = outstanding[0]
            last_psn = head.first_psn + head.num_psns - 1
            if (psn - last_psn) & PSN_MASK >= HALF_PSN_SPACE:
                break  # head.last_psn > psn in serial arithmetic
            if head.missing > 0:
                break
            outstanding.popleft()
            retired.append(head)
        return retired

    def expired(self, now: float, timeout: float) -> bool:
        """Whether the oldest outstanding operation was sent at least
        ``timeout`` ago."""
        outstanding = self.outstanding
        return bool(outstanding) and now - outstanding[0].issued_at >= timeout
