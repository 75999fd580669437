"""Engine-side request bookkeeping for one client instance (Section 4.2).

Both offload engines follow a client's rings the same way.
:class:`RequestCore` picks the metadata run to fetch next, parses it
into requests with per-type sequence numbers, publishes the red block
over the completed FIFO prefix, and resumes from a published red block.
The data-ring cursors follow the client's allocations from request
lengths alone (R2/R3) by :func:`place`, the no-wrap rule of
:meth:`DataRing.reserve <repro.cowbird.buffers.DataRing.reserve>`, which
:meth:`RequestCore.publish` applies inline.
Engines add only their transport: how a request executes and when it
counts as complete.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.cowbird.api import InstanceDescriptor
from repro.cowbird.buffers import MetadataRing, skip_pad
from repro.cowbird.wire import RedBlock, RequestMetadata, RwType

__all__ = ["RequestCore", "place"]

ENTRY_BYTES = MetadataRing.ENTRY_BYTES


def place(cursor: int, length: int, capacity: int) -> tuple[int, int]:
    """Where the data ring puts an entry of ``length`` bytes.

    Returns ``(start, end)`` as monotonic byte pointers: ``start`` skips
    the padding that keeps the entry from wrapping, ``end`` is the
    producer cursor after it.

    >>> place(900, 200, 1024)
    (1024, 1224)
    >>> place(100, 200, 1024)
    (100, 300)
    """
    start = cursor + skip_pad(cursor, length, capacity)
    return start, start + length


class RequestCore:
    """The engine's view of one client instance's rings.

    Engines subclass it with their per-instance transport state.  A
    fresh core starts at zero; given the red block a previous engine
    published, it resumes there instead: the head is the first request
    not yet completed, the progress counters are the sequences at that
    head and the data-ring cursors the allocations at that head, so
    parsing restarts at the head and the incomplete suffix re-executes.
    """

    def __init__(
        self, descriptor: InstanceDescriptor, red: Optional[RedBlock] = None
    ) -> None:
        self.descriptor = descriptor
        #: The engine-maintained red block, as last published.
        self.red = red = red if red is not None else RedBlock()
        #: The client's metadata tail, as last probed.
        self.seen_meta_tail = red.request_meta_head
        #: Entries fetched and parsed.
        self.parsed_meta = red.request_meta_head
        #: Per-type sequence counters mirroring the client's.
        self.read_count = red.read_progress
        self.write_count = red.write_progress
        #: Parsed requests not yet published, in ring order.
        self.in_order: deque = deque()

    # ------------------------------------------------------------------
    # Fetch and parse
    # ------------------------------------------------------------------
    def see_tail(self, meta_tail: int) -> None:
        """Adopt a probed metadata tail (probes may return out of date)."""
        if meta_tail > self.seen_meta_tail:
            self.seen_meta_tail = meta_tail

    def has_unparsed(self) -> bool:
        return self.seen_meta_tail > self.parsed_meta

    def next_fetch(self) -> tuple[int, int, int, int]:
        """The contiguous run of metadata to fetch next.

        Returns ``(start, end, addr, length)``: the monotonic indices
        ``[start, end)`` and the bytes to read.  A run stops at the end
        of the ring; the next fetch starts over at its base.
        """
        capacity = self.descriptor.metadata_capacity
        start = self.parsed_meta
        start_slot = start % capacity
        end = start + min(self.seen_meta_tail - start, capacity - start_slot)
        addr = self.descriptor.metadata_base + start_slot * ENTRY_BYTES
        return start, end, addr, (end - start) * ENTRY_BYTES

    def parse(self, payload, start: int, end: int, make: Callable) -> list:
        """Turn a fetched run ``[start, end)`` into requests.

        ``make(metadata, sequence, ring_index)`` builds the engine's
        request object, which carries those three and a ``completed``
        flag the engine sets.  Parsing stops at the first ``INVALID``
        entry (an append in progress: the client writes rw_type last),
        and the next fetch starts there.  Parsed requests join the
        publication queue in ring order.
        """
        requests = []
        offset = 0
        unpack = RequestMetadata.unpack
        for index in range(start, end):
            metadata = unpack(payload, offset)
            if metadata.rw_type is RwType.INVALID:
                end = index
                break
            offset += ENTRY_BYTES
            if metadata.rw_type is RwType.READ:
                self.read_count += 1
                sequence = self.read_count
            else:
                self.write_count += 1
                sequence = self.write_count
            requests.append(make(metadata, sequence, index))
        self.parsed_meta = end
        self.in_order.extend(requests)
        return requests

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self) -> None:
        """Advance the red block over the completed FIFO prefix.

        A request completed out of order waits for every earlier one, so
        ``read_progress`` and ``write_progress`` never pass a request
        the client could not yet consume.
        """
        red = self.red
        in_order = self.in_order
        descriptor = self.descriptor
        while in_order and in_order[0].completed:
            done = in_order.popleft()
            red.request_meta_head = done.ring_index + 1
            metadata = done.metadata
            length = metadata.length
            # place(cursor, length, capacity)[1], inlined: one per request.
            if metadata.rw_type is RwType.READ:
                red.read_progress = done.sequence
                cursor = red.response_data_tail
                capacity = descriptor.response_data_capacity
                offset = cursor % capacity
                if offset + length > capacity:
                    cursor += capacity - offset
                red.response_data_tail = cursor + length
            else:
                red.write_progress = done.sequence
                cursor = red.request_data_head
                capacity = descriptor.request_data_capacity
                offset = cursor % capacity
                if offset + length > capacity:
                    cursor += capacity - offset
                red.request_data_head = cursor + length
