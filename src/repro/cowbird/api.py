"""The Cowbird client library and user-space API (Section 4, Table 2).

From the application's perspective every call here touches **only local
memory**: ``async_read``/``async_write`` append to lock-free rings and
return a request id; ``poll_wait`` compares integers in the
engine-maintained red block.  No RDMA verb is ever invoked on the
compute node — that is the entire point of the paper, and it is why the
CPU charges in this module are :attr:`CostModel.cowbird_post` /
``cowbird_poll`` (tens of ns) instead of the ~630 ns verb path.

One :class:`CowbirdInstance` owns one set of queues (the paper lays
buffers out per hardware thread; multi-threaded apps create one
instance per thread and the engine multiplexes).  All buffers of an
instance live in a single registered region, so the offload engine
reaches everything with one rkey:

    [ bookkeeping 128 B | metadata ring | request data | response data ]
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.cowbird.buffers import DataRing, MetadataRing, RingFullError
from repro.cowbird.wire import (
    REQUEST_REGION_SHIFT,
    REQUEST_SEQUENCE_MASK,
    REQUEST_TYPE_SHIFT,
    BookkeepingLayout,
    GreenBlock,
    RedBlock,
    RequestMetadata,
    RwType,
    encode_request_id,
)
from repro.memory.pool import RemoteRegionHandle
from repro.sim.cpu import TAG_COMM, Thread

__all__ = [
    "BufferFullError",
    "CompletionEvent",
    "CowbirdClient",
    "CowbirdConfig",
    "CowbirdInstance",
    "InstanceDescriptor",
    "PollGroup",
]


#: The request id of a PollGroup ``(sequence, request_id)`` key.
_second = operator.itemgetter(1)
#: ``request_id >> REQUEST_TYPE_SHIFT`` of a read's id.
_READ = int(RwType.READ)
#: A read's id without its region and sequence (encode_request_id).
_READ_ID = _READ << REQUEST_TYPE_SHIFT


def _metadata_full(ring: MetadataRing) -> str:
    return f"metadata ring full ({ring.capacity} entries outstanding)"


class BufferFullError(Exception):
    """A queue/buffer is full; retry after consuming completions.

    ``ring`` names the full one: ``"metadata"``, ``"request_data"`` (a
    write's payload) or ``"response_data"`` (a read's result).  For
    writes the retry can be immediate; for reads the application should
    consume existing responses first (Section 4.3).
    """

    def __init__(self, message: str, ring: str) -> None:
        super().__init__(message)
        self.ring = ring

    def __reduce__(self):
        return type(self), (str(self), self.ring)


@dataclass
class CowbirdConfig:
    """Sizing of one instance's rings."""

    metadata_capacity: int = 1024
    request_data_capacity: int = 1 << 20
    response_data_capacity: int = 1 << 20

    def total_bytes(self) -> int:
        return (
            BookkeepingLayout.TOTAL_BYTES
            + self.metadata_capacity * MetadataRing.ENTRY_BYTES
            + self.request_data_capacity
            + self.response_data_capacity
        )


@dataclass(frozen=True)
class InstanceDescriptor:
    """Phase I setup payload: everything the offload engine must know.

    This is what the compute node sends "through an RPC endpoint running
    on the switch control plane" (Section 5.2): buffer addresses, sizes,
    the region rkey, and the registered remote regions.
    """

    instance_id: int
    node: str
    rkey: int
    bookkeeping_addr: int
    metadata_base: int
    metadata_capacity: int
    request_data_base: int
    request_data_capacity: int
    response_data_base: int
    response_data_capacity: int
    remote_regions: dict[int, RemoteRegionHandle] = field(default_factory=dict)


@dataclass
class CompletionEvent:
    """One completed request, as returned by ``poll_wait``."""

    request_id: int
    rw_type: RwType
    addr: int
    length: int


class _PollGroups(dict):
    """Poll id -> :class:`PollGroup`; an unknown id raises a KeyError
    that names it."""

    def __missing__(self, poll_id: int) -> PollGroup:
        raise KeyError(f"unknown poll id {poll_id}")


class PollGroup:
    """An epoll-like notification group over request ids (Section 4.1).

    Registration tracks, per operation type, the outstanding sequence
    numbers in ascending order; completion checks are integer
    comparisons against the red block's progress counters.  Progress
    counters only move forward, so the completed ids of one type are a
    prefix of that type's ordered ids, and ``completed`` costs
    O(ids completed) rather than O(ids registered).
    """

    def __init__(self, poll_id: int) -> None:
        self.poll_id = poll_id
        #: request_id -> registration stamp; the stamp orders results
        #: by registration, like iterating a dict of pending ids.
        self._stamps: dict[int, int] = {}
        self._next_stamp = itertools.count()
        #: (sequence, request_id) per type, ascending.
        self._reads: list[tuple[int, int]] = []
        self._writes: list[tuple[int, int]] = []

    # add and remove find the id's per-type list and its sort key in
    # that list inline: each runs once per request.
    def add(self, request_id: int) -> None:
        if request_id in self._stamps:
            return  # already registered: keeps its place
        ids = self._reads if request_id >> REQUEST_TYPE_SHIFT == _READ else self._writes
        key = (request_id & REQUEST_SEQUENCE_MASK, request_id)
        self._stamps[request_id] = next(self._next_stamp)
        if not ids or ids[-1] < key:
            ids.append(key)  # the usual case: issued in sequence order
        else:
            bisect.insort(ids, key)

    def remove(self, request_id: int) -> None:
        if self._stamps.pop(request_id, None) is None:
            return
        ids = self._reads if request_id >> REQUEST_TYPE_SHIFT == _READ else self._writes
        del ids[bisect.bisect_left(ids, (request_id & REQUEST_SEQUENCE_MASK, request_id))]

    def __len__(self) -> int:
        return len(self._stamps)

    def completed(self, red: RedBlock) -> list[int]:
        """Request ids whose sequence the progress counters have passed,
        in registration order."""
        done: list[int] = []
        for ids, progress in (
            (self._reads, red.read_progress),
            (self._writes, red.write_progress),
        ):
            if ids and ids[0][0] <= progress:
                # (progress + 1,) sorts before every key with that sequence.
                count = bisect.bisect_left(ids, (progress + 1,))
                done.extend(map(_second, ids[:count]))
        if len(done) > 1:
            done.sort(key=self._stamps.__getitem__)
        return done


@dataclass(slots=True, eq=False)
class _OutstandingRead:
    sequence: int
    addr: int
    length: int
    pad: int
    consumed: bool = False


@dataclass(slots=True, eq=False)
class _OutstandingWrite:
    sequence: int
    data_pad: int
    length: int


class CowbirdInstance:
    """One set of Cowbird queues on a compute node."""

    def __init__(self, host, config: CowbirdConfig, instance_id: int) -> None:
        self.host = host
        self.sim = host.sim
        self.cost = host.verbs.cost
        self.config = config
        self.instance_id = instance_id
        # One registered region holds all buffers (single rkey for R3).
        self.region = host.registry.register(
            config.total_bytes(), name=f"cowbird-{instance_id}"
        )
        base = self.region.base_addr
        self.bookkeeping = BookkeepingLayout(base_addr=base)
        cursor = base + BookkeepingLayout.TOTAL_BYTES
        self.metadata_ring = MetadataRing(self.region, cursor, config.metadata_capacity)
        cursor += self.metadata_ring.size_bytes
        self.request_data = DataRing(self.region, cursor, config.request_data_capacity)
        cursor += config.request_data_capacity
        self.response_data = DataRing(self.region, cursor, config.response_data_capacity)
        # Local mirrors of the shared blocks.
        self.green = GreenBlock()
        self.red = RedBlock()
        self._green_addr = self.bookkeeping.green_addr
        self._publish_green()
        self.region.write(self.bookkeeping.red_addr, self.red.pack())
        # Sequence counters (per type, starting at 1; Section 4.3).
        self._read_seq = itertools.count(1)
        self._write_seq = itertools.count(1)
        self._reads: dict[int, _OutstandingRead] = {}
        #: Outstanding read sequences in issue order (ascending), so the
        #: oldest read is found without scanning ``_reads``.
        self._read_order: deque[int] = deque()
        self._writes: dict[int, _OutstandingWrite] = {}
        self._poll_groups = _PollGroups()
        self._next_poll_id = itertools.count(1)
        self._progress_waiters: list = []
        self.remote_regions: dict[int, RemoteRegionHandle] = {}
        self._red_addr = self.bookkeeping.red_addr
        #: Whether the red block in memory may differ from ``self.red``:
        #: set by every write that touches it (_on_red_write), cleared by
        #: _sync_red.
        self._red_dirty = False
        # Observe engine RDMA writes to the red block so poll_wait can be
        # event-driven instead of simulating every empty poll.
        self.region.watch(
            self._red_addr, self._red_addr + RedBlock.SIZE, self._on_red_write
        )
        # Stats.
        self.requests_issued = 0
        self.requests_completed = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register_remote_region(self, handle: RemoteRegionHandle) -> None:
        """Make a memory-pool region addressable through this instance."""
        self.remote_regions[handle.region_id] = handle

    def descriptor(self) -> InstanceDescriptor:
        return InstanceDescriptor(
            instance_id=self.instance_id,
            node=self.host.name,
            rkey=self.region.rkey,
            bookkeeping_addr=self.bookkeeping.base_addr,
            metadata_base=self.metadata_ring.base_addr,
            metadata_capacity=self.metadata_ring.capacity,
            request_data_base=self.request_data.base_addr,
            request_data_capacity=self.request_data.capacity,
            response_data_base=self.response_data.base_addr,
            response_data_capacity=self.response_data.capacity,
            remote_regions=dict(self.remote_regions),
        )

    # ------------------------------------------------------------------
    # The Table 2 API
    # ------------------------------------------------------------------
    def async_read(
        self,
        thread: Thread,
        region_id: int,
        src_offset: int,
        length: int,
    ) -> Generator[Any, Any, int]:
        """Asynchronously read remote bytes; returns a request id.

        ``src_offset`` is relative to the remote region's base (the API
        expresses remote memory as offsets from ``memory_pool_addr``).
        The result lands in the response data ring, at the slot whose
        address the metadata entry carries as ``resp_addr``.
        """
        request_id, cpu_ns = self.post_read(region_id, src_offset, length)
        yield from thread.compute(cpu_ns, TAG_COMM)
        return request_id

    def async_write(
        self,
        thread: Thread,
        region_id: int,
        dest_offset: int,
        data: bytes,
    ) -> Generator[Any, Any, int]:
        """Asynchronously write ``data`` to remote memory; returns a request id."""
        request_id, cpu_ns = self.post_write(region_id, dest_offset, data)
        yield from thread.compute(cpu_ns, TAG_COMM)
        return request_id

    def poll_create(self) -> int:
        """Initialize a notification group; returns a poll id."""
        poll_id = next(self._next_poll_id)
        self._poll_groups[poll_id] = PollGroup(poll_id)
        return poll_id

    def poll_add(self, poll_id: int, request_id: int) -> None:
        self._poll_groups[poll_id].add(request_id)

    def poll_remove(self, poll_id: int, request_id: int) -> None:
        self._poll_groups[poll_id].remove(request_id)

    def poll_group(self, poll_id: int) -> PollGroup:
        """The group behind ``poll_id``; its ``add`` is :meth:`poll_add`."""
        return self._poll_groups[poll_id]

    def poll_wait(
        self,
        thread: Thread,
        poll_id: int,
        max_ret: int = 16,
        timeout: Optional[float] = None,
    ) -> Generator[Any, Any, list[CompletionEvent]]:
        """Wait for up to ``max_ret`` completions or until ``timeout`` ns.

        Completion checks are purely local: integer comparisons against
        the red block's progress counters (Section 4.3).
        """
        deadline = None if timeout is None else self.sim.now + timeout
        while True:
            cpu_ns, done_ids, progress = self.poll_check(poll_id, max_ret, deadline)
            yield from thread.compute(cpu_ns, TAG_COMM)
            if done_ids is not None:
                return self.poll_reap(poll_id, done_ids)
            wake = self.poll_wake(progress, deadline)
            if wake is None:
                return []
            yield from thread.wait(wake)
            self.poll_woken(progress)

    # ------------------------------------------------------------------
    # The Table 2 calls without their simulated CPU time.  Each returns
    # what its call returns and the CPU time the caller charges (with
    # ``thread.compute(..., TAG_COMM)``) before it uses the result; a
    # caller that charges it itself saves a generator level on every
    # resumption of that charge.
    # ------------------------------------------------------------------
    def post_read(self, region_id: int, src_offset: int, length: int) -> tuple[int, float]:
        """:meth:`async_read` up to its CPU charge: ``(request id, ns)``."""
        # _handle, _append_metadata and encode_request_id, inlined: one
        # call each per read.
        handle = self.remote_regions.get(region_id)
        if handle is None:
            raise KeyError(f"region {region_id} not registered with instance")
        remote_addr = handle.translate(src_offset, length)
        # A request takes its metadata entry, data-ring space and
        # sequence number together or not at all, so a full ring is
        # refused before anything is taken (inlined: one check per op).
        metadata = self.metadata_ring
        if metadata.tail - metadata.head >= metadata.capacity:
            raise BufferFullError(_metadata_full(metadata), "metadata")
        # Reserve the response slot next (step 2 of Section 4.3) so a
        # full response ring fails before any state is published.
        before = self.response_data.tail
        try:
            dest_addr = self.response_data.reserve(length)
        except RingFullError as exc:
            raise BufferFullError(str(exc), "response_data") from exc
        pad = (self.response_data.tail - before) - length
        sequence = next(self._read_seq)
        metadata.append(
            RequestMetadata(RwType.READ, remote_addr, dest_addr, length, region_id)
        )
        green = self.green
        green.request_meta_tail = metadata.tail
        green.request_data_tail = self.request_data.tail
        self.region.write(self._green_addr, green.pack())  # _publish_green
        self._reads[sequence] = _OutstandingRead(sequence, dest_addr, length, pad)
        self._read_order.append(sequence)
        self.requests_issued += 1
        if not 0 <= region_id <= 0xFFFF:
            raise ValueError(f"region_id out of range: {region_id}")
        if not 0 < sequence <= REQUEST_SEQUENCE_MASK:
            raise ValueError(f"sequence out of range: {sequence}")
        # The whole issue path is a handful of local stores (Figure 2).
        return (
            _READ_ID | (region_id << REQUEST_REGION_SHIFT) | sequence,
            self.cost.cowbird_post,
        )

    def post_write(
        self, region_id: int, dest_offset: int, data: bytes
    ) -> tuple[int, float]:
        """:meth:`async_write` up to its CPU charge: ``(request id, ns)``."""
        if not data:
            raise ValueError("cannot write an empty payload")
        handle = self._handle(region_id)
        remote_addr = handle.translate(dest_offset, len(data))
        metadata = self.metadata_ring  # refused before anything is taken
        if metadata.tail - metadata.head >= metadata.capacity:
            raise BufferFullError(_metadata_full(metadata), "metadata")
        before = self.request_data.tail
        try:
            src_addr = self.request_data.reserve(len(data))
        except RingFullError as exc:
            raise BufferFullError(str(exc), "request_data") from exc
        pad = (self.request_data.tail - before) - len(data)
        self.request_data.write(src_addr, data)
        sequence = next(self._write_seq)
        self._append_metadata(
            RequestMetadata(RwType.WRITE, src_addr, remote_addr, len(data), region_id)
        )
        self._writes[sequence] = _OutstandingWrite(sequence, pad, len(data))
        self.requests_issued += 1
        # Post cost plus the payload copy into the request data ring.
        return (
            encode_request_id(RwType.WRITE, region_id, sequence),
            self.cost.cowbird_post + self.cost.memcpy_per_byte * len(data),
        )

    def poll_check(
        self, poll_id: int, max_ret: int, deadline: Optional[float]
    ) -> tuple[float, Optional[list[int]], Any]:
        """One pass of :meth:`poll_wait` up to its CPU charge.

        Returns ``(ns, done_ids, progress)``.  With ``done_ids`` a list,
        the pass is over: charge ``ns``, then :meth:`poll_reap` them.
        With ``done_ids`` None nothing completed: charge ``ns``, then wait
        on :meth:`poll_wake`'s future and check again, or stop if it
        gives none.  Completion checks are purely local: integer
        comparisons against the red block's progress counters
        (Section 4.3).
        """
        group = self._poll_groups[poll_id]
        # Register for progress *before* checking, so an engine update
        # landing between the check and the wait cannot be missed (the
        # classic lost-wakeup race).  A call whose deadline has passed
        # cannot wait, so it registers nothing.
        if deadline is None or deadline > self.sim.now:
            progress = self.sim.future()
            self._progress_waiters.append(progress)
        else:
            progress = None
        if self._red_dirty:
            self._sync_red()
        done_ids = group.completed(self.red)[:max_ret]
        if done_ids or not group._stamps:
            if progress is not None:
                self._discard_waiter(progress)
            cost = self.cost
            return (cost.cowbird_poll if done_ids else cost.cowbird_poll_empty), done_ids, None
        return self.cost.cowbird_poll_empty, None, progress

    def poll_wake(self, progress, deadline: Optional[float]):
        """What an empty :meth:`poll_check` pass waits on once charged:
        its progress future, or that or the deadline; None once the
        deadline has passed."""
        if deadline is None:
            return progress
        now = self.sim.now
        if now >= deadline:
            if progress is not None:
                self._discard_waiter(progress)
            return None
        return self.sim.any_of([progress, self.sim.timeout(deadline - now)])

    def poll_woken(self, progress) -> None:
        """After the wait on :meth:`poll_wake`'s future: if the timeout
        won, drop the registration; the next pass registers afresh."""
        if not progress.done:
            self._discard_waiter(progress)

    def poll_reap(self, poll_id: int, done_ids: list[int]) -> list[CompletionEvent]:
        """Consume the completions a :meth:`poll_check` pass found."""
        group = self._poll_groups[poll_id]
        events = [self._complete(request_id) for request_id in done_ids]
        for request_id in done_ids:
            group.remove(request_id)
        return events

    def poll_release(self, poll_id: int, done_ids: list[int]) -> None:
        """Consume the completions a :meth:`poll_check` pass found, for a
        caller that does not look at them: :meth:`poll_reap`, then
        :meth:`fetch_response` of each read, without a
        :class:`CompletionEvent` or a copy of the response.  The response
        ring's head ends where those calls would leave it."""
        group = self._poll_groups[poll_id]
        reads = self._reads
        writes = self._writes
        freed = False
        for request_id in done_ids:
            group.remove(request_id)
            sequence = request_id & REQUEST_SEQUENCE_MASK
            if request_id >> REQUEST_TYPE_SHIFT == _READ:
                reads[sequence].consumed = True
                freed = True
            else:
                del writes[sequence]
        self.requests_completed += len(done_ids)
        if freed:
            self._free_consumed_reads()

    # ------------------------------------------------------------------
    # Convenience methods (Section 4.1: "Simple extensions can be made
    # to the API to allow convenience methods like traditional
    # select/poll semantics or an implicit notification group tied to
    # each read and write.")
    # ------------------------------------------------------------------
    def wait_one(
        self,
        thread: Thread,
        request_id: int,
        timeout: Optional[float] = None,
    ) -> Generator[Any, Any, Optional[CompletionEvent]]:
        """Block until one specific request completes (implicit group)."""
        poll_id = self.poll_create()
        try:
            self.poll_add(poll_id, request_id)
            events = yield from self.poll_wait(
                thread, poll_id, max_ret=1, timeout=timeout
            )
            return events[0] if events else None
        finally:
            del self._poll_groups[poll_id]

    def select(
        self,
        thread: Thread,
        request_ids: list[int],
        max_ret: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Generator[Any, Any, list[CompletionEvent]]:
        """select()-style wait over an ad-hoc set of request ids.

        Returns the completed subset (at least one unless the timeout
        expires); unfinished requests are simply not consumed and can be
        selected on again.
        """
        if not request_ids:
            return []
        poll_id = self.poll_create()
        try:
            for request_id in request_ids:
                self.poll_add(poll_id, request_id)
            events = yield from self.poll_wait(
                thread, poll_id,
                max_ret=max_ret if max_ret is not None else len(request_ids),
                timeout=timeout,
            )
            return events
        finally:
            del self._poll_groups[poll_id]

    # ------------------------------------------------------------------
    # Response consumption
    # ------------------------------------------------------------------
    def fetch_response(self, request_id: int) -> bytes:
        """Copy a completed read's bytes out and free its ring slot."""
        if request_id >> REQUEST_TYPE_SHIFT != _READ:
            raise ValueError("only reads have response payloads")
        sequence = request_id & REQUEST_SEQUENCE_MASK
        entry = self._reads.get(sequence)
        if entry is None:
            raise KeyError(f"unknown or already-freed read sequence {sequence}")
        if self.red.read_progress < sequence:
            raise RuntimeError(f"read {sequence} not complete yet")
        data = self.region.read(entry.addr, entry.length)
        entry.consumed = True
        self._free_consumed_reads()
        return data

    def _free_consumed_reads(self) -> None:
        """Advance the response ring's head past the consumed leading
        reads, in issue order: a read consumed early waits for the reads
        before it."""
        order = self._read_order
        reads = self._reads
        ring = self.response_data
        head = ring.head
        while order:
            entry = reads[order[0]]
            if not entry.consumed:
                break
            head += entry.pad + entry.length
            del reads[order.popleft()]
        if head != ring.head:
            ring.advance_head(head)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _handle(self, region_id: int) -> RemoteRegionHandle:
        handle = self.remote_regions.get(region_id)
        if handle is None:
            raise KeyError(f"region {region_id} not registered with instance")
        return handle

    def _append_metadata(self, entry: RequestMetadata) -> None:
        self.metadata_ring.append(entry)
        green = self.green
        green.request_meta_tail = self.metadata_ring.tail
        green.request_data_tail = self.request_data.tail
        self.region.write(self._green_addr, green.pack())  # _publish_green

    def _publish_green(self) -> None:
        self.region.write(self._green_addr, self.green.pack())

    def _sync_red(self) -> None:
        """Adopt the engine-published red block into local mirrors.

        poll_wait calls this only when ``_red_dirty`` says a write touched
        the red block since the last sync: the engine republishes it
        about once per batch, while the application polls far more often.
        """
        self._red_dirty = False
        raw = self.region.read(self._red_addr, RedBlock.SIZE)
        red = RedBlock.unpack(raw)
        if red.request_meta_head > self.metadata_ring.head:
            self.metadata_ring.advance_head(red.request_meta_head)
        if red.request_data_head > self.request_data.head:
            self.request_data.advance_head(red.request_data_head)
        self.red = red

    def _discard_waiter(self, progress) -> None:
        try:
            self._progress_waiters.remove(progress)
        except ValueError:
            pass  # already fired and cleared by _on_red_write

    def _on_red_write(self, addr: int, length: int) -> None:
        """A write touched the red block: mark it dirty and wake the
        poll_wait sleepers."""
        self._red_dirty = True
        waiters, self._progress_waiters = self._progress_waiters, []
        for waiter in waiters:
            waiter.resolve(None)

    def _complete(self, request_id: int) -> CompletionEvent:
        sequence = request_id & REQUEST_SEQUENCE_MASK
        self.requests_completed += 1
        if request_id >> REQUEST_TYPE_SHIFT == _READ:
            entry = self._reads[sequence]
            return CompletionEvent(request_id, RwType.READ, entry.addr, entry.length)
        entry = self._writes.pop(sequence)
        return CompletionEvent(request_id, RwType.WRITE, 0, entry.length)


class CowbirdClient:
    """Factory/registry for a compute node's Cowbird instances."""

    def __init__(self, host, config: Optional[CowbirdConfig] = None) -> None:
        self.host = host
        self.config = config or CowbirdConfig()
        self.instances: list[CowbirdInstance] = []
        self._shared_regions: list[RemoteRegionHandle] = []

    def register_remote_region(self, handle: RemoteRegionHandle) -> None:
        """Register a remote region with all (current and future) instances."""
        self._shared_regions.append(handle)
        for instance in self.instances:
            instance.register_remote_region(handle)

    def create_instance(self, config: Optional[CowbirdConfig] = None) -> CowbirdInstance:
        instance = CowbirdInstance(
            self.host, config or self.config, instance_id=len(self.instances)
        )
        for handle in self._shared_regions:
            instance.register_remote_region(handle)
        self.instances.append(instance)
        return instance
