"""The backend interface and the RDMA/Cowbird/local implementations.

A backend exposes an issue/poll pair so one workload loop can drive
every system in the evaluation:

* ``issue_read``/``issue_write`` start an operation and return a token;
* ``poll_completions`` returns tokens whose operations finished;
* ``pending_limit`` bounds how many operations the workload may keep in
  flight (1 for synchronous systems, the batch size for async ones).

CPU-cost fidelity is the whole game: a synchronous one-sided read burns
the Figure 2 post cost, then busy-polls the core through the network
round trip; Cowbird's adapter pays tens of nanoseconds of local stores.
"""

from __future__ import annotations

import itertools
import struct
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Generator

from repro.cowbird.api import BufferFullError, CowbirdInstance
from repro.rdma.qp import WorkRequest, WorkType
from repro.sim.cpu import TAG_APP, TAG_COMM, Thread

__all__ = [
    "Backend",
    "CowbirdBackend",
    "LocalMemoryBackend",
    "OneSidedAsyncBackend",
    "OneSidedSyncBackend",
    "TwoSidedSyncBackend",
]

_token_counter = itertools.count(1)


class Backend(ABC):
    """A remote-memory system under test."""

    name: str = "backend"
    #: Maximum operations the workload may keep outstanding.
    pending_limit: int = 1

    @abstractmethod
    def issue_read(
        self, thread: Thread, offset: int, length: int
    ) -> Generator[Any, Any, int]:
        """Start a read of remote [offset, offset+length); returns a token."""

    @abstractmethod
    def issue_write(
        self, thread: Thread, offset: int, data: bytes
    ) -> Generator[Any, Any, int]:
        """Start a write of ``data`` to remote ``offset``; returns a token."""

    @abstractmethod
    def poll_completions(
        self, thread: Thread, max_ret: int = 64, block: bool = False
    ) -> Generator[Any, Any, list[int]]:
        """Collect tokens of finished operations.

        With ``block=True`` the call waits (in whatever way is idiomatic
        for the system — busy-polling for sync RDMA, event-checking for
        Cowbird) until at least one completion is available, provided
        any operation is outstanding.
        """

    def outstanding(self) -> int:
        return 0


class _ImmediateCompletions(Backend):
    """Base for synchronous backends: an operation is done when its issue
    call returns, so the token goes straight onto a completed queue."""

    def __init__(self) -> None:
        self._done: deque[int] = deque()

    def _completed_token(self) -> int:
        token = next(_token_counter)
        self._done.append(token)
        return token

    def poll_completions(self, thread, max_ret=64, block=False):
        out = []
        while self._done and len(out) < max_ret:
            out.append(self._done.popleft())
        return out
        yield  # pragma: no cover - keeps this a generator


class LocalMemoryBackend(_ImmediateCompletions):
    """The upper bound: 'remote' accesses hit local DRAM.

    Completion is immediate; the only cost is the memory touch itself,
    which the workload already charges as application time.
    """

    name = "local"
    pending_limit = 1

    def __init__(self, cost) -> None:
        super().__init__()
        self.cost = cost

    def issue_read(self, thread, offset, length):
        yield from thread.compute(self.cost.local_memory_write, tag=TAG_APP)
        return self._completed_token()

    def issue_write(self, thread, offset, data):
        yield from thread.compute(
            self.cost.local_memory_write + self.cost.memcpy_per_byte * len(data),
            tag=TAG_APP,
        )
        return self._completed_token()


class _RdmaBackendBase(Backend):
    """Shared plumbing for verbs-based backends."""

    def __init__(self, compute_host, qp, region_handle, scratch_bytes: int = 1 << 20):
        super().__init__()
        self.host = compute_host
        self.verbs = compute_host.verbs
        self.cost = compute_host.verbs.cost
        self.qp = qp
        self.region = region_handle
        # Local scratch the RNIC DMAs into/out of.
        self.scratch = compute_host.registry.register(
            scratch_bytes, name=f"{self.name}-scratch"
        )
        self._scratch_cursor = 0

    def _scratch_slot(self, length: int) -> int:
        aligned = (length + 63) & ~63
        if self._scratch_cursor + aligned > self.scratch.length:
            self._scratch_cursor = 0
        addr = self.scratch.base_addr + self._scratch_cursor
        self._scratch_cursor += aligned
        return addr


class OneSidedSyncBackend(_RdmaBackendBase, _ImmediateCompletions):
    """Synchronous one-sided RDMA: post, busy-poll, repeat (Section 8)."""

    name = "one-sided-sync"
    pending_limit = 1

    def issue_read(self, thread, offset, length):
        yield from self.verbs.read_sync(
            thread, self.qp, self._scratch_slot(length),
            self.region.translate(offset, length), self.region.rkey, length,
        )
        return self._completed_token()

    def issue_write(self, thread, offset, data):
        addr = self._scratch_slot(len(data))
        self.scratch.write(addr, data)
        yield from self.verbs.write_sync(
            thread, self.qp, addr,
            self.region.translate(offset, len(data)), self.region.rkey, len(data),
        )
        return self._completed_token()


class OneSidedAsyncBackend(_RdmaBackendBase):
    """Asynchronous one-sided RDMA with request pipelining.

    The paper's strongest conventional baseline: requests are posted in
    batches of 100 and completions reaped later, overlapping
    communication with computation.  Every post and poll still costs the
    full Figure 2 breakdown on the application thread.
    """

    name = "one-sided-async"

    def __init__(self, compute_host, qp, region_handle, batch: int = 100, **kwargs):
        super().__init__(compute_host, qp, region_handle, **kwargs)
        self.pending_limit = batch
        self._wr_to_token: dict[int, int] = {}
        self._completed: deque[int] = deque()

    def outstanding(self) -> int:
        return len(self._wr_to_token)

    def issue_read(self, thread, offset, length):
        wr_id = yield from self.verbs.read_async(
            thread, self.qp, self._scratch_slot(length),
            self.region.translate(offset, length), self.region.rkey, length,
        )
        token = next(_token_counter)
        self._wr_to_token[wr_id] = token
        return token

    def issue_write(self, thread, offset, data):
        addr = self._scratch_slot(len(data))
        self.scratch.write(addr, data)
        wr_id = yield from self.verbs.write_async(
            thread, self.qp, addr,
            self.region.translate(offset, len(data)), self.region.rkey, len(data),
        )
        token = next(_token_counter)
        self._wr_to_token[wr_id] = token
        return token

    def poll_completions(self, thread, max_ret=64, block=False):
        while True:
            completions = yield from self.verbs.poll_cq(thread, self.qp.cq, max_ret)
            for completion in completions:
                token = self._wr_to_token.pop(completion.wr_id, None)
                if token is not None:
                    self._completed.append(token)
            if self._completed or not block or not self._wr_to_token:
                break
            waiter = self.host.sim.future()
            self.qp.cq.notify_next_push(waiter)
            yield from thread.spin_wait(waiter, tag=TAG_COMM)
        out = []
        while self._completed and len(out) < max_ret:
            out.append(self._completed.popleft())
        return out


class TwoSidedSyncBackend(_RdmaBackendBase, _ImmediateCompletions):
    """Two-sided RDMA RPC: SEND request, server WRITE + SEND response.

    The memory pool runs a real server thread (so this baseline consumes
    pool CPU, unlike everything else): it polls for request SENDs,
    copies the data, writes it to the client's buffer, and sends a
    response that completes the client's pre-posted RECV.
    """

    name = "two-sided-sync"
    pending_limit = 1

    REQUEST_BYTES = 24

    def __init__(self, compute_host, pool_host, qp, server_qp, region_handle, **kwargs):
        super().__init__(compute_host, qp, region_handle, **kwargs)
        self.pool_host = pool_host
        self.server_qp = server_qp
        self._server_started = False

    def start_server(self) -> None:
        """Spawn the pool-side RPC loop on a pool CPU thread."""
        if self._server_started:
            return
        self._server_started = True
        thread = self.pool_host.cpu.thread("rpc-server")
        self.pool_host.sim.spawn(self._server_loop(thread), name="rpc-server")

    def _server_loop(self, thread):
        verbs = self.pool_host.verbs
        cost = verbs.cost
        pool_region = self.pool_host.registry.by_rkey(self.region.rkey)
        # One staging buffer for every read response: a reply fits the
        # client's scratch, and the loop waits for the WRITE's completion
        # before it takes the next request.
        scratch = self.pool_host.registry.register(
            self.scratch.length, name=f"{self.name}-server-scratch"
        )
        while True:
            # Keep a recv posted, then busy-wait for the next request.
            recv = WorkRequest(
                work_type=WorkType.RECV, local_addr=0, remote_addr=0,
                rkey=0, length=self.REQUEST_BYTES,
            )
            self.pool_host.nic.post(self.server_qp, recv)
            completions = yield from verbs.spin_poll(thread, self.server_qp.cq, 1)
            del completions
            request = self._pending_request
            op, offset, length, reply_addr = request
            yield from thread.compute(cost.rpc_server_handle, tag=TAG_COMM)
            if op == 0:  # read
                yield from thread.compute(cost.memcpy_per_byte * length, tag=TAG_COMM)
                data = pool_region.remote_read(
                    self.region.translate(offset, length), length, self.region.rkey
                )
                scratch.write(scratch.base_addr, data)
                yield from verbs.post_send(
                    thread, self.server_qp,
                    WorkRequest(
                        work_type=WorkType.WRITE, local_addr=scratch.base_addr,
                        remote_addr=reply_addr, rkey=self.scratch.rkey,
                        length=length,
                    ),
                )
            # Response notification (SEND completes the client's RECV).
            yield from verbs.post_send(
                thread, self.server_qp,
                WorkRequest(
                    work_type=WorkType.SEND, local_addr=0, remote_addr=0,
                    rkey=0, length=8, inline_payload=b"RESP-OK!",
                ),
            )
            # Drain our own WRITE/SEND completions.
            yield from verbs.spin_poll(thread, self.server_qp.cq, 2 if op == 0 else 1)

    def issue_read(self, thread, offset, length):
        self.start_server()
        reply_addr = self._scratch_slot(length)
        # Pre-post the RECV for the server's response notification.
        yield from self.verbs.post_recv(
            thread, self.qp,
            WorkRequest(work_type=WorkType.RECV, local_addr=0, remote_addr=0,
                        rkey=0, length=8),
        )
        self._pending_request = (0, offset, length, reply_addr)
        request = struct.pack("<IIQQ", 0, length, offset, reply_addr)[: self.REQUEST_BYTES]
        yield from self.verbs.post_send(
            thread, self.qp,
            WorkRequest(work_type=WorkType.SEND, local_addr=0, remote_addr=0,
                        rkey=0, length=len(request), inline_payload=request),
        )
        # Busy-poll until both our SEND and the response RECV complete.
        yield from self.verbs.spin_poll(thread, self.qp.cq, 2)
        return self._completed_token()

    def issue_write(self, thread, offset, data):
        # Write RPC: inline for small payloads (the microbenchmark case);
        # the server applies it during request handling.
        self.start_server()
        yield from self.verbs.post_recv(
            thread, self.qp,
            WorkRequest(work_type=WorkType.RECV, local_addr=0, remote_addr=0,
                        rkey=0, length=8),
        )
        pool_region = self.pool_host.registry.by_rkey(self.region.rkey)
        pool_region.write(self.region.translate(offset, len(data)), data)
        self._pending_request = (1, offset, len(data), 0)
        request = struct.pack("<IIQQ", 1, len(data), offset, 0)[: self.REQUEST_BYTES]
        yield from self.verbs.post_send(
            thread, self.qp,
            WorkRequest(work_type=WorkType.SEND, local_addr=0, remote_addr=0,
                        rkey=0, length=len(request), inline_payload=request),
        )
        yield from self.verbs.spin_poll(thread, self.qp.cq, 2)
        return self._completed_token()


class CowbirdBackend(Backend):
    """Adapter presenting a Cowbird instance through the Backend API."""

    name = "cowbird"

    def __init__(self, instance: CowbirdInstance, region_id: int = 0,
                 pending_limit: int = 256, sharded=None):
        self.instance = instance
        self.region_id = region_id
        self.pending_limit = pending_limit
        #: Optional ShardedRegionHandle: logical offsets are then routed
        #: to the owning shard's region_id (block striping).
        self.sharded = sharded
        self.poll_id = instance.poll_create()
        self._poll_group = instance.poll_group(self.poll_id)
        self._outstanding = 0
        #: Tokens completed while draining for ring space inside an
        #: issue call; the next poll returns them first.
        self._pre_drained: list[int] = []

    def outstanding(self) -> int:
        return self._outstanding

    def _route(self, offset: int, length: int) -> tuple[int, int]:
        """Map a logical offset to ``(region_id, region-local offset)``."""
        if self.sharded is None:
            return self.region_id, offset
        shard, local = self.sharded.locate(offset, length)
        return shard.region_id, local

    # The issue and poll calls run the instance's local halves of
    # async_read, async_write and poll_wait and charge their CPU time
    # here, so each resumption of that charge passes one generator frame
    # fewer than through the Table 2 generators.
    def issue_read(self, thread, offset, length):
        if self.sharded is None:  # _route, inlined: one call per read
            region_id = self.region_id
        else:
            region_id, offset = self._route(offset, length)
        while True:
            try:
                request_id, cpu_ns = self.instance.post_read(region_id, offset, length)
                break
            except BufferFullError:
                # Paper semantics: consume completions, then retry.
                yield from self._drain_one(thread)
        yield from thread.compute(cpu_ns, TAG_COMM)
        self._poll_group.add(request_id)  # poll_add, without its lookup
        self._outstanding += 1
        return request_id

    def issue_write(self, thread, offset, data):
        region_id, offset = self._route(offset, len(data))
        while True:
            try:
                request_id, cpu_ns = self.instance.post_write(region_id, offset, data)
                break
            except BufferFullError:
                yield from self._drain_one(thread)
        yield from thread.compute(cpu_ns, TAG_COMM)
        self._poll_group.add(request_id)
        self._outstanding += 1
        return request_id

    # Completed reads' responses are freed unread (poll_release): the
    # backend API hands back tokens, never data.
    def _drain_one(self, thread):
        """Wait for completions (``poll_wait`` without a deadline, over
        its halves) and free them; the next poll returns their tokens."""
        instance = self.instance
        poll_id = self.poll_id
        while True:
            cpu_ns, done_ids, progress = instance.poll_check(poll_id, 64, None)
            yield from thread.compute(cpu_ns, TAG_COMM)
            if done_ids is not None:
                break
            yield from thread.wait(progress)  # poll_wake's future, without a deadline
            instance.poll_woken(progress)
        instance.poll_release(poll_id, done_ids)
        self._outstanding -= len(done_ids)
        self._pre_drained.extend(done_ids)

    def poll_completions(self, thread, max_ret=64, block=False):
        out = self._pre_drained[:max_ret]
        if out:
            self._pre_drained = self._pre_drained[len(out):]
            return out
        instance = self.instance
        poll_id = self.poll_id
        # poll_wait's loop, over its halves.
        deadline = None if block and self._outstanding else instance.sim.now
        while True:
            cpu_ns, done_ids, progress = instance.poll_check(poll_id, max_ret, deadline)
            yield from thread.compute(cpu_ns, TAG_COMM)
            if done_ids is not None:
                break
            wake = instance.poll_wake(progress, deadline)
            if wake is None:
                return []
            yield from thread.wait(wake)
            instance.poll_woken(progress)
        if done_ids:
            instance.poll_release(poll_id, done_ids)
            self._outstanding -= len(done_ids)
        return done_ids
