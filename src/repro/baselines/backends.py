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
    "CompletionLedger",
    "CowbirdBackend",
    "LedgerBackend",
    "LocalMemoryBackend",
    "OneSidedAsyncBackend",
    "OneSidedSyncBackend",
    "TwoSidedSyncBackend",
]


class Backend(ABC):
    """A remote-memory system under test.

    A token is unique among the tokens of the backend that returned it,
    and no further: two backends may hand out the same token (a Cowbird
    token is its instance's request id, a one-sided async one its
    simulation's ``wr_id``).  A caller that keeps state for the tokens
    of several backends keys it by backend as well.
    """

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


class CompletionLedger:
    """One backend's tokens and completions, kept per issuing thread.

    ``issue`` hands out the backend's next token; ``complete`` queues it
    for the thread that issued it, which alone gets it back from
    ``poll``, so threads sharing one backend never take each other's
    completions.
    """

    def __init__(self) -> None:
        self._next_token = itertools.count(1).__next__
        self._done: dict[int, deque[int]] = {}
        self._outstanding: dict[int, int] = {}
        self._waiters: dict[int, list] = {}

    def outstanding(self) -> int:
        return sum(self._outstanding.values())

    def issue(self, thread: Thread) -> int:
        """A token for an operation ``thread`` starts."""
        issuer = thread.thread_id
        self._outstanding[issuer] = self._outstanding.get(issuer, 0) + 1
        return self._next_token()

    def complete(self, issuer: int, token: int) -> None:
        """``token``, issued by thread ``issuer``, finished."""
        self._done.setdefault(issuer, deque()).append(token)
        self._outstanding[issuer] -= 1
        for waiter in self._waiters.pop(issuer, ()):
            waiter.resolve(None)

    def finished(self, thread: Thread) -> int:
        """A token for an operation that finished as ``thread`` issued it."""
        token = self.issue(thread)
        self.complete(thread.thread_id, token)
        return token

    def poll(self, thread: Thread, max_ret: int, block: bool):
        """Up to ``max_ret`` of ``thread``'s finished tokens; with
        ``block``, wait for one while any of its operations is out."""
        issuer = thread.thread_id
        mine = self._done.setdefault(issuer, deque())
        while block and not mine and self._outstanding.get(issuer, 0):
            waiter = thread.sim.future()
            self._waiters.setdefault(issuer, []).append(waiter)
            yield from thread.wait(waiter)
        out = []
        while mine and len(out) < max_ret:
            out.append(mine.popleft())
        return out


class LedgerBackend(Backend):
    """Base for backends whose tokens a :class:`CompletionLedger` keeps;
    a poll costs nothing unless the subclass charges for it."""

    def __init__(self) -> None:
        self.ledger = CompletionLedger()

    def outstanding(self) -> int:
        return self.ledger.outstanding()

    def poll_completions(self, thread, max_ret=64, block=False):
        return self.ledger.poll(thread, max_ret, block)


class LocalMemoryBackend(LedgerBackend):
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
        return self.ledger.finished(thread)

    def issue_write(self, thread, offset, data):
        yield from thread.compute(
            self.cost.local_memory_write + self.cost.memcpy_per_byte * len(data),
            tag=TAG_APP,
        )
        return self.ledger.finished(thread)


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


class OneSidedSyncBackend(_RdmaBackendBase, LedgerBackend):
    """Synchronous one-sided RDMA: post, busy-poll, repeat (Section 8)."""

    name = "one-sided-sync"
    pending_limit = 1

    def issue_read(self, thread, offset, length):
        yield from self.verbs.read_sync(
            thread, self.qp, self._scratch_slot(length),
            self.region.translate(offset, length), self.region.rkey, length,
        )
        return self.ledger.finished(thread)

    def issue_write(self, thread, offset, data):
        addr = self._scratch_slot(len(data))
        self.scratch.write(addr, data)
        yield from self.verbs.write_sync(
            thread, self.qp, addr,
            self.region.translate(offset, len(data)), self.region.rkey, len(data),
        )
        return self.ledger.finished(thread)


class OneSidedAsyncBackend(_RdmaBackendBase):
    """Asynchronous one-sided RDMA with request pipelining.

    The paper's strongest conventional baseline: requests are posted in
    batches of 100 and completions reaped later, overlapping
    communication with computation.  Every post and poll still costs the
    full Figure 2 breakdown on the application thread.  A token is the
    operation's ``wr_id``; the backend's queue pair has a completion
    queue of its own, so every completion on it is one of its tokens.
    """

    name = "one-sided-async"

    def __init__(self, compute_host, qp, region_handle, batch: int = 100, **kwargs):
        super().__init__(compute_host, qp, region_handle, **kwargs)
        self.pending_limit = batch
        self._outstanding = 0
        self._completed: deque[int] = deque()

    def outstanding(self) -> int:
        return self._outstanding

    def issue_read(self, thread, offset, length):
        wr_id = yield from self.verbs.read_async(
            thread, self.qp, self._scratch_slot(length),
            self.region.translate(offset, length), self.region.rkey, length,
        )
        self._outstanding += 1
        return wr_id

    def issue_write(self, thread, offset, data):
        addr = self._scratch_slot(len(data))
        self.scratch.write(addr, data)
        wr_id = yield from self.verbs.write_async(
            thread, self.qp, addr,
            self.region.translate(offset, len(data)), self.region.rkey, len(data),
        )
        self._outstanding += 1
        return wr_id

    def poll_completions(self, thread, max_ret=64, block=False):
        while True:
            completions = yield from self.verbs.poll_cq(thread, self.qp.cq, max_ret)
            self._outstanding -= len(completions)
            for completion in completions:
                self._completed.append(completion.wr_id)
            if self._completed or not block or not self._outstanding:
                break
            waiter = self.host.sim.future()
            self.qp.cq.notify_next_push(waiter)
            yield from thread.spin_wait(waiter, tag=TAG_COMM)
        out = []
        while self._completed and len(out) < max_ret:
            out.append(self._completed.popleft())
        return out


class TwoSidedSyncBackend(_RdmaBackendBase, LedgerBackend):
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

    def _message(self, work_type, length, payload=b""):
        """A RECV or SEND work request: no addresses, an inline payload."""
        return WorkRequest(
            work_type, 0, 0, 0, length, self.host.sim.next_wr_id(),
            inline_payload=payload,
        )

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
            self.pool_host.nic.post(
                self.server_qp, self._message(WorkType.RECV, self.REQUEST_BYTES)
            )
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
                        WorkType.WRITE, scratch.base_addr, reply_addr,
                        self.scratch.rkey, length, self.host.sim.next_wr_id(),
                    ),
                )
            # Response notification (SEND completes the client's RECV).
            yield from verbs.post_send(
                thread, self.server_qp, self._message(WorkType.SEND, 8, b"RESP-OK!"),
            )
            # Drain our own WRITE/SEND completions.
            yield from verbs.spin_poll(thread, self.server_qp.cq, 2 if op == 0 else 1)

    def issue_read(self, thread, offset, length):
        self.start_server()
        reply_addr = self._scratch_slot(length)
        # Pre-post the RECV for the server's response notification.
        yield from self.verbs.post_recv(
            thread, self.qp, self._message(WorkType.RECV, 8)
        )
        self._pending_request = (0, offset, length, reply_addr)
        request = struct.pack("<IIQQ", 0, length, offset, reply_addr)[: self.REQUEST_BYTES]
        yield from self.verbs.post_send(
            thread, self.qp, self._message(WorkType.SEND, len(request), request)
        )
        # Busy-poll until both our SEND and the response RECV complete.
        yield from self.verbs.spin_poll(thread, self.qp.cq, 2)
        return self.ledger.finished(thread)

    def issue_write(self, thread, offset, data):
        # Write RPC: inline for small payloads (the microbenchmark case);
        # the server applies it during request handling.
        self.start_server()
        yield from self.verbs.post_recv(
            thread, self.qp, self._message(WorkType.RECV, 8)
        )
        pool_region = self.pool_host.registry.by_rkey(self.region.rkey)
        pool_region.write(self.region.translate(offset, len(data)), data)
        self._pending_request = (1, offset, len(data), 0)
        request = struct.pack("<IIQQ", 1, len(data), offset, 0)[: self.REQUEST_BYTES]
        yield from self.verbs.post_send(
            thread, self.qp, self._message(WorkType.SEND, len(request), request)
        )
        yield from self.verbs.spin_poll(thread, self.qp.cq, 2)
        return self.ledger.finished(thread)


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
