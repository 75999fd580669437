"""A behavioural model of Redy (Figure 11's comparator).

Redy [VLDB'22] exposes remote memory as a high-performance cache: user
requests are handed to dedicated **I/O threads pinned to physical
cores** on the compute node, which batch them and ship them to the
memory server over throughput-optimized RDMA connections; the server
processes a batch sequentially and writes back a batch of responses.

The properties the paper's comparison turns on are:

1. application threads pay only a cheap enqueue per request, but
2. every I/O thread **occupies a compute-node core** that FASTER cannot
   use, and
3. the server-side sequential processing bounds aggregate throughput.

We model the I/O threads and the server loop as real simulated threads
(so core stealing emerges from the CPU scheduler) and carry batches
over the simulated RDMA fabric.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.baselines.backends import LedgerBackend
from repro.rdma.qp import WorkRequest, WorkType
from repro.sim.cpu import TAG_COMM

__all__ = ["RedyBackend", "RedyConfig"]

@dataclass
class RedyConfig:
    """Redy tunables (defaults approximate the paper's description)."""

    #: Dedicated I/O threads pinned on the compute node.
    io_threads: int = 2
    #: Requests batched per server round trip.
    batch_size: int = 64
    #: App-thread cost to enqueue one request to an I/O thread.
    enqueue_ns: float = 60.0
    #: I/O-thread cost per request (marshal + WQE).
    io_per_op_ns: float = 50.0
    #: Memory-server sequential processing cost per request.
    server_per_op_ns: float = 120.0
    #: Fixed per-batch cost on both I/O thread and server.
    per_batch_ns: float = 600.0


@dataclass
class _RedyRequest:
    token: int
    is_write: bool
    offset: int
    length: int
    issuer: int
    data: bytes = b""


class RedyBackend(LedgerBackend):
    """Redy as a workload backend."""

    name = "redy"

    def __init__(
        self,
        compute_host,
        pool_host,
        region_handle,
        qp_pairs,
        config: Optional[RedyConfig] = None,
    ) -> None:
        """``qp_pairs``: one (client_qp, server_qp) tuple per I/O thread."""
        super().__init__()
        self.host = compute_host
        self.pool_host = pool_host
        self.region = region_handle
        self.config = config or RedyConfig()
        self.cost = compute_host.verbs.cost
        if len(qp_pairs) < self.config.io_threads:
            raise ValueError("need one QP pair per I/O thread")
        self.qp_pairs = qp_pairs
        self.pending_limit = self.config.batch_size * self.config.io_threads
        self._queue: deque[_RedyRequest] = deque()
        self._wake_futures: list = []
        self._started = False
        #: Threads created (visible so experiments can count stolen cores).
        self.io_thread_objs = []
        self.server_thread_objs = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pin the I/O threads (compute cores!) and the server loop."""
        if self._started:
            return
        self._started = True
        for i in range(self.config.io_threads):
            io_thread = self.host.cpu.thread(f"redy-io-{i}")
            self.io_thread_objs.append(io_thread)
            self.host.sim.spawn(
                self._io_loop(io_thread, *self.qp_pairs[i]), name=f"redy-io-{i}"
            )

    # ------------------------------------------------------------------
    # Backend interface (application side)
    # ------------------------------------------------------------------
    def issue_read(self, thread, offset, length):
        self.start()
        yield from thread.compute(self.config.enqueue_ns, tag=TAG_COMM)
        return self._enqueue(thread, False, offset, length)

    def issue_write(self, thread, offset, data):
        self.start()
        yield from thread.compute(self.config.enqueue_ns, tag=TAG_COMM)
        return self._enqueue(thread, True, offset, len(data), data)

    def _enqueue(self, thread, is_write, offset, length, data=b"") -> int:
        token = self.ledger.issue(thread)
        self._queue.append(_RedyRequest(
            token, is_write, offset, length, thread.thread_id, data
        ))
        wakers, self._wake_futures = self._wake_futures, []
        for waker in wakers:
            waker.resolve(None)
        return token

    def poll_completions(self, thread, max_ret=64, block=False):
        yield from thread.compute(self.cost.cowbird_poll_empty, tag=TAG_COMM)
        return (yield from self.ledger.poll(thread, max_ret, block))

    # ------------------------------------------------------------------
    # The pinned I/O loop (compute node) and server processing
    # ------------------------------------------------------------------
    def _io_loop(self, thread, client_qp, server_qp):
        config = self.config
        pool_region = self.pool_host.registry.by_rkey(self.region.rkey)
        next_wr_id = self.host.sim.next_wr_id
        while True:
            if not self._queue:
                waiter = self.host.sim.future()
                self._wake_futures.append(waiter)
                yield from thread.wait(waiter)
                continue
            batch: list[_RedyRequest] = []
            while self._queue and len(batch) < config.batch_size:
                batch.append(self._queue.popleft())
            # Marshal the batch and ship it (one message pair per batch).
            yield from thread.compute(
                config.per_batch_ns + config.io_per_op_ns * len(batch),
                tag=TAG_COMM,
            )
            descriptor = b"B" * min(1024, 16 * len(batch))
            self.host.nic.post(client_qp, WorkRequest(
                WorkType.SEND, 0, 0, 0, len(descriptor), next_wr_id(),
                inline_payload=descriptor,
            ))
            self.pool_host.nic.post(
                server_qp, WorkRequest(WorkType.RECV, 0, 0, 0, 1024, next_wr_id())
            )
            # Server-side sequential processing (charged as simulated
            # delay on the pool: the server is not a modelled CPU-core
            # bottleneck for the compute node, only a rate limit).
            server_time = config.per_batch_ns + config.server_per_op_ns * len(batch)
            for request in batch:
                if request.is_write:
                    pool_region.write(
                        self.region.translate(request.offset, request.length),
                        request.data,
                    )
            yield from thread.sleep(
                2.0 * self.cost.propagation_delay_ns
                + 2.0 * self.cost.nic_processing_delay_ns
                + server_time
            )
            # The response batch comes back by one RDMA write, whose time
            # the sleep above includes; the I/O thread reaps it and
            # completes the app requests.
            yield from thread.compute(
                self.cost.rdma_poll_total(), tag=TAG_COMM
            )
            for request in batch:
                self.ledger.complete(request.issuer, request.token)
