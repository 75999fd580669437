"""Host-level verbs: the CPU-charging wrapper around the RNIC.

This layer is where the paper's Figure 2 lives.  Every ``post_send`` a
compute-node thread issues costs lock + doorbell + WQE time on *that
thread's core*; every ``poll_cq`` costs lock + CQE time — even when the
data is already sitting in the completion queue.  Synchronous verbs
additionally busy-poll, burning the core for the whole network round
trip.  Cowbird's entire contribution is making these charges disappear
from the compute node.

All methods are generators meant to be driven with ``yield from`` inside
a simulated thread's process.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.rdma.nic import RNIC
from repro.rdma.qp import (
    Completion,
    CompletionQueue,
    CompletionStatus,
    QueuePair,
    WorkRequest,
    WorkType,
)
from repro.sim.cpu import CostModel, TAG_COMM, Thread

__all__ = ["RdmaVerbs", "RdmaError"]


class RdmaError(RuntimeError):
    """A verb-level failure (retry exhaustion, remote access error)."""


class RdmaVerbs:
    """Verbs bound to one NIC and one cost model."""

    def __init__(self, nic: RNIC, cost: Optional[CostModel] = None) -> None:
        self.nic = nic
        self.cost = cost or CostModel()
        self._tel = nic.sim.telemetry

    # ------------------------------------------------------------------
    # Primitive verbs
    # ------------------------------------------------------------------
    def post_send(
        self, thread: Thread, qp: QueuePair, wr: WorkRequest
    ) -> Generator[Any, Any, None]:
        """``ibv_post_send``: charge the Figure 2 post breakdown, ring."""
        yield from thread.compute(self.cost.rdma_post_lock, tag=TAG_COMM)
        yield from thread.compute(self.cost.rdma_post_wqe, tag=TAG_COMM)
        yield from thread.compute(self.cost.rdma_post_doorbell, tag=TAG_COMM)
        self.nic.post(qp, wr)

    def post_recv(
        self, thread: Thread, qp: QueuePair, wr: WorkRequest
    ) -> Generator[Any, Any, None]:
        """``ibv_post_recv``: same queue-manipulation cost as a post."""
        yield from thread.compute(self.cost.rdma_post_lock, tag=TAG_COMM)
        yield from thread.compute(self.cost.rdma_post_wqe, tag=TAG_COMM)
        self.nic.post(qp, wr)

    def poll_cq(
        self, thread: Thread, cq: CompletionQueue, max_entries: int = 16
    ) -> Generator[Any, Any, list[Completion]]:
        """``ibv_poll_cq``: charge lock + CQE (or the cheaper empty poll)."""
        yield from thread.compute(self.cost.rdma_poll_lock, tag=TAG_COMM)
        entries = cq.poll(max_entries)
        if entries:
            yield from thread.compute(
                self.cost.rdma_poll_cqe * len(entries), tag=TAG_COMM
            )
        else:
            yield from thread.compute(
                max(0.0, self.cost.rdma_poll_empty - self.cost.rdma_poll_lock),
                tag=TAG_COMM,
            )
        return entries

    def spin_poll(
        self, thread: Thread, cq: CompletionQueue, count: int = 1
    ) -> Generator[Any, Any, list[Completion]]:
        """Busy-poll ``cq`` until ``count`` completions have been reaped.

        The spin occupies the thread's core and is charged as
        communication time, exactly like a tight ``while
        (!ibv_poll_cq(...))`` loop.
        """
        reaped: list[Completion] = []
        while len(reaped) < count:
            waiter = self.nic.sim.future()
            cq.notify_next_push(waiter)
            yield from thread.spin_wait(waiter, tag=TAG_COMM)
            entries = yield from self.poll_cq(thread, cq, max_entries=count - len(reaped))
            reaped.extend(entries)
        return reaped

    # ------------------------------------------------------------------
    # Composite operations (the baselines' building blocks)
    # ------------------------------------------------------------------
    def read_sync(
        self,
        thread: Thread,
        qp: QueuePair,
        local_addr: int,
        remote_addr: int,
        rkey: int,
        length: int,
    ) -> Generator[Any, Any, Completion]:
        """Synchronous one-sided READ: post, then busy-poll to completion."""
        wr = WorkRequest(
            work_type=WorkType.READ,
            local_addr=local_addr,
            remote_addr=remote_addr,
            rkey=rkey,
            length=length,
            wr_id=self.nic.sim.next_wr_id(),
        )
        with self._tel.span(
            "verbs.read_sync", process=self.nic.node, track=thread.name,
            qp=qp.qpn, bytes=length,
        ):
            yield from self.post_send(thread, qp, wr)
            completions = yield from self.spin_poll(thread, qp.cq, count=1)
        completion = completions[-1]
        self._check(completion)
        return completion

    def write_sync(
        self,
        thread: Thread,
        qp: QueuePair,
        local_addr: int,
        remote_addr: int,
        rkey: int,
        length: int,
    ) -> Generator[Any, Any, Completion]:
        """Synchronous one-sided WRITE: post, then busy-poll to completion."""
        wr = WorkRequest(
            work_type=WorkType.WRITE,
            local_addr=local_addr,
            remote_addr=remote_addr,
            rkey=rkey,
            length=length,
            wr_id=self.nic.sim.next_wr_id(),
        )
        with self._tel.span(
            "verbs.write_sync", process=self.nic.node, track=thread.name,
            qp=qp.qpn, bytes=length,
        ):
            yield from self.post_send(thread, qp, wr)
            completions = yield from self.spin_poll(thread, qp.cq, count=1)
        completion = completions[-1]
        self._check(completion)
        return completion

    def read_async(
        self,
        thread: Thread,
        qp: QueuePair,
        local_addr: int,
        remote_addr: int,
        rkey: int,
        length: int,
    ) -> Generator[Any, Any, int]:
        """Asynchronous READ: post only; the caller polls later.

        Returns the work-request id to match against completions.
        """
        wr = WorkRequest(
            work_type=WorkType.READ,
            local_addr=local_addr,
            remote_addr=remote_addr,
            rkey=rkey,
            length=length,
            wr_id=self.nic.sim.next_wr_id(),
        )
        yield from self.post_send(thread, qp, wr)
        return wr.wr_id

    def write_async(
        self,
        thread: Thread,
        qp: QueuePair,
        local_addr: int,
        remote_addr: int,
        rkey: int,
        length: int,
    ) -> Generator[Any, Any, int]:
        """Asynchronous WRITE: post only; the caller polls later."""
        wr = WorkRequest(
            work_type=WorkType.WRITE,
            local_addr=local_addr,
            remote_addr=remote_addr,
            rkey=rkey,
            length=length,
            wr_id=self.nic.sim.next_wr_id(),
        )
        yield from self.post_send(thread, qp, wr)
        return wr.wr_id

    @staticmethod
    def _check(completion: Completion) -> None:
        if completion.status is not CompletionStatus.SUCCESS:
            raise RdmaError(
                f"work request {completion.wr_id} failed: {completion.status.value}"
            )
