"""A behavioural model of AIFM (Figure 12's comparator).

AIFM [OSDI'20] is application-integrated far memory on the Shenango
runtime: dereferencing a non-local remote pointer yields the green
thread, ships a request through Shenango's dedicated IOKernel core and
TCP data path to a remote agent, and reschedules the thread when the
object arrives.  The properties the comparison turns on:

1. every remote access pays object-model and green-thread costs on the
   application core (deref checks, two context switches),
2. all network I/O funnels through a **single dedicated IOKernel
   core** running a TCP stack — a global serialization point, and
3. the request/response round trip is TCP-based, an order of magnitude
   slower per message than raw RDMA verbs.

Together these cap AIFM's small-object read throughput at a fraction of
an RDMA-based design, which is exactly the gap Figure 12 shows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.baselines.backends import LedgerBackend
from repro.sim.cpu import TAG_COMM

__all__ = ["AifmBackend", "AifmConfig"]

@dataclass
class AifmConfig:
    """AIFM/Shenango parameters (xl170-deployment flavoured)."""

    #: Remote-pointer dereference check + object bookkeeping.
    deref_ns: float = 100.0
    #: One green-thread context switch (two per remote access).
    switch_ns: float = 280.0
    #: IOKernel CPU per request (TCP tx + rx processing).
    iokernel_per_op_ns: float = 1_500.0
    #: TCP round trip to the remote agent (25 GbE, kernel-bypass).
    network_rtt_ns: float = 10_000.0
    #: Green threads multiplexed per application thread.
    green_threads: int = 8


class AifmBackend(LedgerBackend):
    """AIFM as a workload backend."""

    name = "aifm"

    def __init__(self, compute_host, pool_host, region_handle,
                 config: Optional[AifmConfig] = None) -> None:
        super().__init__()
        self.host = compute_host
        self.pool_host = pool_host
        self.region = region_handle
        self.config = config or AifmConfig()
        self.cost = compute_host.verbs.cost
        self.pending_limit = self.config.green_threads
        self._queue: deque[tuple[int, int, bool, int, int, bytes]] = deque()
        self._wake: list = []
        self._started = False
        self.iokernel_thread = None

    def start(self) -> None:
        """Dedicate one compute core to the Shenango IOKernel."""
        if self._started:
            return
        self._started = True
        self.iokernel_thread = self.host.cpu.thread("aifm-iokernel")
        self.host.sim.spawn(self._iokernel_loop(self.iokernel_thread),
                            name="aifm-iokernel")

    # ------------------------------------------------------------------
    def issue_read(self, thread, offset, length):
        self.start()
        # Deref check + yield into the scheduler.
        yield from thread.compute(
            self.config.deref_ns + self.config.switch_ns, tag=TAG_COMM
        )
        return self._enqueue(thread, False, offset, length, b"")

    def issue_write(self, thread, offset, data):
        self.start()
        yield from thread.compute(
            self.config.deref_ns + self.config.switch_ns, tag=TAG_COMM
        )
        return self._enqueue(thread, True, offset, len(data), data)

    def poll_completions(self, thread, max_ret=64, block=False):
        # The green thread being rescheduled is the second switch.
        yield from thread.compute(self.config.switch_ns, tag=TAG_COMM)
        return (yield from self.ledger.poll(thread, max_ret, block))

    # ------------------------------------------------------------------
    def _enqueue(self, thread, is_write, offset, length, data) -> int:
        """Queue a request for the IOKernel and wake it."""
        token = self.ledger.issue(thread)
        self._queue.append((token, thread.thread_id, is_write, offset, length, data))
        wakers, self._wake = self._wake, []
        for waker in wakers:
            waker.resolve(None)
        return token

    def _iokernel_loop(self, thread):
        """The single IOKernel core: every packet goes through here."""
        pool_region = self.pool_host.registry.by_rkey(self.region.rkey)
        sim = self.host.sim
        while True:
            if not self._queue:
                waiter = sim.future()
                self._wake.append(waiter)
                yield from thread.wait(waiter)
                continue
            token, issuer, is_write, offset, length, data = self._queue.popleft()
            # TCP tx+rx processing serializes on this core.
            yield from thread.compute(
                self.config.iokernel_per_op_ns, tag=TAG_COMM
            )
            if is_write:
                pool_region.write(self.region.translate(offset, length), data)
            # The round trip to the remote agent overlaps with the next
            # request's CPU work (the IOKernel pipelines).
            sim.call_after(
                self.config.network_rtt_ns,
                partial(self.ledger.complete, issuer, token),
            )
