"""CPU, thread, and cycle-cost models.

The paper's central claim is economic: every remote-memory access through a
software disaggregation framework costs the *compute node's* CPU hundreds of
nanoseconds (Figure 2 breaks a single asynchronous one-sided RDMA read into
post-lock, doorbell, WQE, poll-lock, and CQE costs totalling ~630 ns), while
Cowbird's purely local-memory request path costs tens of nanoseconds.  This
module provides:

* :class:`CostModel` — every calibrated nanosecond constant in one place,
  with defaults read off the paper's Figure 2 and Section 7 testbed specs.
* :class:`CPU` — a pool of cores with optional SMT (hyper-threading), a
  FIFO ready queue, and cooperative scheduling.
* :class:`Thread` — a simulated hardware thread that *charges* compute time
  to tagged accounts (``app`` vs ``comm``), which is exactly the
  communication-ratio metric of Figure 10.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.sim.engine import Future, SimulationError, Simulator

__all__ = ["CPU", "CostModel", "Thread", "ThreadStats"]

#: Tag for application compute time.
TAG_APP = "app"
#: Tag for communication-library compute time (the Figure 10 numerator).
TAG_COMM = "comm"


@dataclass
class CostModel:
    """Calibrated CPU/time constants, in nanoseconds unless noted.

    The RDMA post/poll breakdown mirrors the paper's Figure 2 (obtained by
    the authors via ``rdtsc`` instrumentation of the Mellanox OFED driver):
    each sub-task is dominated by spinlocks, atomics, and fence
    instructions.  Cowbird replaces the entire sequence with a handful of
    local-memory writes.
    """

    # ---- RDMA verb costs on the caller's CPU (Figure 2) ----------------
    rdma_post_lock: float = 90.0
    rdma_post_doorbell: float = 180.0
    rdma_post_wqe: float = 90.0
    rdma_poll_lock: float = 90.0
    rdma_poll_cqe: float = 180.0
    #: Polling an *empty* completion queue is cheaper than reaping a CQE.
    rdma_poll_empty: float = 60.0

    # ---- Cowbird client-library costs (Figure 2, "Cowbird" bars) -------
    #: async_read/async_write: a few local stores + atomic increments.
    cowbird_post: float = 25.0
    #: poll_wait when a completion is available: integer compares + copy.
    cowbird_poll: float = 15.0
    #: poll_wait when nothing is ready.
    cowbird_poll_empty: float = 8.0

    # ---- Generic memory costs ------------------------------------------
    #: One cache-line local memory write (the unit Figure 2 compares to).
    local_memory_write: float = 10.0
    #: Streaming copy cost per byte (~32 GB/s single-threaded memcpy).
    memcpy_per_byte: float = 0.03

    # ---- Application work (microbenchmark + FASTER) --------------------
    #: Hash computation + bucket walk for one index probe.
    hash_probe_compute: float = 120.0
    #: Per-byte record processing cost (checksum-style touch of payload).
    record_touch_per_byte: float = 0.12
    #: FASTER per-operation bookkeeping above the communication layer.
    faster_op_overhead: float = 1_500.0

    # ---- Thread/scheduler costs ----------------------------------------
    #: Cooperative green-thread switch (AIFM/Shenango-style).
    green_thread_switch: float = 280.0
    #: Kernel context switch (used by blocking designs).
    context_switch: float = 2_000.0

    # ---- Two-sided RPC server-side costs --------------------------------
    rpc_server_handle: float = 450.0

    # ---- Offload-engine (Cowbird-Spot agent) costs ----------------------
    # The agent's fast path is doorbell batching: one ibv_post_send call
    # carries a linked list of WQEs and one ibv_poll_cq call reaps many
    # CQEs, so the *per-entry* costs are a few nanoseconds of pointer
    # arithmetic while the ~300 ns lock/doorbell overhead is paid once
    # per call.  This is what lets one spot core keep up with all
    # application threads (Section 6 / Figure 11).
    #: Parsing one fetched request-metadata entry.
    engine_parse_request: float = 2.0
    #: Per-RDMA-call overhead on the agent (lock + doorbell + fences).
    engine_rdma_call: float = 250.0
    #: Per-WQE cost inside a doorbell-batched post.
    engine_wqe_batched: float = 2.0
    #: Per-CQE cost inside a batched completion reap.
    engine_cqe_batched: float = 1.5
    #: Per-byte staging copy when batching responses in agent memory.
    engine_batch_copy_per_byte: float = 0.01

    # ---- Network / NIC constants (Section 7 testbed) ---------------------
    link_bandwidth_gbps: float = 100.0
    propagation_delay_ns: float = 500.0
    switch_forward_delay_ns: float = 300.0
    nic_processing_delay_ns: float = 250.0
    #: Maximum NIC message rate (millions of messages per second; a
    #: ConnectX-5 sustains ~200 M small messages/s across QPs).
    nic_message_rate_mops: float = 200.0
    mtu_bytes: int = 1024
    #: Offload engine probe interval (1 probe per 2 us for FASTER, §5.2).
    probe_interval_ns: float = 2_000.0

    # ---- SSD model (SATA, 6 Gb/s, §8 baseline) ---------------------------
    ssd_bandwidth_gbps: float = 6.0
    ssd_access_latency_ns: float = 80_000.0
    ssd_queue_depth: int = 32
    ssd_max_iops: int = 100_000

    # ---- SMT --------------------------------------------------------------
    #: Throughput multiplier per hyperthread when both siblings are busy.
    smt_efficiency: float = 0.68

    def rdma_post_total(self) -> float:
        """Total CPU cost of posting one RDMA work request."""
        return self.rdma_post_lock + self.rdma_post_doorbell + self.rdma_post_wqe

    def rdma_poll_total(self) -> float:
        """Total CPU cost of reaping one completion-queue entry."""
        return self.rdma_poll_lock + self.rdma_poll_cqe

    def rdma_read_cpu_total(self) -> float:
        """Compute-side CPU time of a full asynchronous read (Figure 2)."""
        return self.rdma_post_total() + self.rdma_poll_total()

    def cowbird_read_cpu_total(self) -> float:
        """Compute-side CPU time of a full Cowbird read (Figure 2)."""
        return self.cowbird_post + self.cowbird_poll


@dataclass
class ThreadStats:
    """Cycle accounting for one simulated thread.

    ``cpu_ns`` maps a tag (``"app"``, ``"comm"``, ...) to nanoseconds of
    CPU time charged under that tag.  ``blocked_ns`` is wall time spent
    waiting (on futures or for a core).  The paper's communication ratio
    (Figure 10) is ``comm / (total cpu + blocked)`` measured per thread.
    """

    cpu_ns: dict[str, float] = field(default_factory=dict)
    blocked_ns: float = 0.0
    queue_wait_ns: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    ops_completed: int = 0

    def charge(self, tag: str, ns: float) -> None:
        self.cpu_ns[tag] = self.cpu_ns.get(tag, 0.0) + ns

    @property
    def total_cpu_ns(self) -> float:
        return sum(self.cpu_ns.values())

    @property
    def wall_ns(self) -> float:
        return self.finished_at - self.started_at

    def communication_ratio(self) -> float:
        """Time in the communication library over total execution time.

        Blocking waits caused by synchronous communication count toward
        the communication share, matching how the paper instruments the
        wrapper library (the app thread is inside the library while it
        spins or blocks).
        """
        total = self.total_cpu_ns + self.blocked_ns
        if total <= 0:
            return 0.0
        comm = self.cpu_ns.get(TAG_COMM, 0.0) + self.blocked_ns
        return comm / total


class _Core:
    """One physical core with ``smt`` hardware-thread slots."""

    __slots__ = ("index", "smt", "occupants")

    def __init__(self, index: int, smt: int) -> None:
        self.index = index
        self.smt = smt
        self.occupants: set[int] = set()


class CPU:
    """A pool of physical cores with optional SMT and FIFO admission.

    Threads acquire a hardware-thread slot for the duration of each
    ``compute()`` chunk and release it between chunks, which approximates
    preemptive timesharing for the nanosecond-scale chunks used
    throughout the reproduction.  When both SMT siblings of a core are
    busy, compute chunks stretch by ``1 / smt_efficiency`` — this is what
    makes the paper's 8-core/16-hyperthread scaling curves sublinear past
    eight threads.
    """

    def __init__(
        self,
        sim: Simulator,
        physical_cores: int = 8,
        smt: int = 2,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if physical_cores < 1:
            raise ValueError("need at least one core")
        if smt < 1:
            raise ValueError("smt must be >= 1")
        self.sim = sim
        self.cost = cost_model or CostModel()
        self.smt = smt
        self._cores = [_Core(i, smt) for i in range(physical_cores)]
        self._wait_queue: deque[tuple["Thread", Future]] = deque()
        self._next_thread_id = 0

    @property
    def physical_cores(self) -> int:
        return len(self._cores)

    @property
    def hardware_threads(self) -> int:
        return len(self._cores) * self.smt

    def thread(self, name: str = "") -> "Thread":
        """Create a new simulated thread on this CPU."""
        self._next_thread_id += 1
        return Thread(self, self._next_thread_id, name or f"thread-{self._next_thread_id}")

    # ------------------------------------------------------------------
    # Slot management (used by Thread.spin_wait; Thread.compute inlines
    # _pick_core, _take_slot and _release, and calls _admit_waiters)
    # ------------------------------------------------------------------
    def _pick_core(self) -> Optional[_Core]:
        """Prefer an empty core; fall back to a core with a free sibling.

        Thread.compute keeps an inlined copy of this policy: edit both.
        """
        best: Optional[_Core] = None
        for core in self._cores:
            busy = len(core.occupants)
            if not busy:
                return core
            if best is None and busy < core.smt:
                best = core
        return best

    def _take_slot(self, thread: "Thread") -> Optional[_Core]:
        """Give ``thread`` a free slot now, or None if it must queue."""
        if self._wait_queue:
            return None
        core = self._pick_core()
        if core is not None:
            core.occupants.add(thread.thread_id)
        return core

    def _wait_for_slot(self, thread: "Thread") -> Future:
        """Queue ``thread`` FIFO; the future resolves with its core."""
        future = self.sim.future()
        self._wait_queue.append((thread, future))
        return future

    def _release(self, thread: "Thread", core: _Core) -> None:
        core.occupants.discard(thread.thread_id)
        if self._wait_queue:
            self._admit_waiters()

    def _admit_waiters(self) -> None:
        """Hand freed slots to queued threads, first come first served."""
        while self._wait_queue:
            next_core = self._pick_core()
            if next_core is None:
                break
            waiting_thread, waiting_future = self._wait_queue.popleft()
            next_core.occupants.add(waiting_thread.thread_id)
            waiting_future.resolve(next_core)


class Thread:
    """A simulated application thread with tagged cycle accounting.

    Used inside simulator processes via ``yield from``::

        def worker(thread, sim):
            yield from thread.compute(120, tag="app")      # hash probe
            value = yield from thread.wait(some_future)     # block
            yield from thread.compute(270, tag="comm")      # poll CQE
    """

    def __init__(self, cpu: CPU, thread_id: int, name: str) -> None:
        self.cpu = cpu
        self.sim = cpu.sim
        self.thread_id = thread_id
        self.name = name
        self.stats = ThreadStats(started_at=cpu.sim.now)

    # ------------------------------------------------------------------
    def compute(self, ns: float, tag: str = TAG_APP) -> Generator[Any, Any, None]:
        """Charge ``ns`` of CPU time under ``tag``, occupying a core slot."""
        if ns < 0:
            raise SimulationError(f"negative compute time: {ns}")
        if ns == 0:
            return
        # CPU._take_slot (with _pick_core), CPU._release and
        # ThreadStats.charge, inlined: a chunk is the simulator's most
        # frequent step.  Those stay for spin_wait and _admit_waiters, so a
        # change to one copy goes into the other
        # (tests/test_sim_cpu.py::TestInlinedSlotPolicy pins them).
        cpu = self.cpu
        sim = self.sim
        thread_id = self.thread_id
        core = None
        if not cpu._wait_queue:
            # Prefer an empty core; fall back to a core with a free sibling.
            for candidate in cpu._cores:
                busy = len(candidate.occupants)
                if not busy:
                    core = candidate
                    break
                if core is None and busy < candidate.smt:
                    core = candidate
        if core is None:
            queue_start = sim.now
            core = yield cpu._wait_for_slot(self)
            self.stats.queue_wait_ns += sim.now - queue_start
        else:
            core.occupants.add(thread_id)
            queue = sim._queue
            if queue and queue[0][0] <= sim.now:
                # Let this instant's other events run first: one may take
                # the SMT sibling, which the slowdown below must see.  With
                # none queued the yield would resume at once: skip it.
                yield None
        # The SMT slowdown of a chunk starting on ``core`` now.
        if len(core.occupants) > 1:
            yield ns * (1.0 / cpu.cost.smt_efficiency)
        else:
            yield ns
        core.occupants.discard(thread_id)
        if cpu._wait_queue:
            cpu._admit_waiters()
        cpu_ns = self.stats.cpu_ns
        cpu_ns[tag] = cpu_ns.get(tag, 0.0) + ns

    def wait(self, future: Future) -> Generator[Any, Any, Any]:
        """Block (off-core) until ``future`` resolves; return its value."""
        start = self.sim.now
        value = yield future
        self.stats.blocked_ns += self.sim.now - start
        return value

    def spin_wait(self, future: Future, tag: str = TAG_COMM) -> Generator[Any, Any, Any]:
        """Busy-poll: occupy a core until ``future`` resolves.

        The elapsed wall time is charged as CPU time under ``tag`` — this
        models synchronous RDMA's busy-polling, where the thread burns
        its core inside the communication library until the completion
        arrives (the behaviour Figure 10's communication ratio exposes).
        """
        cpu = self.cpu
        core = cpu._take_slot(self)
        if core is None:
            queue_start = self.sim.now
            core = yield cpu._wait_for_slot(self)
            self.stats.queue_wait_ns += self.sim.now - queue_start
        else:
            queue = self.sim._queue
            if queue and queue[0][0] <= self.sim.now:
                yield None
        start = self.sim.now
        value = yield future
        cpu._release(self, core)
        self.stats.charge(tag, self.sim.now - start)
        return value

    def sleep(self, ns: float) -> Generator[Any, Any, None]:
        """Block (off-core) for ``ns`` nanoseconds."""
        start = self.sim.now
        yield ns
        self.stats.blocked_ns += self.sim.now - start

    def finish(self) -> None:
        """Stamp the thread's end time for wall-clock accounting."""
        self.stats.finished_at = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Thread({self.name!r})"
