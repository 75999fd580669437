"""Figure 13: read latency, Cowbird-Spot vs one-sided RDMA.

Median and p99 latency of reading records of 8..2048 bytes from remote
memory, for four configurations:

* synchronous one-sided RDMA (the latency floor for host-driven I/O),
* asynchronous one-sided RDMA with batch-100 pipelining,
* Cowbird without batching (the protocol's inherent extra RTTs: probe
  discovery + bookkeeping updates, minus the cheaper post/poll),
* Cowbird with batching (queueing behind the batch raises the tail, but
  far less than async RDMA's batch-of-100 wait).

The paper's shape: no-batch Cowbird ~= sync RDMA; batched Cowbird's
median stays < 10 us and p99 < 20 us, well under async RDMA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

from repro.experiments.common import build_microbench
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.sim.trace import LatencyRecorder

__all__ = ["Fig13Row", "SYSTEMS", "measure_latency_point", "run"]

SYSTEMS = ("one-sided", "async", "cowbird-nb", "cowbird")
RECORD_SIZES = (8, 64, 256, 512, 1024, 2048)


@dataclass
class Fig13Row:
    system: str
    record_bytes: int
    median_us: float
    p99_us: float
    samples: int


def _latency_worker(
    thread, backend, record_bytes: int, ops: int, depth: int, recorder: LatencyRecorder
) -> Generator[Any, Any, None]:
    """Time issue->completion under the system's batching discipline.

    ``depth == 1`` is the synchronous discipline (one at a time).  For
    batched systems this reproduces the Section 8.1 configuration the
    paper measures: post a full batch, then poll for its completions —
    which is exactly why batching raises median and tail latency.
    """
    sim = thread.sim
    issue_times: dict[int, float] = {}
    issued = 0
    offset = 0
    while issued < ops:
        batch = min(depth, ops - issued)
        inflight = 0
        for _ in range(batch):
            start = sim.now
            token = yield from backend.issue_read(thread, offset, record_bytes)
            issue_times[token] = start
            offset = (offset + record_bytes) % (1 << 20)
            issued += 1
            inflight += 1
        while inflight > 0:
            tokens = yield from backend.poll_completions(
                thread, max_ret=depth, block=True
            )
            for done in tokens:
                recorder.record(sim.now - issue_times.pop(done))
            inflight -= len(tokens)


def measure_latency_point(
    system: str, record_bytes: int, ops: int, seed: int,
) -> Fig13Row:
    """Measure one (system, record size) point; the ``latency`` sweep kind."""
    # Batching systems measure latency *with* their batching
    # configuration (Section 8.3 keeps the Section 8.1 config).
    depth = 100 if system in ("async", "cowbird") else 1
    deployment = build_microbench(
        system, 1, remote_bytes=1 << 21, seed=seed, pipeline_depth=depth,
    )
    recorder = LatencyRecorder()
    thread = deployment.compute.cpu.thread("latency-probe")
    process = deployment.sim.spawn(
        _latency_worker(
            thread, deployment.backends[0], record_bytes, ops, depth, recorder,
        )
    )
    deployment.sim.run_until_complete(process, deadline=120e9)
    deployment.close()
    return Fig13Row(
        system=system, record_bytes=record_bytes,
        median_us=recorder.median_us(), p99_us=recorder.p99_us(),
        samples=recorder.count,
    )


def run(
    record_sizes: Sequence[int] = RECORD_SIZES,
    systems: Sequence[str] = SYSTEMS,
    ops: int = 300,
    seed: int = 13,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[Fig13Row]:
    """Regenerate Figure 13 through the sweep harness: one thread,
    per-record-size latency."""
    points = [
        SweepPoint("latency", dict(
            system=system, record_bytes=record_bytes, ops=ops, seed=seed,
        ))
        for system in systems
        for record_bytes in record_sizes
    ]
    return run_sweep(points, parallel=parallel, cache_dir=cache_dir)


def format_rows(rows: list[Fig13Row]) -> str:
    sizes = sorted({r.record_bytes for r in rows})
    systems = list(dict.fromkeys(r.system for r in rows))
    lines = ["Figure 13: read latency by record size — median (p99), microseconds"]
    lines.append(f"{'system':>12s}" + "".join(f"{s:>16d}" for s in sizes))
    for system in systems:
        cells = []
        for size in sizes:
            row = next(
                (r for r in rows if r.system == system and r.record_bytes == size),
                None,
            )
            cells.append(
                f"{row.median_us:>7.1f} ({row.p99_us:>5.1f})" if row else " " * 16
            )
        lines.append(f"{system:>12s}" + "".join(f"{c:>16s}" for c in cells))
    return "\n".join(lines)
