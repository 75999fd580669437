"""Figure 8: hash-table throughput vs threads and record size.

Four panels (8/64/256/512 B records), six systems, threads 1..16.  The
shapes that must hold (Section 8.1):

* asynchronous I/O is an order of magnitude above synchronous,
* Cowbird beats async RDMA and, with batching, approaches local memory,
* for 256 B and 512 B records the network bandwidth ceiling (dashed in
  the paper) caps every remote system at high thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.sweep import SweepPoint, run_sweep
from repro.rdma.packets import HEADER_OVERHEAD_BYTES

__all__ = ["Fig08Cell", "SYSTEMS", "bandwidth_ceiling_mops", "run"]

SYSTEMS = ("two-sided", "one-sided", "async", "cowbird-nb", "cowbird", "local")
RECORD_SIZES = (8, 64, 256, 512)
THREAD_COUNTS = (1, 2, 4, 8, 16)


@dataclass
class Fig08Cell:
    """One (record size, system, threads) measurement."""

    record_bytes: int
    system: str
    threads: int
    throughput_mops: float
    communication_ratio: float


def bandwidth_ceiling_mops(record_bytes: int, bandwidth_gbps: float = 100.0) -> float:
    """The dashed line: per-record wire cost at link rate.

    Each remote record moves once over the bottleneck link with RoCE
    header overhead (the request direction is much smaller and rides the
    opposite link).
    """
    wire_bytes = record_bytes + HEADER_OVERHEAD_BYTES + 4  # AETH on responses
    return bandwidth_gbps / 8.0 / wire_bytes * 1000.0


def run(
    record_sizes: Sequence[int] = RECORD_SIZES,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    systems: Sequence[str] = SYSTEMS,
    ops_per_thread: int = 500,
    seed: int = 8,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[Fig08Cell]:
    """Regenerate the Figure 8 panels (scaled-down op counts) through
    the sweep harness, one point per (record size, system, threads)."""
    grid = [
        (record_bytes, system, threads)
        for record_bytes in record_sizes
        for system in systems
        for threads in thread_counts
    ]
    points = [
        SweepPoint("microbench", dict(
            system=system, threads=threads, record_bytes=record_bytes,
            ops_per_thread=ops_per_thread, seed=seed,
            pipeline_depth=512 if system.startswith("cowbird") else 100,
        ))
        for record_bytes, system, threads in grid
    ]
    results = run_sweep(points, parallel=parallel, cache_dir=cache_dir)
    return [
        Fig08Cell(
            record_bytes=record_bytes,
            system=system,
            threads=threads,
            throughput_mops=result.throughput_mops,
            communication_ratio=result.communication_ratio,
        )
        for (record_bytes, system, threads), result in zip(grid, results)
    ]


def format_cells(cells: list[Fig08Cell]) -> str:
    lines = []
    sizes = sorted({c.record_bytes for c in cells})
    threads = sorted({c.threads for c in cells})
    systems = list(dict.fromkeys(c.system for c in cells))
    for size in sizes:
        lines.append(f"Figure 8 panel: {size}-byte records (MOPS)"
                     f"  [BW ceiling ~{bandwidth_ceiling_mops(size):.0f}]")
        lines.append(f"{'system':>14s}" + "".join(f"{t:>9d}" for t in threads))
        for system in systems:
            row = [c for c in cells if c.record_bytes == size and c.system == system]
            by_threads = {c.threads: c.throughput_mops for c in row}
            cellstr = "".join(f"{by_threads.get(t, 0.0):>9.2f}" for t in threads)
            lines.append(f"{system:>14s}{cellstr}")
        lines.append("")
    return "\n".join(lines)
