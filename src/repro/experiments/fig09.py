"""Figure 9: FASTER throughput on YCSB (Zipfian θ=0.99).

Two panels (64 B and 512 B values), six storage backends, threads
1..16.  The shapes that must hold (Section 8.1):

* remote memory beats the SSD by at least ~2.3x (Cowbird by 12–84x),
* Cowbird tracks local memory closely (paper: within 8 %),
* Cowbird-P4 and Cowbird-Spot are near-identical,
* async RDMA's relative gap narrows at high thread counts (FASTER's
  cross-thread coordination becomes the bottleneck).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.faster_bench import FasterBenchResult
from repro.experiments.sweep import SweepPoint, run_sweep

__all__ = ["SYSTEMS", "run"]

SYSTEMS = ("ssd", "one-sided", "async", "cowbird-p4", "cowbird", "local")
VALUE_SIZES = (64, 512)
THREAD_COUNTS = (1, 2, 4, 8, 16)


def run(
    value_sizes: Sequence[int] = VALUE_SIZES,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    systems: Sequence[str] = SYSTEMS,
    record_count: int = 20_000,
    ops_per_thread: int = 300,
    seed: int = 9,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[FasterBenchResult]:
    """Regenerate both Figure 9 panels (scaled-down) through the sweep
    harness, one point per (value size, system, threads)."""
    points = [
        SweepPoint("faster", dict(
            system=system, threads=threads, value_bytes=value_bytes,
            record_count=record_count, ops_per_thread=ops_per_thread,
            distribution="zipfian", seed=seed,
            pipeline_depth=128 if system.startswith("cowbird") else 64,
        ))
        for value_bytes in value_sizes
        for system in systems
        for threads in thread_counts
    ]
    return run_sweep(points, parallel=parallel, cache_dir=cache_dir)


def format_results(results: list[FasterBenchResult]) -> str:
    lines = []
    sizes = sorted({r.value_bytes for r in results})
    threads = sorted({r.threads for r in results})
    systems = list(dict.fromkeys(r.system for r in results))
    for size in sizes:
        lines.append(f"Figure 9 panel: {size}-byte values, YCSB zipfian (MOPS)")
        lines.append(f"{'system':>14s}" + "".join(f"{t:>9d}" for t in threads))
        for system in systems:
            row = {
                r.threads: r.throughput_mops
                for r in results
                if r.value_bytes == size and r.system == system
            }
            cells = "".join(f"{row.get(t, 0.0):>9.3f}" for t in threads)
            lines.append(f"{system:>14s}{cells}")
        lines.append("")
    return "\n".join(lines)
