"""Figure 11: FASTER throughput with Cowbird-Spot vs Redy.

YCSB uniform, 64 B records, 1 GB-equivalent local log budget.  Redy
needs dedicated compute-node cores for its I/O threads: it runs out of
cores at 16 FASTER threads (the paper draws an "out of cores" band), and
even at 8 it cannot reach optimal performance.  Cowbird frees those
cores and keeps scaling — the paper reports a 1.6x advantage.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.faster_bench import FasterBenchResult
from repro.experiments.sweep import SweepPoint, run_sweep

__all__ = ["SYSTEMS", "run"]

SYSTEMS = ("redy", "cowbird")
THREAD_COUNTS = (1, 2, 4, 8, 16)


def run(
    thread_counts: Sequence[int] = THREAD_COUNTS,
    systems: Sequence[str] = SYSTEMS,
    record_count: int = 20_000,
    ops_per_thread: int = 300,
    seed: int = 11,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[FasterBenchResult]:
    """Regenerate Figure 11 (scaled-down) through the sweep harness."""
    points = [
        SweepPoint("faster", dict(
            system=system, threads=threads, value_bytes=64,
            record_count=record_count, ops_per_thread=ops_per_thread,
            distribution="uniform",
            # 1 GB local log instead of 5 GB: a tighter budget.
            memory_fraction=0.08,
            seed=seed,
            pipeline_depth=128 if system == "cowbird" else 64,
        ))
        for system in systems
        for threads in thread_counts
    ]
    return run_sweep(points, parallel=parallel, cache_dir=cache_dir)


def format_results(results: list[FasterBenchResult]) -> str:
    threads = sorted({r.threads for r in results})
    systems = list(dict.fromkeys(r.system for r in results))
    lines = ["Figure 11: FASTER throughput, Cowbird-Spot vs Redy (MOPS)"]
    lines.append(f"{'system':>14s}" + "".join(f"{t:>12d}" for t in threads))
    for system in systems:
        cells = []
        for t in threads:
            match = [r for r in results if r.system == system and r.threads == t]
            if match and match[0].out_of_cores:
                cells.append(f"{'out-of-cores':>12s}")
            elif match:
                cells.append(f"{match[0].throughput_mops:>12.3f}")
            else:
                cells.append(f"{'-':>12s}")
        lines.append(f"{system:>14s}" + "".join(cells))
    return "\n".join(lines)
