"""Figure 10: the communication ratio of FASTER's storage backends.

Communication ratio = time spent in the communication library (including
blocking/spinning inside it) over total execution time.  The paper's
claim: synchronous RDMA spends >80 % of FASTER's time in communication;
Cowbird stays under 20 %, "with much of that in wrapper code".
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments import fig09
from repro.experiments.faster_bench import FasterBenchResult

__all__ = ["SYSTEMS", "run"]

SYSTEMS = ("one-sided", "async", "cowbird-p4", "cowbird")
VALUE_SIZES = (64, 512)
THREAD_COUNTS = (1, 2, 4, 8, 16)


def run(
    value_sizes: Sequence[int] = VALUE_SIZES,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    systems: Sequence[str] = SYSTEMS,
    record_count: int = 20_000,
    ops_per_thread: int = 300,
    seed: int = 10,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[FasterBenchResult]:
    """Regenerate both Figure 10 panels (scaled-down): Figure 9's YCSB
    grid over the remote backends, read for its communication ratio."""
    return fig09.run(
        value_sizes=value_sizes, thread_counts=thread_counts, systems=systems,
        record_count=record_count, ops_per_thread=ops_per_thread, seed=seed,
        parallel=parallel, cache_dir=cache_dir,
    )


def format_results(results: list[FasterBenchResult]) -> str:
    lines = []
    sizes = sorted({r.value_bytes for r in results})
    threads = sorted({r.threads for r in results})
    systems = list(dict.fromkeys(r.system for r in results))
    for size in sizes:
        lines.append(f"Figure 10 panel: {size}-byte values — communication ratio")
        lines.append(f"{'system':>14s}" + "".join(f"{t:>9d}" for t in threads))
        for system in systems:
            row = {
                r.threads: r.communication_ratio
                for r in results
                if r.value_bytes == size and r.system == system
            }
            cells = "".join(f"{row.get(t, 0.0):>9.2f}" for t in threads)
            lines.append(f"{system:>14s}{cells}")
        lines.append("")
    return "\n".join(lines)
