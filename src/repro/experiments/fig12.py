"""Figure 12: uniformly reading 8 B objects — Cowbird vs AIFM.

Pure remote reads (no local fraction): every operation dereferences an
8-byte remote object.  AIFM pays green-thread scheduling on the
application cores, funnels all I/O through one IOKernel core, and moves
data over a TCP path; Cowbird pays ~40 ns of local stores.  The paper
reports up to 71x higher throughput for Cowbird.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import MicrobenchResult, run_microbench
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.sim.cpu import CostModel

__all__ = ["SYSTEMS", "measure_read_point", "run"]

SYSTEMS = ("aifm", "cowbird")
THREAD_COUNTS = (1, 2, 4, 8, 16)
RECORD_BYTES = 8


def measure_read_point(
    system: str, threads: int, ops_per_thread: int, seed: int,
) -> MicrobenchResult:
    """Measure one (system, threads) point; the ``aifm-read`` sweep kind.

    The paper's workload is a bare loop of 8-byte object reads — no
    hash-table semantics — so per-op application work is a pointer
    dereference, not an index probe.
    """
    return run_microbench(
        system, threads, record_bytes=RECORD_BYTES,
        ops_per_thread=ops_per_thread,
        local_fraction=0.0,  # every read is remote
        cost=CostModel(hash_probe_compute=20.0), seed=seed,
        pipeline_depth=512 if system == "cowbird" else 8,
    )


def run(
    thread_counts: Sequence[int] = THREAD_COUNTS,
    systems: Sequence[str] = SYSTEMS,
    ops_per_thread: int = 400,
    seed: int = 12,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[MicrobenchResult]:
    """Regenerate Figure 12 (scaled-down) through the sweep harness."""
    points = [
        SweepPoint("aifm-read", dict(
            system=system, threads=threads, ops_per_thread=ops_per_thread,
            seed=seed,
        ))
        for system in systems
        for threads in thread_counts
    ]
    return run_sweep(points, parallel=parallel, cache_dir=cache_dir)


def max_speedup(results: list[MicrobenchResult]) -> float:
    """The paper's "up to 71x" number: best per-thread-count ratio."""
    best = 0.0
    threads = sorted({r.threads for r in results})
    for t in threads:
        cowbird = next(
            (r for r in results if r.system == "cowbird" and r.threads == t), None
        )
        aifm = next(
            (r for r in results if r.system == "aifm" and r.threads == t), None
        )
        if cowbird and aifm and aifm.throughput_mops > 0:
            best = max(best, cowbird.throughput_mops / aifm.throughput_mops)
    return best


def format_results(results: list[MicrobenchResult]) -> str:
    threads = sorted({r.threads for r in results})
    systems = list(dict.fromkeys(r.system for r in results))
    lines = ["Figure 12: uniform 8 B remote reads (MOPS)"]
    lines.append(f"{'system':>10s}" + "".join(f"{t:>10d}" for t in threads))
    for system in systems:
        row = {r.threads: r.throughput_mops for r in results if r.system == system}
        lines.append(
            f"{system:>10s}" + "".join(f"{row.get(t, 0.0):>10.2f}" for t in threads)
        )
    lines.append(f"max speedup: {max_speedup(results):.0f}x")
    return "\n".join(lines)
