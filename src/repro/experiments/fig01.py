"""Figure 1: normalized throughput of a 256-byte hash-index probe.

The paper's motivating figure: throughput of probing 256 B records in
remote memory with each communication primitive, normalized to local
memory, for 1/2/4 application threads.  The headline shape: synchronous
RDMA sits at a few percent of local, async one-sided at ~10–20 %, and
Cowbird closes most of the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.sweep import SweepPoint, run_sweep

__all__ = ["Fig01Row", "SYSTEMS", "run"]

SYSTEMS = ("two-sided", "one-sided", "async", "cowbird-nb", "cowbird")
THREAD_COUNTS = (1, 2, 4)
RECORD_BYTES = 256


@dataclass
class Fig01Row:
    """One bar group: normalized throughput per system at a thread count."""

    threads: int
    local_mops: float
    normalized: dict[str, float] = field(default_factory=dict)
    absolute_mops: dict[str, float] = field(default_factory=dict)


def run(
    ops_per_thread: int = 600,
    seed: int = 1,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[Fig01Row]:
    """Regenerate Figure 1's series (scaled-down op counts).

    Every (system, threads) point runs through the sweep harness
    (``parallel`` worker processes, optional on-disk cache).
    """
    points = [
        SweepPoint("microbench", _point_kwargs(system, threads,
                                               ops_per_thread, seed))
        for threads in THREAD_COUNTS
        for system in ("local", *SYSTEMS)
    ]
    results = run_sweep(points, parallel=parallel, cache_dir=cache_dir)
    rows = []
    per_row = 1 + len(SYSTEMS)
    for i, threads in enumerate(THREAD_COUNTS):
        local, *rest = results[i * per_row:(i + 1) * per_row]
        row = Fig01Row(threads=threads, local_mops=local.throughput_mops)
        for system, result in zip(SYSTEMS, rest):
            row.absolute_mops[system] = result.throughput_mops
            row.normalized[system] = (
                result.throughput_mops / local.throughput_mops
                if local.throughput_mops > 0 else 0.0
            )
        rows.append(row)
    return rows


def _point_kwargs(system: str, threads: int, ops_per_thread: int,
                  seed: int) -> dict:
    kwargs = dict(
        system=system, threads=threads, record_bytes=RECORD_BYTES,
        ops_per_thread=ops_per_thread, seed=seed,
    )
    if system != "local":
        kwargs["pipeline_depth"] = 512 if system.startswith("cowbird") else 100
    return kwargs


def format_rows(rows: list[Fig01Row]) -> str:
    """Render the figure as the table the paper's plot encodes."""
    lines = ["Figure 1: hash-index probe of 256 B records, normalized to local memory"]
    header = f"{'threads':>8s}" + "".join(f"{s:>14s}" for s in SYSTEMS)
    lines.append(header)
    for row in rows:
        cells = "".join(f"{row.normalized[s]:>14.3f}" for s in SYSTEMS)
        lines.append(f"{row.threads:>8d}{cells}")
    return "\n".join(lines)
