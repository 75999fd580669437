"""Measurement utilities: latency recorders, percentiles, rates.

Every figure in the paper is either a rate (MOPS, Gb/s), a ratio, or a
latency distribution (median/p99).  This module holds the small set of
instruments the experiment harness uses to produce those numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.sim.units import S

__all__ = ["LatencyRecorder", "mops", "percentile"]


def percentile(samples: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` at ``fraction`` in [0, 1].

    Always returns a ``float``, regardless of the sample element type.

    >>> percentile([1, 2, 3, 4], 0.5)
    2.0
    """
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    rank = max(1, math.ceil(fraction * len(data)))
    return float(data[rank - 1])


@dataclass
class LatencyRecorder:
    """Collects per-operation latencies and reports their percentiles."""

    samples_ns: list[float] = field(default_factory=list)

    def record(self, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self.samples_ns.append(latency_ns)

    @property
    def count(self) -> int:
        return len(self.samples_ns)

    def median_us(self) -> float:
        return percentile(self.samples_ns, 0.5) / 1_000.0

    def p99_us(self) -> float:
        return percentile(self.samples_ns, 0.99) / 1_000.0


def mops(ops: int, elapsed_ns: float) -> float:
    """Millions of operations per second given an op count and duration."""
    if elapsed_ns <= 0:
        return 0.0
    return ops / elapsed_ns * S / 1e6
