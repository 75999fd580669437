"""The hash-table probe microbenchmark (Figures 1, 8, 12, 13).

Section 8's throughput microbenchmark: a hash table whose records are
split between compute-local memory (5 %) and remote memory (95 %); each
operation hashes a key, locates the record, and touches its bytes.
Local hits cost only application CPU; remote hits go through whatever
:class:`~repro.baselines.backends.Backend` is under test, pipelined up
to the backend's limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.baselines.backends import Backend
from repro.sim.cpu import TAG_APP, Thread

__all__ = ["HashTable", "HashTableConfig", "ProbeResult", "probe_worker"]


@dataclass
class HashTableConfig:
    """Microbenchmark parameters (Section 8.1)."""

    num_records: int = 100_000
    record_bytes: int = 256
    #: Fraction of records resident in compute-local memory.
    local_fraction: float = 0.05
    #: Operations each worker thread performs.
    ops_per_thread: int = 2_000
    #: In-flight cap for pipelined backends (the paper uses batches of
    #: 100 for asynchronous RDMA and Cowbird alike).
    pipeline_depth: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.local_fraction <= 1.0:
            raise ValueError(f"local_fraction out of range: {self.local_fraction}")
        if self.num_records < 1:
            raise ValueError("num_records must be >= 1")


class HashTable:
    """Key -> record placement map for the microbenchmark.

    The first ``local_fraction`` of records live in local memory; the
    rest are laid out contiguously in the remote region.  ``locate`` is
    pure arithmetic so workers can run it cheaply per op (the simulated
    hash cost is charged separately from the cost model).
    """

    def __init__(self, config: HashTableConfig) -> None:
        self.config = config
        self.local_count = int(config.num_records * config.local_fraction)

    def locate(self, key: int) -> tuple[bool, int]:
        """Return (is_local, remote_offset_or_zero) for ``key``."""
        slot = key % self.config.num_records
        if slot < self.local_count:
            return True, 0
        remote_index = slot - self.local_count
        return False, remote_index * self.config.record_bytes

    @property
    def remote_count(self) -> int:
        return self.config.num_records - self.local_count

    def remote_bytes_needed(self) -> int:
        return self.remote_count * self.config.record_bytes


@dataclass
class ProbeResult:
    """Per-thread outcome of one microbenchmark run."""

    thread_name: str
    ops: int = 0
    local_hits: int = 0
    remote_hits: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    comm_cpu_ns: float = 0.0
    app_cpu_ns: float = 0.0
    blocked_ns: float = 0.0

    @property
    def elapsed_ns(self) -> float:
        return self.finished_at - self.started_at

    def mops(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops / self.elapsed_ns * 1_000.0  # ops/ns -> Mops


def probe_worker(
    thread: Thread,
    backend: Backend,
    table: HashTable,
    cost,
    seed: int = 0,
    ops: Optional[int] = None,
) -> Generator[Any, Any, ProbeResult]:
    """One worker thread's probe loop.

    Issues hash probes back to back; remote fetches are pipelined up to
    ``min(backend.pending_limit, config.pipeline_depth)`` outstanding
    operations, and every reaped completion is charged the record-touch
    cost (the application actually looks at the data).
    """
    config = table.config
    total_ops = ops if ops is not None else config.ops_per_thread
    depth = max(1, min(backend.pending_limit, config.pipeline_depth))
    rng = random.Random(seed)
    result = ProbeResult(thread_name=thread.name, started_at=thread.sim.now)
    touch_ns = cost.record_touch_per_byte * config.record_bytes
    inflight = 0

    def reap(tokens: list) -> Generator[Any, Any, None]:
        nonlocal inflight
        for _token in tokens:
            yield from thread.compute(touch_ns, TAG_APP)
        inflight -= len(tokens)

    for _ in range(total_ops):
        key = rng.randrange(config.num_records)
        yield from thread.compute(cost.hash_probe_compute, TAG_APP)
        is_local, offset = table.locate(key)
        result.ops += 1
        if is_local:
            result.local_hits += 1
            yield from thread.compute(touch_ns, TAG_APP)
            continue
        result.remote_hits += 1
        yield from backend.issue_read(thread, offset, config.record_bytes)
        inflight += 1
        tokens = yield from backend.poll_completions(
            thread, max_ret=depth, block=inflight >= depth
        )
        if tokens:
            yield from reap(tokens)
    while inflight > 0:
        tokens = yield from backend.poll_completions(thread, max_ret=depth,
                                                     block=True)
        if tokens:
            yield from reap(tokens)
    result.finished_at = thread.sim.now
    result.comm_cpu_ns = thread.stats.cpu_ns.get("comm", 0.0)
    result.app_cpu_ns = thread.stats.cpu_ns.get("app", 0.0)
    result.blocked_ns = thread.stats.blocked_ns
    thread.finish()
    return result
