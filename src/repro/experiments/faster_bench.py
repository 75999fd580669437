"""FASTER-on-YCSB experiment scaffolding (Figures 9, 10, 11).

Builds a FASTER store whose cold log spills through one of the storage
backends (SSD / one-sided RDMA / Cowbird / local memory / Redy), loads a
scaled-down YCSB database, and drives N worker threads.

Scaling note (DESIGN.md #5): the paper's databases are 18–24 GB with a
5 GB in-memory log budget; we keep the *ratios* (≈25 % of the log in
memory) at a few MB so a discrete-event simulation finishes in seconds.
Throughput comparisons are unaffected because every cost in the model is
per-operation or per-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.baselines.backends import Backend
from repro.experiments.common import MicrobenchDeployment, build_microbench
from repro.faster.hybridlog import HybridLogConfig
from repro.faster.store import FasterConfig, FasterKv
from repro.sim.cpu import CostModel, Thread
from repro.sim.trace import mops
from repro.workloads.ycsb import YcsbConfig, YcsbOp, YcsbWorkload

__all__ = ["FasterBenchResult", "FASTER_SYSTEMS", "run_faster_bench", "ycsb_worker"]

#: Storage backends the FASTER comparison covers (Figure 9's legend).
FASTER_SYSTEMS = (
    "ssd", "one-sided", "async", "cowbird-p4", "cowbird", "local", "redy",
)


@dataclass
class FasterBenchResult:
    system: str
    threads: int
    value_bytes: int
    total_ops: int = 0
    elapsed_ns: float = 0.0
    throughput_mops: float = 0.0
    comm_cpu_ns: float = 0.0
    app_cpu_ns: float = 0.0
    blocked_ns: float = 0.0
    reads_memory: int = 0
    reads_device: int = 0
    #: Redy at 16 threads has no cores left for I/O threads (Figure 11).
    out_of_cores: bool = False

    @property
    def communication_ratio(self) -> float:
        total = self.comm_cpu_ns + self.app_cpu_ns + self.blocked_ns
        if total <= 0:
            return 0.0
        return (self.comm_cpu_ns + self.blocked_ns) / total

    @property
    def device_fraction(self) -> float:
        total = self.reads_memory + self.reads_device
        return self.reads_device / total if total else 0.0


def ycsb_worker(
    thread: Thread,
    store: FasterKv,
    device: Backend,
    workload: YcsbWorkload,
    ops: int,
    depth: int = 64,
) -> Generator[Any, Any, dict]:
    """One FASTER thread: issue ops, pipeline device reads, reap.

    Mirrors the paper's integration: issue with ``async_read``-style
    calls, register in a notification group (here: the token map), and
    periodically complete pending requests.
    """
    issued = 0
    inflight = 0
    finished = 0
    started_at = thread.sim.now

    def reap(block: bool) -> Generator[Any, Any, None]:
        nonlocal inflight, finished
        tokens = yield from device.poll_completions(thread, max_ret=depth, block=block)
        done_keys = yield from store.complete(thread, tokens)
        finished += len(done_keys)
        inflight -= len(tokens)

    for op, key in workload.ops(ops):
        if op is YcsbOp.READ:
            outcome = yield from store.start_read(thread, key, device=device)
            issued += 1
            if outcome.source == "device":
                inflight += 1
        else:
            value = workload.value_for(key)
            flushes = yield from store.upsert(thread, key, value, device=device)
            issued += 1
            inflight += flushes  # this thread's eviction writes
        if inflight >= depth:
            yield from reap(block=True)
        elif inflight:
            yield from reap(block=False)
    while inflight > 0:
        yield from reap(block=True)
    thread.finish()
    return {
        "ops": issued,
        "started_at": started_at,
        "finished_at": thread.sim.now,
        "comm": thread.stats.cpu_ns.get("comm", 0.0),
        "app": thread.stats.cpu_ns.get("app", 0.0),
        "blocked": thread.stats.blocked_ns,
    }


def _log_config_for(
    total_records: int, record_bytes: int, memory_fraction: float
) -> HybridLogConfig:
    """Size the in-memory page budget to the paper's memory ratio."""
    total_bytes = total_records * record_bytes
    config = HybridLogConfig(page_bits=14)  # 16 KB pages at this scale
    pages_total = max(4, total_bytes // config.page_bytes)
    config.memory_pages = max(2, int(pages_total * memory_fraction))
    return config


def run_faster_bench(
    system: str,
    threads: int,
    value_bytes: int = 64,
    record_count: int = 40_000,
    ops_per_thread: int = 400,
    distribution: str = "zipfian",
    memory_fraction: float = 0.25,
    pipeline_depth: int = 64,
    cost: Optional[CostModel] = None,
    seed: int = 9,
    deadline_ns: float = 300e9,
) -> FasterBenchResult:
    """Run FASTER+YCSB on one storage backend at one thread count."""
    cost = cost or CostModel()
    ycsb = YcsbConfig(
        record_count=record_count, value_bytes=value_bytes,
        distribution=distribution, seed=seed,
    )
    faster_config = FasterConfig(
        value_bytes=value_bytes,
        log=_log_config_for(record_count, ycsb.record_bytes, memory_fraction),
    )
    # Redy steals compute cores for I/O threads; with all 16 hardware
    # threads given to FASTER there is nowhere to pin them (Figure 11).
    out_of_cores = system == "redy" and threads >= 16
    if out_of_cores:
        return FasterBenchResult(
            system=system, threads=threads, value_bytes=value_bytes,
            out_of_cores=True,
        )
    remote_bytes = record_count * faster_config.record_bytes * 2 + (1 << 20)
    deployment = build_microbench(
        system, threads, remote_bytes=remote_bytes, cost=cost, seed=seed,
        pipeline_depth=pipeline_depth,
    )
    # One store shared by all threads; each thread has its own device
    # channel (instance/QP), exactly like the paper's IDevice port.
    store = FasterKv(deployment.backends[0], cost, faster_config)
    load_backing(deployment, store)
    store.load(range(record_count), YcsbWorkload(ycsb, worker_seed=0).value_for)
    sim = deployment.sim
    processes = []
    for i in range(threads):
        thread = deployment.compute.cpu.thread(f"faster-{i}")
        workload = YcsbWorkload(ycsb, worker_seed=i + 1)
        processes.append(
            sim.spawn(
                ycsb_worker(
                    thread, store, deployment.backends[i], workload,
                    ops_per_thread, depth=pipeline_depth,
                ),
                name=f"faster-{i}",
            )
        )
    results = [
        sim.run_until_complete(process, deadline=deadline_ns)
        for process in processes
    ]
    deployment.close()
    started = min(r["started_at"] for r in results)
    finished = max(r["finished_at"] for r in results)
    outcome = FasterBenchResult(
        system=system, threads=threads, value_bytes=value_bytes,
        total_ops=sum(r["ops"] for r in results),
        elapsed_ns=finished - started,
        comm_cpu_ns=sum(r["comm"] for r in results),
        app_cpu_ns=sum(r["app"] for r in results),
        blocked_ns=sum(r["blocked"] for r in results),
        reads_memory=store.stats_reads_memory,
        reads_device=store.stats_reads_device,
    )
    outcome.throughput_mops = mops(outcome.total_ops, outcome.elapsed_ns)
    return outcome


def load_backing(deployment: MicrobenchDeployment, store: FasterKv) -> None:
    """Wire the store's cold-page backing writes into the deployment.

    For RDMA/Cowbird systems cold pages live in the pool region, and the
    pages a bulk load spills are deferred there as one span: a read makes
    only the records it returns, and a page is packed and written into the
    region only when a write changes part of it.  The SSD needs nothing
    here: the store writes cold pages into its buffer through the device's
    own ``backing_write``, page by page.  Local memory never evicts (the
    log's page budget is effectively infinite there).
    """
    system = deployment.system
    if system == "local":
        store.log.config.memory_pages = 1 << 30  # never evict
        return
    if system == "ssd":
        return
    backend0 = deployment.backends[0]
    # Network systems: cold pages land in the pool region.
    if system.startswith("cowbird"):
        handle = backend0.instance.remote_regions[0]
    else:
        handle = backend0.region
    pool_region = deployment.pool_host.registry.by_rkey(handle.rkey)

    page_bytes = store.log.config.page_bytes

    def backing_write(offset: int, data: bytes) -> None:
        pool_region.write(handle.translate(offset, len(data)), data)

    def defer_cold_pages(offset: int, count: int, fill) -> None:
        addr = handle.translate(offset, count * page_bytes)
        pool_region.defer(addr, page_bytes, count, fill)

    store._store_cold_page = backing_write
    store._defer_cold_pages = defer_cold_pages
