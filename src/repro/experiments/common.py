"""Shared experiment scaffolding: system builders and runners.

``build_microbench`` assembles a complete simulated deployment of one
system-under-test (testbed, hosts, QPs/engines, per-thread backends);
``run_microbench`` drives the Section 8.1 hash-table probe loop on it
and aggregates per-thread results.

Systems are resolved through the :data:`repro.cluster.SYSTEMS` registry
— each legend entry registers a builder in ``repro.cluster.builders``,
so adding a system never touches this module.  The supported systems
mirror the evaluation's legend entries:

================  =====================================================
``local``          purely local memory (upper bound)
``two-sided``      synchronous two-sided RDMA RPC
``one-sided``      synchronous one-sided RDMA
``async``          asynchronous one-sided RDMA (batch 100)
``cowbird-nb``     Cowbird-Spot with batching disabled
``cowbird``        Cowbird-Spot (BATCH_SIZE=100)
``cowbird-p4``     Cowbird-P4 (switch offload engine)
``redy``           Redy (pinned I/O cores)
``aifm``           AIFM (Shenango green threads + IOKernel)
``ssd``            local SATA SSD
================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster import SYSTEMS, BuildContext, MicrobenchDeployment
from repro.cowbird.api import CowbirdConfig
from repro.sim.cpu import CostModel
from repro.sim.network import FaultInjector
from repro.sim.trace import mops
from repro.testbed import Testbed
from repro.workloads.hashtable import HashTable, HashTableConfig, probe_worker

__all__ = [
    "MICROBENCH_SYSTEMS",
    "MicrobenchDeployment",
    "MicrobenchResult",
    "build_microbench",
    "run_microbench",
]

#: Legend order comes straight from the registry (registration order).
MICROBENCH_SYSTEMS = SYSTEMS.names()

#: Compute-node shape from Section 7: Xeon Silver 4110, 8 cores + HT.
COMPUTE_CORES = 8
COMPUTE_SMT = 2


@dataclass
class MicrobenchResult:
    """Aggregated outcome of one (system, threads) microbenchmark run."""

    system: str
    threads: int
    record_bytes: int
    total_ops: int = 0
    elapsed_ns: float = 0.0
    throughput_mops: float = 0.0
    comm_cpu_ns: float = 0.0
    app_cpu_ns: float = 0.0
    blocked_ns: float = 0.0
    per_thread_mops: list[float] = field(default_factory=list)

    @property
    def communication_ratio(self) -> float:
        total = self.comm_cpu_ns + self.app_cpu_ns + self.blocked_ns
        if total <= 0:
            return 0.0
        return (self.comm_cpu_ns + self.blocked_ns) / total


def build_microbench(
    system: str,
    threads: int,
    remote_bytes: int = 1 << 22,
    cost: Optional[CostModel] = None,
    seed: int = 0,
    pipeline_depth: int = 100,
    pool_shards: int = 1,
    engine_config: Optional[dict] = None,
    cowbird_config: Optional[CowbirdConfig] = None,
    fault_injector: Optional[FaultInjector] = None,
    compute_cores: int = COMPUTE_CORES,
    compute_smt: int = COMPUTE_SMT,
    bandwidth_gbps: Optional[float] = None,
    propagation_delay_ns: Optional[float] = None,
) -> MicrobenchDeployment:
    """Assemble one system-under-test with ``threads`` worker backends.

    This is the one way to build a testbed for a registered system:
    figures, scenarios, tests and examples all come through here.
    ``engine_config`` overrides fields of the Cowbird engine's config,
    ``cowbird_config`` sizes the client's rings, ``fault_injector``
    drops packets on every link, and ``bandwidth_gbps`` /
    ``propagation_delay_ns`` override the cost model's links.  The
    build draws nothing at random: ``seed`` is accepted for callers
    that pass their round's seed, and reaches nothing.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS.names()}")
    cost = cost or CostModel()
    bed = Testbed(
        cost=cost, bandwidth_gbps=bandwidth_gbps,
        propagation_delay_ns=propagation_delay_ns, fault_injector=fault_injector,
    )
    compute = bed.add_host("compute", cpu_cores=compute_cores, smt=compute_smt)
    return SYSTEMS.build(
        system,
        BuildContext(
            system=system, bed=bed, compute=compute, threads=threads,
            remote_bytes=remote_bytes, cost=cost,
            pipeline_depth=pipeline_depth, pool_shards=pool_shards,
            engine_config=engine_config or {}, cowbird_config=cowbird_config,
        ),
    )


def drive_probe_workload(
    deployment: MicrobenchDeployment,
    table: HashTable,
    cost: CostModel,
    seed: int = 0,
    deadline_ns: float = 60e9,
) -> MicrobenchResult:
    """Run the hash-table probe loop on an assembled deployment.

    Shared by ``run_microbench`` and the scenario runner: spawns one
    ``probe_worker`` per backend, waits for all of them, closes the
    deployment, and aggregates per-thread results.
    """
    sim = deployment.sim
    threads = len(deployment.backends)
    processes = []
    for i in range(threads):
        thread = deployment.compute.cpu.thread(f"worker-{i}")
        backend = deployment.backends[i]
        processes.append(
            sim.spawn(
                probe_worker(thread, backend, table, cost, seed=seed * 1000 + i),
                name=f"worker-{i}",
            )
        )
    results = [
        sim.run_until_complete(process, deadline=deadline_ns) for process in processes
    ]
    deployment.close()
    started = min(r.started_at for r in results)
    finished = max(r.finished_at for r in results)
    aggregate = MicrobenchResult(
        system=deployment.system, threads=threads,
        record_bytes=table.config.record_bytes,
        total_ops=sum(r.ops for r in results),
        elapsed_ns=finished - started,
        comm_cpu_ns=sum(r.comm_cpu_ns for r in results),
        app_cpu_ns=sum(r.app_cpu_ns for r in results),
        blocked_ns=sum(r.blocked_ns for r in results),
        per_thread_mops=[r.mops() for r in results],
    )
    aggregate.throughput_mops = mops(aggregate.total_ops, aggregate.elapsed_ns)
    tel = sim.telemetry
    if tel.enabled:
        system = deployment.system
        tel.complete(
            "bench.microbench", started, finished,
            process="bench", track=system,
            threads=threads, record_bytes=table.config.record_bytes,
            total_ops=aggregate.total_ops,
        )
        tel.gauge(f"bench.{system}.throughput_mops").set(
            aggregate.throughput_mops
        )
        tel.counter(f"bench.{system}.ops").inc(aggregate.total_ops)
        if sim.sanitizer is not None:
            # Event-stream checksum (post-drain): merged snapshots must
            # carry identical digests for any --parallel fan-out.
            tel.gauge("sim.digest").set(sim.sanitizer.digest.as_int())
    return aggregate


def run_microbench(
    system: str,
    threads: int,
    record_bytes: int = 256,
    ops_per_thread: int = 1_000,
    num_records: int = 100_000,
    local_fraction: float = 0.05,
    pipeline_depth: int = 100,
    cost: Optional[CostModel] = None,
    seed: int = 0,
    deadline_ns: float = 60e9,
) -> MicrobenchResult:
    """Run the Section 8.1 hash-table microbenchmark for one system."""
    cost = cost or CostModel()
    table = HashTable(
        HashTableConfig(
            num_records=num_records,
            record_bytes=record_bytes,
            local_fraction=local_fraction,
            ops_per_thread=ops_per_thread,
            pipeline_depth=pipeline_depth,
        )
    )
    remote_bytes = max(table.remote_bytes_needed(), 1 << 16)
    deployment = build_microbench(
        system, threads, remote_bytes=remote_bytes, cost=cost, seed=seed,
        pipeline_depth=pipeline_depth,
    )
    return drive_probe_workload(
        deployment, table, cost, seed=seed, deadline_ns=deadline_ns
    )
