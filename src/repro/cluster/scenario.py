"""Build and run deployments described by :class:`ScenarioSpec`.

This is the execution half of the declarative layer: a validated spec
becomes one :func:`~repro.experiments.common.build_microbench` call
(the spec's link parameters, compute-host shape, sharded pools and
engine-config overrides, with the system resolved through the
registry) and then runs the same Section 8.1 probe workload the
figures use, so a scenario that mirrors a figure point reproduces its
numbers exactly.

Kept out of ``repro.cluster.__init__``: this module imports the
experiment harness, which itself builds through the cluster registry.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.spec import ScenarioSpec
from repro.sim.cpu import CostModel

__all__ = ["build_scenario", "run_scenario"]


def _make_table(spec: ScenarioSpec):
    from repro.workloads.hashtable import HashTable, HashTableConfig

    wl = spec.workload
    return HashTable(
        HashTableConfig(
            num_records=wl.num_records,
            record_bytes=wl.record_bytes,
            local_fraction=wl.local_fraction,
            ops_per_thread=wl.ops_per_thread,
            pipeline_depth=wl.pipeline_depth,
        )
    )


def build_scenario(
    spec: ScenarioSpec,
    cost: Optional[CostModel] = None,
    remote_bytes: Optional[int] = None,
):
    """Assemble the deployment a spec describes (without running it)."""
    from repro.experiments.common import build_microbench

    spec.validate()
    if remote_bytes is None:
        remote_bytes = max(_make_table(spec).remote_bytes_needed(), 1 << 16)
    return build_microbench(
        spec.system, spec.workload.threads, remote_bytes=remote_bytes,
        cost=cost, pipeline_depth=spec.workload.pipeline_depth,
        pool_shards=spec.pool.shards, engine_config=dict(spec.engine.config),
        compute_cores=spec.compute.cpu_cores, compute_smt=spec.compute.smt,
        bandwidth_gbps=spec.link.bandwidth_gbps,
        propagation_delay_ns=spec.link.propagation_delay_ns,
    )


def run_scenario(
    spec: ScenarioSpec,
    cost: Optional[CostModel] = None,
    deadline_ns: float = 60e9,
):
    """Run a scenario end-to-end; returns a ``MicrobenchResult``."""
    from repro.experiments.common import drive_probe_workload

    cost = cost or CostModel()
    table = _make_table(spec)
    remote_bytes = max(table.remote_bytes_needed(), 1 << 16)
    deployment = build_scenario(spec, cost=cost, remote_bytes=remote_bytes)
    return drive_probe_workload(
        deployment, table, cost, seed=spec.seed, deadline_ns=deadline_ns
    )
