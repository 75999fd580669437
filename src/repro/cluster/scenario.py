"""Build and run deployments described by :class:`ScenarioSpec`.

This is the execution half of the declarative layer: a validated spec
becomes one :func:`~repro.experiments.common.run_microbench` call, the
figures' own Section 8.1 probe run, with the spec's link parameters,
compute-host shape, sharded pools and engine-config overrides passed
on to :func:`~repro.experiments.common.build_microbench`; so a scenario
that mirrors a figure point reproduces its numbers exactly.

Kept out of ``repro.cluster.__init__``: this module imports the
experiment harness, which itself builds through the cluster registry.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.spec import ScenarioSpec
from repro.sim.cpu import CostModel

__all__ = ["build_scenario", "run_scenario"]


def _workload(spec: ScenarioSpec) -> dict:
    """The spec's probe workload, as ``run_microbench`` takes it."""
    wl = spec.workload
    return dict(
        num_records=wl.num_records, record_bytes=wl.record_bytes,
        local_fraction=wl.local_fraction, ops_per_thread=wl.ops_per_thread,
        pipeline_depth=wl.pipeline_depth,
    )


def _build_options(spec: ScenarioSpec) -> dict:
    """The spec's deployment shape, as ``build_microbench`` takes it."""
    return dict(
        pool_shards=spec.pool.shards, engine_config=dict(spec.engine.config),
        compute_cores=spec.compute.cpu_cores, compute_smt=spec.compute.smt,
        bandwidth_gbps=spec.link.bandwidth_gbps,
        propagation_delay_ns=spec.link.propagation_delay_ns,
    )


def build_scenario(spec: ScenarioSpec, cost: Optional[CostModel] = None):
    """Assemble the deployment a spec describes (without running it)."""
    from repro.experiments.common import build_microbench, probe_table

    spec.validate()
    _table, remote_bytes = probe_table(**_workload(spec))
    return build_microbench(
        spec.system, spec.workload.threads, remote_bytes=remote_bytes,
        cost=cost, pipeline_depth=spec.workload.pipeline_depth,
        **_build_options(spec),
    )


def run_scenario(
    spec: ScenarioSpec,
    cost: Optional[CostModel] = None,
    deadline_ns: float = 60e9,
):
    """Run a scenario end-to-end; returns a ``MicrobenchResult``."""
    from repro.experiments.common import run_microbench

    spec.validate()
    return run_microbench(
        spec.system, spec.workload.threads, cost=cost, seed=spec.seed,
        deadline_ns=deadline_ns, **_workload(spec), **_build_options(spec),
    )
