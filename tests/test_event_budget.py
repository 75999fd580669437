"""Host events per simulated op: a deterministic, host-independent guard.

Packets on lossless links cost one event per hop (their delivery), the
switch's forwarding and the NIC's receive processing cost none, and a
thread that finds a free core goes on computing without a same-instant
hop.  One tiny fixed hash-table round per Cowbird engine must stay
within these budgets; the per-event model spent about 25.5 events per op
on both.
"""

import pytest

from repro.experiments.common import build_microbench, drive_probe_workload
from repro.sim.cpu import CostModel
from repro.sim.network import FaultInjector
from repro.workloads.hashtable import HashTable, HashTableConfig

#: Measured 11.67 (cowbird-p4) and 14.30 (cowbird) events per op.
BUDGETS = {"cowbird-p4": 12.0, "cowbird": 14.5}


def probe_round(system):
    """The fixed round: 4 threads × 200 probes of 64 B records.

    Returns the deployment and a callable that runs the round and
    returns its result.
    """
    cost = CostModel()
    table = HashTable(HashTableConfig(
        num_records=10_000, record_bytes=64, ops_per_thread=200, pipeline_depth=64,
    ))
    deployment = build_microbench(
        system, 4, remote_bytes=max(table.remote_bytes_needed(), 1 << 16),
        cost=cost, seed=1, pipeline_depth=64,
    )
    return deployment, lambda: drive_probe_workload(deployment, table, cost, seed=1)


@pytest.mark.parametrize("system", sorted(BUDGETS))
def test_events_per_op_within_budget(system):
    deployment, drive = probe_round(system)
    result = drive()
    assert result.total_ops == 800
    events_per_op = deployment.sim.events_dispatched / result.total_ops
    assert events_per_op <= BUDGETS[system]


@pytest.mark.parametrize("system", sorted(BUDGETS))
def test_zero_drop_injector_costs_no_events(system):
    """A link with a fault injector that drops nothing runs the same
    model as a lossless one: the same events, ending at the same time."""
    lossless, drive = probe_round(system)
    drive()
    lossy, drive = probe_round(system)
    injector = FaultInjector(seed=1, drop_rate=0.0)
    for host in lossy.bed.hosts.values():
        host.uplink.fault_injector = injector
        host.downlink.fault_injector = injector
    drive()
    assert lossy.sim.events_dispatched == lossless.sim.events_dispatched
    assert lossy.sim.now == lossless.sim.now
    assert injector.dropped == 0
