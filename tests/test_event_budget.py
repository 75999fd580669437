"""The fixed probe round both host-work guards run, and what a lossless
injector costs on it.

Packets on lossless links cost one event per hop (their delivery), and a
link with a fault injector runs the same model: an injector that drops
nothing must leave a run's events and end time as they are without it.
``tests/test_call_budget.py`` bounds the Python calls per op on this
round; ``tests/test_simbench_counts.py`` pins the events per op of the
benchmark's own workloads.
"""

import pytest

from repro.experiments.common import build_microbench, drive_probe_workload
from repro.sim.cpu import CostModel
from repro.sim.network import FaultInjector
from repro.workloads.hashtable import HashTable, HashTableConfig

SYSTEMS = ("cowbird", "cowbird-p4")


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


@pytest.mark.parametrize("system", SYSTEMS)
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
