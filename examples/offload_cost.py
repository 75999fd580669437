#!/usr/bin/env python3
"""The economics: what offloading disaggregation is worth (Table 1).

Combines the paper's Table 1 spot prices with the measured engine
footprint: one spot core services all application threads, and one
engine can multiplex several compute nodes (Section 5.4's TDM).  The
output shows the net cost-efficiency gain per provider.

Run:  python examples/offload_cost.py
"""

from repro.cloud.pricing import (
    PRICE_TABLE,
    cost_efficiency_gain,
    format_table,
    offload_cost_per_compute_node,
)
from repro.experiments.common import build_microbench


def measure_engine_utilization() -> float:
    """Run a burst of traffic and measure the spot core's duty cycle."""
    dep = build_microbench("cowbird", 1)
    instance = dep.instances[0]
    thread = dep.compute.cpu.thread()

    def app():
        poll = instance.poll_create()
        for i in range(200):
            request_id = yield from instance.async_read(thread, 0, (i % 128) * 64, 64)
            instance.poll_add(poll, request_id)
        done = 0
        while done < 200:
            events = yield from instance.poll_wait(thread, poll, max_ret=64)
            done += len(events)

    dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=30e9)
    return dep.engine.agent_cpu_ns() / dep.sim.now


def main() -> None:
    print(format_table())
    utilization = measure_engine_utilization()
    print(f"\nMeasured agent-core duty cycle for one busy instance: "
          f"{utilization:.0%}")
    print("\nCost-efficiency gain of offloading (freeing ~80% of 8 compute "
          "cores\nfor one spot core), by compute nodes sharing the agent:")
    print(f"{'provider':>10s}{'1 node':>10s}{'4 nodes':>10s}{'agent $/h/node':>17s}")
    for price in PRICE_TABLE:
        one = cost_efficiency_gain(price, compute_nodes_served=1)
        four = cost_efficiency_gain(price, compute_nodes_served=4)
        hourly = offload_cost_per_compute_node(price, compute_nodes_served=4)
        print(f"{price.provider:>10s}{one:>10.0%}{four:>10.0%}{hourly:>15.5f}$")


if __name__ == "__main__":
    main()
