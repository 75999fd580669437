#!/usr/bin/env python3
"""Cowbird-P4 under packet loss: Go-Back-N recovery in action.

Injects random packet loss on every link and drives reads and writes
through the switch offload engine.  The protocol recovers via data-plane
timeouts and Go-Back-N re-execution (Section 5.3) — every operation
still completes with the right bytes (the example checks them, and exits
non-zero if one does not), and the engine's counters show how much
recovery work the loss cost.  Each link draws its losses from its own
seeded stream.

Run:  python examples/lossy_network.py
"""

from repro.cowbird.deploy import deploy_cowbird
from repro.cowbird.p4_engine import P4EngineConfig
from repro.sim.network import FaultInjector


def main() -> None:
    for drop_rate in (0.0, 0.01, 0.05):
        injector = FaultInjector(seed=42, drop_rate=drop_rate)
        dep = deploy_cowbird(
            engine="p4",
            fault_injector=injector,
            p4_config=P4EngineConfig(timeout_ns=100_000),
        )
        instance = dep.instances[0]
        thread = dep.compute.cpu.thread()
        n = 30

        reads = []

        def app():
            poll = instance.poll_create()
            for i in range(n):
                if i % 3 == 0:
                    request_id = yield from instance.async_write(
                        thread, 0, i * 64, bytes([i]) * 64
                    )
                else:
                    request_id = yield from instance.async_read(
                        thread, 0, i * 64, 64
                    )
                    reads.append(request_id)
                instance.poll_add(poll, request_id)
            done = 0
            while done < n:
                events = yield from instance.poll_wait(thread, poll, max_ret=32)
                done += len(events)

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=30e9)
        # Reads cover slots no write touches, so they must return zeros;
        # every write must have landed in the memory pool.
        pool = dep.pool_region()
        correct = sum(instance.fetch_response(r) == bytes(64) for r in reads) + sum(
            pool.read(dep.region.translate(i * 64), 64) == bytes([i]) * 64
            for i in range(0, n, 3)
        )
        stats = dep.engine.stats
        if correct != n or stats.ops_failed:
            raise SystemExit(
                f"drop={drop_rate:.0%}: {correct}/{n} correct, "
                f"{stats.ops_failed} failed"
            )
        print(
            f"drop={drop_rate:5.0%}  correct={correct}/{n}  "
            f"dropped_packets={injector.dropped:4d}  "
            f"go_back_n_events={stats.go_back_n_events:3d}  "
            f"time={dep.sim.now / 1000:8.1f} us"
        )
    print("\nEvery run completes all operations: Go-Back-N pays latency,")
    print("never correctness.")


if __name__ == "__main__":
    main()
