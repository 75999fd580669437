#!/usr/bin/env python3
"""Tour of the telemetry layer: metrics, spans, and trace export.

Activates a :class:`~repro.telemetry.Telemetry` instance, runs a few
reads through a Cowbird-Spot deployment built inside the activation
scope, and then inspects what was recorded:

  1. hierarchical counters/gauges (NIC posts, link bytes, QP windows),
  2. the engine's request-latency histogram,
  3. span-tracing totals per name (verbs, link serialization, engine
     batches), all timestamped on the *simulated* clock,
  4. a Chrome ``trace_event`` export you can open in Perfetto
     (https://ui.perfetto.dev) to see the run on a timeline.

Telemetry is a pure observer: running this with the telemetry removed
produces byte-identical simulation results.

Run:  python examples/telemetry_tour.py
"""

import tempfile

from repro import telemetry
from repro.experiments.common import build_microbench


def main() -> None:
    tel = telemetry.Telemetry()
    with telemetry.activate(tel):
        dep = build_microbench("cowbird", 1, remote_bytes=1 << 16)
        instance = dep.instances[0]
        thread = dep.compute.cpu.thread("app")
        for i in range(8):
            dep.pool_region().write(
                dep.region.translate(i * 64), f"record-{i}".encode().ljust(64)
            )

        def app():
            poll = instance.poll_create()
            for i in range(8):
                request_id = yield from instance.async_read(
                    thread, 0, i * 64, 64
                )
                instance.poll_add(poll, request_id)
            done = 0
            while done < 8:
                events = yield from instance.poll_wait(thread, poll, max_ret=8)
                done += len(events)

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=50_000_000)

    print("== counters and gauges (hierarchical dotted names)\n")
    for name, value in sorted(tel.snapshot("nic.compute.").items()):
        print(f"  {name} = {value}")
    links = tel.snapshot("link.")
    for name in sorted(links):
        if name.endswith(".bytes_sent"):
            print(f"  {name} = {links[name]}")

    print("\n== the agent's request-latency histogram\n")
    hist = tel.metrics.histogram("spot.request_latency_ns")
    print(f"  count={hist.count}  mean={hist.mean():.0f}ns  max={hist.max:.0f}ns")
    for bound, bucket in zip(hist.bounds, hist.bucket_counts):
        if bucket:
            print(f"  <= {bound:>12.0f} ns : {'#' * bucket} ({bucket})")

    print("\n== span totals (sim-clock intervals)\n")
    for name, count in sorted(tel.tracer.span_names().items()):
        print(f"  {name:<18s} x{count}")
    print(f"\n  last event ends at sim t={tel.tracer.last_timestamp_ns():.0f}ns")

    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", prefix="telemetry_tour_", delete=False
    ) as handle:
        tel.write_chrome_trace(handle)
        print(f"\nchrome trace written to {handle.name} (open in Perfetto)")


if __name__ == "__main__":
    main()
