#!/usr/bin/env python3
"""Watch the Cowbird-P4 protocol on the wire, packet by packet.

Attaches a packet sniffer to the compute node and memory pool, runs one
asynchronous read through the switch offload engine, and prints the
resulting RoCEv2 trace.  You can see the whole Section 5.2 sequence:

  1. the switch's low-priority probe (READ of the green block),
  2. the recycled metadata fetch (READ of the request ring),
  3. the Execute-phase read of the memory pool,
  4. the spoofed WRITE delivering the payload to the compute node,
  5. the Phase IV bookkeeping WRITE (red block update).

Run:  python examples/protocol_trace.py
"""

from repro.experiments.common import build_microbench
from repro.rdma.sniffer import PacketSniffer


def main() -> None:
    dep = build_microbench("cowbird-p4", 1, remote_bytes=1 << 16)
    sniffer = PacketSniffer(dep.sim)
    sniffer.attach_nic(dep.compute.nic, "rx@compute")
    sniffer.attach_nic(dep.pool_host.nic, "rx@pool")

    instance = dep.instances[0]
    thread = dep.compute.cpu.thread("app")
    dep.pool_region().write(dep.region.translate(256), b"the payload bytes")

    def app():
        poll = instance.poll_create()
        request_id = yield from instance.async_read(thread, 0, 256, 17)
        instance.poll_add(poll, request_id)
        events = yield from instance.poll_wait(thread, poll)
        return instance.fetch_response(events[0].request_id)

    data = dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=50_000_000)

    print("wire trace (RoCEv2 packets as delivered):\n")
    print(sniffer.render(limit=20))
    print(f"\nread returned: {data!r}")
    print("\nopcode totals:", dict(sorted(sniffer.opcode_counts().items())))
    stats = dep.engine.stats
    print(f"packets recycled by the switch: {stats.recycled_packets}")
    print(f"probes sent: {stats.probes_sent}")


if __name__ == "__main__":
    main()
