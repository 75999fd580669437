#!/usr/bin/env python3
"""Quickstart: read and write disaggregated memory through Cowbird.

Stands up the full simulated testbed — a compute node, a memory pool,
and a spot-VM offload engine — then issues asynchronous reads and writes
with the Table 2 API.  Note what the output shows: the compute node's
NIC initiates *zero* RDMA messages, and the per-operation CPU cost on
the application thread is tens of nanoseconds.

Run:  python examples/quickstart.py
"""

from repro.experiments.common import build_microbench


def main() -> None:
    # One call builds the Section 7 testbed and starts the offload
    # engine ("spot" = the Section 6 agent; try engine="p4" too).
    dep = build_microbench("cowbird", 1, remote_bytes=1 << 20)
    sim = dep.sim
    instance = dep.instances[0]
    thread = dep.compute.cpu.thread("app")

    # Seed some remote memory directly (as an already-running producer
    # would have): offset 4096 in remote region 0.
    dep.pool_region().write(dep.region.translate(4096), b"hello from the pool!")

    def app():
        poll = instance.poll_create()

        # --- asynchronous read: purely local stores, returns a req id.
        read_id = yield from instance.async_read(
            thread, region_id=0, src_offset=4096, length=20
        )
        instance.poll_add(poll, read_id)

        # --- asynchronous write of a payload to remote offset 8192.
        write_id = yield from instance.async_write(
            thread, region_id=0, dest_offset=8192,
            data=b"written via cowbird",
        )
        instance.poll_add(poll, write_id)

        # --- epoll-style completion wait.
        done = 0
        while done < 2:
            events = yield from instance.poll_wait(thread, poll, max_ret=4)
            done += len(events)

        return instance.fetch_response(read_id)

    process = sim.spawn(app())
    payload = sim.run_until_complete(process, deadline=50_000_000)

    print(f"read returned:        {payload!r}")
    print(
        "write visible in pool:",
        dep.pool_region().read(dep.region.translate(8192), 19),
    )
    print(f"simulated time:       {sim.now / 1000:.1f} us")
    print(f"compute-side RDMA messages: {dep.compute.nic.stats.messages_initiated}")
    comm_ns = thread.stats.cpu_ns.get("comm", 0.0)
    print(f"app-thread communication CPU: {comm_ns:.0f} ns total "
          f"({comm_ns / 2:.0f} ns per operation)")
    print(f"offload-engine CPU consumed:  {dep.engine.agent_cpu_ns():.0f} ns")


if __name__ == "__main__":
    main()
