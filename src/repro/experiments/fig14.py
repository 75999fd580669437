"""Figure 14: bandwidth of contending TCP flows under Cowbird traffic.

Ten iperf3-style TCP flows run from the compute node toward a third
server with a 25 Gb/s NIC while Cowbird serves 512 B records for 1..8
application threads.  As the paper's worst case, Cowbird's RDMA packets
ride a *higher* priority class than the user traffic.

Where the interference happens: the compute node's egress segment is
shared between TCP data and Cowbird's host-bound protocol traffic (ACKs
for every spoofed write, probe and metadata responses).  Cowbird-P4
sends no batched responses, so every record costs several small
high-priority packets on that segment and TCP loses up to ~30 % of its
bandwidth; Cowbird-Spot amortizes the same traffic across 100-record
batches and its footprint is negligible.  We surface the contention by
capping the shared egress segment at the TCP path's 25 Gb/s (the
paper's third server has a 25 Gb/s NIC) — see DESIGN.md substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import build_microbench
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.sim.cpu import CostModel
from repro.sim.network import PRIORITY_HIGH, PRIORITY_NORMAL
from repro.sim.tcp import TcpAckDemux, TcpFlow, TcpSink
from repro.workloads.hashtable import HashTable, HashTableConfig, probe_worker

__all__ = ["Fig14Row", "SYSTEMS", "measure_contention_point", "run"]

SYSTEMS = ("cowbird-p4", "cowbird", "none")
THREAD_COUNTS = (1, 2, 4, 8)
RECORD_BYTES = 512
TCP_FLOWS = 10
SINK_BANDWIDTH_GBPS = 25.0
#: Per-packet cost at the compute NIC's packet engine.
PACKET_ENGINE_NS = 10.0


@dataclass
class Fig14Row:
    system: str
    threads: int
    tcp_gbps: float
    cowbird_mops: float


def _wire_tcp(deployment, sim) -> tuple[list[TcpFlow], TcpSink]:
    """Attach the third server and start the ten contending flows."""
    bed = deployment.bed
    sink_host = bed.add_host("sink", bandwidth_gbps=SINK_BANDWIDTH_GBPS)
    sink = TcpSink(sim, "sink")
    demux = TcpAckDemux()
    sink_host.add_protocol_handler(
        lambda packet, link: sink.receive(packet, link)
    )
    deployment.compute.add_protocol_handler(
        lambda packet, link: demux.receive(packet, link)
    )
    sink.ack_link = sink_host.uplink
    compute_uplink = deployment.compute.uplink
    flows = []
    for _ in range(TCP_FLOWS):
        # GSO/TSO-sized segments, as an iperf3 sender would produce.
        flow = TcpFlow(
            sim, "compute", "sink", compute_uplink,
            segment_bytes=9000, window=16, priority=PRIORITY_NORMAL,
        )
        demux.register_flow(flow)
        sink.register_flow(flow)
        flows.append(flow)
    return flows, sink


def measure_contention_point(
    system: str, threads: int, ops_per_thread: int, seed: int,
) -> Fig14Row:
    """Measure one (system, threads) point; the ``tcp-contention`` sweep kind."""
    # Emulate FASTER's per-operation application work (Section 8.4 runs
    # FASTER, not the raw microbenchmark): index + log bookkeeping on
    # top of the probe makes per-op app time ~0.5 us.
    cost = CostModel(hash_probe_compute=450.0)
    build_system = "local" if system == "none" else system
    table = HashTable(
        HashTableConfig(
            num_records=50_000, record_bytes=RECORD_BYTES,
            ops_per_thread=ops_per_thread, pipeline_depth=256,
        )
    )
    deployment = build_microbench(
        build_system, threads,
        remote_bytes=max(table.remote_bytes_needed(), 1 << 20),
        cost=cost, seed=seed, pipeline_depth=256,
    )
    sim = deployment.sim
    # Worst case: ALL of Cowbird's RDMA above the user traffic
    # (probes included — at lower priority they would starve
    # under a saturating TCP load and stall the protocol).
    if system == "cowbird-p4":
        deployment.engine.config.data_priority = PRIORITY_HIGH
        deployment.engine.config.probe_priority = PRIORITY_HIGH
        for channel in deployment.engine._channels_by_vqpn.values():
            channel.priority = PRIORITY_HIGH
    elif system == "cowbird":
        deployment.bed.hosts["spot-agent"].nic.config.priority = PRIORITY_HIGH
        deployment.pool_host.nic.config.priority = PRIORITY_HIGH
        deployment.compute.nic.config.priority = PRIORITY_HIGH
    # The shared egress segment: TCP data and Cowbird's
    # host-bound protocol packets contend here at 25 Gb/s with a
    # per-packet engine cost; the data direction stays 100 Gb/s.
    deployment.compute.uplink.bandwidth_gbps = SINK_BANDWIDTH_GBPS
    deployment.compute.uplink.fixed_packet_overhead_ns = PACKET_ENGINE_NS
    flows, sink = _wire_tcp(deployment, sim)
    for flow in flows:
        flow.start()
    processes = []
    if system != "none":
        for i in range(threads):
            thread = deployment.compute.cpu.thread(f"app-{i}")
            processes.append(
                sim.spawn(
                    probe_worker(
                        thread, deployment.backends[i], table, cost,
                        seed=seed + i,
                    )
                )
            )
    results = [
        sim.run_until_complete(process, deadline=20e9)
        for process in processes
    ]
    # Measure TCP over the full overlap window.
    window_end = sim.now if results else sim.run(until=400_000)
    for flow in flows:
        flow.stop()
    deployment.close()
    tcp_gbps = sum(flow.achieved_gbps(window_end) for flow in flows)
    total_ops = sum(r.ops for r in results)
    elapsed = (
        max(r.finished_at for r in results)
        - min(r.started_at for r in results)
        if results else 1.0
    )
    return Fig14Row(
        system=system, threads=threads, tcp_gbps=tcp_gbps,
        cowbird_mops=total_ops / elapsed * 1000.0 if results else 0.0,
    )


def run(
    thread_counts: Sequence[int] = THREAD_COUNTS,
    systems: Sequence[str] = SYSTEMS,
    ops_per_thread: int = 400,
    seed: int = 14,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[Fig14Row]:
    """Regenerate Figure 14 (scaled-down measurement window) through
    the sweep harness."""
    points = [
        SweepPoint("tcp-contention", dict(
            system=system, threads=threads, ops_per_thread=ops_per_thread,
            seed=seed,
        ))
        for system in systems
        for threads in thread_counts
    ]
    return run_sweep(points, parallel=parallel, cache_dir=cache_dir)


def format_rows(rows: list[Fig14Row]) -> str:
    threads = sorted({r.threads for r in rows})
    systems = list(dict.fromkeys(r.system for r in rows))
    lines = ["Figure 14: contending TCP bandwidth (Gb/s), 10 flows, 512 B records"]
    lines.append(f"{'system':>12s}" + "".join(f"{t:>9d}" for t in threads))
    for system in systems:
        row = {r.threads: r.tcp_gbps for r in rows if r.system == system}
        lines.append(
            f"{system:>12s}" + "".join(f"{row.get(t, 0.0):>9.2f}" for t in threads)
        )
    return "\n".join(lines)
