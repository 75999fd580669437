"""Ablation: the offload engine's response BATCH_SIZE (Section 6).

Sweeps BATCH_SIZE over {1, 8, 32, 100} and measures (a) application
throughput, (b) RDMA messages hitting the compute node, and (c) mean
read latency.  The design claim under test: batching raises throughput
and cuts compute-RNIC load at a bounded latency cost.
"""

from repro.experiments.common import build_microbench

BATCH_SIZES = (1, 8, 32, 100)
OPS = 600


def run_batch_size(batch_size):
    dep = build_microbench(
        "cowbird", 1, remote_bytes=1 << 20,
        engine_config={"batch_size": batch_size},
    )
    inst = dep.instances[0]
    thread = dep.compute.cpu.thread()
    sim = dep.sim
    latencies = []

    def app():
        poll = inst.poll_create()
        issue_times = {}
        inflight = 0
        issued = 0
        while issued < OPS:
            rid = yield from inst.async_read(thread, 0, (issued % 512) * 64, 64)
            inst.poll_add(poll, rid)
            issue_times[rid] = sim.now
            issued += 1
            inflight += 1
            events = yield from inst.poll_wait(
                thread, poll, max_ret=256,
                timeout=None if inflight >= 256 else 0,
            )
            for event in events:
                latencies.append(sim.now - issue_times.pop(event.request_id))
                inst.fetch_response(event.request_id)
            inflight -= len(events)
        while inflight > 0:
            events = yield from inst.poll_wait(thread, poll, max_ret=256)
            for event in events:
                latencies.append(sim.now - issue_times.pop(event.request_id))
                inst.fetch_response(event.request_id)
            inflight -= len(events)

    start = sim.now
    sim.run_until_complete(sim.spawn(app()), deadline=120e9)
    elapsed = sim.now - start
    return {
        "batch_size": batch_size,
        "mops": OPS / elapsed * 1000.0,
        "compute_packets_in": dep.compute.nic.stats.rx_packets,
        "mean_batch": dep.engine.stats.mean_batch_size(),
        "mean_latency_us": sum(latencies) / len(latencies) / 1000.0,
    }


def test_ablation_batch_size(once):
    rows = once(lambda: [run_batch_size(b) for b in BATCH_SIZES])
    print()
    print("Ablation: BATCH_SIZE sweep (single instance, 64 B reads)")
    print(f"{'batch':>6s}{'MOPS':>8s}{'pkts@compute':>14s}{'latency us':>12s}")
    for row in rows:
        print(f"{row['batch_size']:>6d}{row['mops']:>8.2f}"
              f"{row['compute_packets_in']:>14d}{row['mean_latency_us']:>12.1f}")
    by_batch = {row["batch_size"]: row for row in rows}
    # Batching cuts messages into the compute node dramatically...
    assert by_batch[100]["compute_packets_in"] < 0.5 * by_batch[1]["compute_packets_in"]
    # ...and throughput does not regress.
    assert by_batch[100]["mops"] >= 0.9 * by_batch[1]["mops"]
    # The latency cost of batching stays bounded (well under one RTT
    # per batched element).
    assert by_batch[100]["mean_latency_us"] < by_batch[1]["mean_latency_us"] + 40
