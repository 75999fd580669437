"""Ablation: probe interval vs completion latency and probe overhead.

Section 5.2: the probe rate trades "extra probe memory accesses with
worst-case completion latency while maintaining high throughput".  We
sweep the interval over {1, 2, 8, 32} us on an intermittent workload and
measure per-request latency and probe packet counts; we also check the
adaptive ramp-up mode against the fixed fastest rate.
"""

from repro.experiments.common import build_microbench

INTERVALS_US = (1, 2, 8, 32)
BURSTS = 10


def run_interval(interval_us, adaptive=False):
    dep = build_microbench(
        "cowbird-p4", 1, remote_bytes=1 << 20,
        engine_config={
            "probe_interval_ns": interval_us * 1000.0,
            "adaptive_probing": adaptive,
        },
    )
    inst = dep.instances[0]
    thread = dep.compute.cpu.thread()
    sim = dep.sim
    latencies = []

    def app():
        poll = inst.poll_create()
        # Intermittent traffic: one read, then silence — the worst case
        # for slow probing (every request eats a full probe delay).
        for i in range(BURSTS):
            start = sim.now
            rid = yield from inst.async_read(thread, 0, i * 64, 64)
            inst.poll_add(poll, rid)
            events = yield from inst.poll_wait(thread, poll, max_ret=1)
            while not events:
                events = yield from inst.poll_wait(thread, poll, max_ret=1)
            latencies.append(sim.now - start)
            inst.fetch_response(rid)
            yield from thread.sleep(100_000)  # idle gap

    sim.run_until_complete(sim.spawn(app()), deadline=120e9)
    return {
        "interval_us": interval_us,
        "adaptive": adaptive,
        "mean_latency_us": sum(latencies) / len(latencies) / 1000.0,
        "probes": dep.engine.stats.probes_sent,
    }


def test_ablation_probe_interval(once):
    def sweep():
        rows = [run_interval(us) for us in INTERVALS_US]
        rows.append(run_interval(2, adaptive=True))
        return rows

    rows = once(sweep)
    print()
    print("Ablation: probe interval (intermittent single reads)")
    print(f"{'interval':>9s}{'adaptive':>9s}{'latency us':>12s}{'probes':>8s}")
    for row in rows:
        print(f"{row['interval_us']:>8d}u{str(row['adaptive']):>9s}"
              f"{row['mean_latency_us']:>12.1f}{row['probes']:>8d}")
    fixed = {row["interval_us"]: row for row in rows if not row["adaptive"]}
    # Slower probing costs completion latency...
    assert fixed[32]["mean_latency_us"] > fixed[1]["mean_latency_us"] + 5
    # ...but saves probe bandwidth roughly proportionally.
    assert fixed[32]["probes"] < fixed[1]["probes"] / 4
    # Adaptive probing sits between: near-fast latency on activity,
    # far fewer probes during the idle gaps.
    adaptive = next(row for row in rows if row["adaptive"])
    assert adaptive["probes"] < fixed[2]["probes"] * 0.7
    assert adaptive["mean_latency_us"] < fixed[32]["mean_latency_us"] * 1.5
