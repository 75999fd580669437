"""Ablation: multi-instance probe scheduling policy (Section 5.4).

The paper leaves richer TDM policies to future work; we implemented a
weighted policy that concentrates probe slots on active instances.
With one hot instance among many idle co-tenants, weighted probing
should cut the hot instance's request latency versus uniform
round-robin while spending fewer probes on the idle crowd.
"""

from repro.experiments.common import build_microbench

IDLE_INSTANCES = 7
OPS = 60


def run_policy(policy):
    dep = build_microbench(
        "cowbird-p4", IDLE_INSTANCES + 1, remote_bytes=1 << 20,
        engine_config={"probe_interval_ns": 2_000.0, "probe_policy": policy},
    )
    hot = dep.instances[0]
    thread = dep.compute.cpu.thread()
    sim = dep.sim
    latencies = []

    def app():
        poll = hot.poll_create()
        for i in range(OPS):
            start = sim.now
            rid = yield from hot.async_read(thread, 0, (i % 256) * 64, 64)
            hot.poll_add(poll, rid)
            events = yield from hot.poll_wait(thread, poll, max_ret=1)
            while not events:
                events = yield from hot.poll_wait(thread, poll, max_ret=1)
            latencies.append(sim.now - start)
            hot.fetch_response(rid)
            yield from thread.sleep(5_000)

    sim.run_until_complete(sim.spawn(app()), deadline=120e9)
    idle_probes = sum(
        state.probe_channel.window.send_psn for state in dep.engine._instances[1:]
    )
    return {
        "policy": policy,
        "mean_latency_us": sum(latencies) / len(latencies) / 1000.0,
        "idle_probes": idle_probes,
    }


def test_ablation_probe_policy(once):
    rows = once(lambda: [run_policy(p) for p in ("round-robin", "weighted")])
    print()
    print(f"Ablation: probe policy, 1 hot + {IDLE_INSTANCES} idle instances")
    print(f"{'policy':>12s}{'hot latency us':>16s}{'idle probes':>13s}")
    for row in rows:
        print(f"{row['policy']:>12s}{row['mean_latency_us']:>16.1f}"
              f"{row['idle_probes']:>13d}")
    rr = next(r for r in rows if r["policy"] == "round-robin")
    weighted = next(r for r in rows if r["policy"] == "weighted")
    # Weighted probing shortens the hot instance's discovery latency...
    assert weighted["mean_latency_us"] < rr["mean_latency_us"]
    # ...while probing the idle crowd less.
    assert weighted["idle_probes"] < rr["idle_probes"]
