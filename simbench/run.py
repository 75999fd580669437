"""Simulator benchmark: host speed, set-up cost and simulated results.

Usage (from the repository root)::

    python3 simbench/run.py --workload ht-spot-256 --seed 1 --seconds 40 --trace 0

A run derives ``CYCLE`` round seeds from ``--seed`` and runs rounds over
them in turn, each round on a fresh deployment.  ``--trace 0`` keeps
cycling untraced rounds for ``--seconds`` (at least one full cycle) and
reports the end-to-end metrics.  ``--trace 1`` runs, for every round
seed, an untraced round and a traced round with identical inputs, and
reports the per-layer metrics.  Every line before the last names one
metric, its value and its unit; the last line is one JSON object::

    {"correct": true, "attempted": 40000, "failed": 0, "metrics": {...}}

Every round checks its outputs, and rounds with the same seed must
produce bit-identical simulated results.  The program exits 0 when every
check passed, 1 when a check failed, and 2 when it cannot run at all
(for example when the simulator sources under ``src/`` are missing).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".simbench"
#: ``mallopt`` parameter number of glibc's mmap threshold.
M_MMAP_THRESHOLD = -3
#: Distinct round seeds per run.  The simulated metrics pool one round
#: of each, which averages out how much a single seed's tail moves them.
CYCLE = 8

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which a metric may worsen before a change is a regression.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_mops", "Mops", "higher", 0.1),
    ("sim_read_p50_us", "us", "lower", 0.1),
    ("sim_read_p99_us", "us", "lower", 0.1),
)

#: (name, unit) of the per-layer metrics in the JSON result of --trace 1.
PER_LAYER = (
    ("engine.events_per_op", "count/op"),
    ("engine.ns_per_event", "ns"),
    ("cpu.compute_calls_per_op", "count/op"),
    ("cpu.self_ms", "ms"),
    ("network.link_sends_per_op", "count/op"),
    ("network.self_ms", "ms"),
    ("network.drops", "count"),
    ("network.max_link_util", "ratio"),
    ("packets.constructed_per_op", "count/op"),
    ("packets.pool_hit_ratio", "ratio"),
    ("packets.pack_per_op", "count/op"),
    ("packets.self_ms", "ms"),
    ("nic.posts_per_op", "count/op"),
    ("nic.rx_packets_per_op", "count/op"),
    ("nic.self_ms", "ms"),
    ("nic.retransmits", "count"),
    ("backend.self_ms", "ms"),
    ("backend.polls_per_op", "count/op"),
    ("backend.poll_hit_ratio", "ratio"),
    ("spot.mean_batch", "count"),
    ("spot.rdma_calls_per_op", "count/op"),
    ("spot.agent_busy_frac", "ratio"),
    ("p4.recycled_per_op", "count/op"),
    ("p4.probe_hit_ratio", "ratio"),
    ("faster.device_read_ratio", "ratio"),
    ("faster.flushes_per_kop", "count/kop"),
    ("setup.build_ms", "ms"),
    ("trace.overhead", "ratio"),
)

#: Printed as text lines only.  Self times of layers that are idle on
#: some workload read exactly 0 there, and the error rate is 0 on a
#: correct run; the JSON result carries only metrics that are never 0
#: (the error rate is in its ``attempted``/``failed`` fields).
TEXT_ONLY = (
    ("error_rate", "ratio"),
    ("spot.self_ms", "ms"),
    ("p4.self_ms", "ms"),
    ("p4.ns_per_pipeline_call", "ns"),
    ("faster.self_ms", "ms"),
    ("ycsb.next_op_self_ms", "ms"),
    ("setup.load_ms", "ms"),
    ("app.self_ms", "ms"),
    ("engine.loop_self_ms", "ms"),
)

PACK_SITES = tuple(
    f"{owner}.{method}"
    for owner in ("RocePacket", "RequestMetadata", "GreenBlock", "RedBlock")
    for method in ("pack", "unpack")
)


def _import_simulator() -> None:
    """Put this checkout's ``src/`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _fix_malloc_mmap_threshold() -> None:
    """Serve every large allocation from fresh pages, as in a new process.

    glibc raises its mmap threshold after the first large free, so later
    rounds would recycle resident heap pages for the deployment's memory
    regions and set up several times faster than the first round in a
    process, or not, depending on heap history.  A fixed threshold makes
    every round's set-up cost what a user's single simulation pays.
    Without glibc this is a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def round_seeds(seed: int) -> list[int]:
    """The run's round seeds; disjoint for distinct ``--seed`` values."""
    return [seed * CYCLE + k for k in range(CYCLE)]


def _check_identical(rounds: list) -> None:
    """Fail every ok round whose simulated results differ from the first
    ok round with the same seed."""
    first: dict = {}
    for index, r in enumerate(rounds):
        if not r.ok:
            continue
        reference = first.setdefault(r.seed, r)
        if r.fingerprint() != reference.fingerprint():
            diff = sorted(
                key for key in reference.sim if reference.sim[key] != r.sim.get(key)
            )
            r.failures.append(f"round {index}: simulated results differ in {diff}")


def _one_per_seed(rounds: list) -> list:
    first: dict = {}
    for r in rounds:
        if r.ok:
            first.setdefault(r.seed, r)
    return list(first.values())


def run_untraced(workload, seed: int, seconds: float, ops_per_thread) -> tuple:
    """Cycle untraced rounds over the round seeds for ``seconds``.

    ``ops_per_s`` takes each seed's fastest round: other tenants of a
    shared host only ever slow a round down, in phases lasting seconds,
    so the fastest repeat of each input is a far steadier estimate of the
    simulator's own speed than a median that moves with those phases.
    """
    from workloads import percentile_us, run_round

    seeds = round_seeds(seed)
    rounds = []
    deadline = time.perf_counter() + seconds
    last_wall = 0.0
    while len(rounds) < len(seeds) or time.perf_counter() + last_wall <= deadline:
        started = time.perf_counter()
        rounds.append(run_round(workload, seeds[len(rounds) % len(seeds)], ops_per_thread))
        last_wall = time.perf_counter() - started
    _check_identical(rounds)
    good = _one_per_seed(rounds)
    if not good:
        return rounds, {}, {}
    fastest = {
        r.seed: min(o.run_cpu_s for o in rounds if o.ok and o.seed == r.seed)
        for r in good
    }
    latencies = [ns for r in good for ns in r.read_latencies_ns]
    ops = sum(r.ops for r in good)
    metrics = {
        "ops_per_s": ops / sum(fastest.values()),
        "setup_s": statistics.median(r.setup_s for r in rounds if r.ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_mops": ops / sum(r.sim["elapsed_ns"] for r in good) * 1_000.0,
        "sim_read_p50_us": percentile_us(latencies, 0.50),
        "sim_read_p99_us": percentile_us(latencies, 0.99),
    }
    return rounds, metrics, {}


def run_traced(workload, seed: int, seconds: float, ops_per_thread) -> tuple:
    """An untraced and a traced round per round seed; per-layer metrics.

    The work is fixed (two rounds per seed), so ``seconds`` does not apply.
    """
    from tracer import Tracer
    from workloads import run_round

    tracer = Tracer()
    untraced, traced = [], []
    for round_seed in round_seeds(seed):
        untraced.append(run_round(workload, round_seed, ops_per_thread))
        with tracer.install():
            traced.append(run_round(workload, round_seed, ops_per_thread, tracer))
    rounds = [r for pair in zip(untraced, traced) for r in pair]
    _check_identical(rounds)
    if not all(r.ok for r in rounds):
        return rounds, {}, {}

    def total(key: str) -> float:
        return sum(r.sim.get(key, 0) for r in traced)

    ops = sum(r.ops for r in traced)
    events = total("events_dispatched")
    untraced_cpu_s = sum(r.run_cpu_s for r in untraced)
    layer_ms = {layer: ns / 1e6 for layer, ns in tracer.layer_self_ns().items()}
    ycsb_ns = tracer.self_times_ns()[tracer.site("YcsbWorkload.next_op", "ycsb")]
    metrics = {
        "engine.events_per_op": events / ops,
        "engine.ns_per_event": untraced_cpu_s * 1e9 / events,
        "cpu.compute_calls_per_op": tracer.calls_of("Thread.compute") / ops,
        "cpu.self_ms": layer_ms.get("cpu", 0.0),
        "network.link_sends_per_op": tracer.calls_of("Link.send") / ops,
        "network.self_ms": layer_ms.get("network", 0.0),
        "network.drops": total("drops"),
        "network.max_link_util": max(
            _ratio(r.sim["link_busy_ns_max"], r.sim["elapsed_ns"]) for r in traced
        ),
        "packets.constructed_per_op": tracer.calls_of("RocePacket.__init__") / ops,
        "packets.pool_hit_ratio": _ratio(tracer.pool_hits, tracer.pool_acquires),
        "packets.pack_per_op": sum(tracer.calls_of(s) for s in PACK_SITES) / ops,
        "packets.self_ms": layer_ms.get("packets", 0.0),
        "nic.posts_per_op": tracer.calls_of("RNIC.post") / ops,
        "nic.rx_packets_per_op": tracer.calls_of("RNIC.receive") / ops,
        "nic.self_ms": layer_ms.get("nic", 0.0),
        "nic.retransmits": total("retransmits"),
        "backend.self_ms": layer_ms.get("backend", 0.0),
        "backend.polls_per_op": tracer.polls / ops,
        "backend.poll_hit_ratio": _ratio(tracer.poll_hits, tracer.polls),
        "spot.mean_batch": _ratio(total("batch_entries_total"), total("batches_flushed")),
        "spot.rdma_calls_per_op": total("rdma_calls") / ops,
        "spot.agent_busy_frac": _ratio(total("agent_cpu_ns"), total("elapsed_ns")),
        "p4.recycled_per_op": total("recycled_packets") / ops,
        "p4.probe_hit_ratio": _ratio(
            total("metadata_fetches") if total("probes_sent") else 0,
            total("probes_sent"),
        ),
        "faster.device_read_ratio": _ratio(
            total("reads_device"), total("reads_device") + total("reads_memory")
        ),
        "faster.flushes_per_kop": total("flushes") * 1000 / ops,
        "setup.build_ms": _ratio(
            tracer.inclusive_ns("setup.build"), tracer.calls_of("setup.build")
        ) / 1e6,
        "trace.overhead": sum(r.run_cpu_s for r in traced) / untraced_cpu_s,
    }
    setup_ns = tracer.inclusive_ns("setup.build") + tracer.inclusive_ns("setup.load")
    text = {
        "spot.self_ms": layer_ms.get("spot", 0.0),
        "p4.self_ms": layer_ms.get("p4", 0.0),
        "p4.ns_per_pipeline_call": _ratio(
            tracer.inclusive_ns("switch.pipeline"), tracer.calls_of("switch.pipeline")
        ),
        "faster.self_ms": layer_ms.get("faster", 0.0),
        "ycsb.next_op_self_ms": ycsb_ns / 1e6,
        "setup.load_ms": _ratio(
            tracer.inclusive_ns("setup.load"), tracer.calls_of("setup.load")
        ) / 1e6,
        "app.self_ms": layer_ms.get("app", 0.0),
        "engine.loop_self_ms": sum(r.run_wall_s for r in traced) * 1e3
        - (tracer.top_level_ns() - setup_ns) / 1e6,
    }
    path = SPANS_DIR / f"spans-{workload.name}.npz"
    print(f"# wrote {tracer.write(path)} spans to {path}")
    return rounds, metrics, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops-per-thread", type=int, default=None,
        help="override the workload's ops per thread per round (smoke tests)",
    )
    args = parser.parse_args(argv)
    _import_simulator()
    _fix_malloc_mmap_threshold()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    rounds, metrics, text = runner(workload, args.seed, args.seconds, args.ops_per_thread)

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.ops for r in rounds if not r.ok)
    for index, r in enumerate(rounds):
        status = "ok" if r.ok else "FAILED: " + "; ".join(r.failures)
        print(
            f"# round {index} seed {r.seed}: {r.ops} ops, setup {r.setup_s:.4f} s, "
            f"run {r.run_cpu_s:.4f} s cpu / {r.run_wall_s:.4f} s wall, {status}"
        )
    declared = (
        [(name, unit) for name, unit, _, _ in END_TO_END]
        if not args.trace else list(PER_LAYER)
    )
    text["error_rate"] = _ratio(failed, attempted)
    units = dict(TEXT_ONLY)
    for name, unit in declared:
        print(f"{name:<28} {metrics.get(name, float('nan')):>16.6f} {unit}")
    for name, unit in TEXT_ONLY:
        if name in text:
            print(f"{name:<28} {text[name]:>16.6f} {units[name]}")
    correct = failed == 0 and len(metrics) == len(declared)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
