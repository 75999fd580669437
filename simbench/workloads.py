"""The benchmark's workloads and one measured round of each.

A round builds a fresh deployment from the seed, runs a fixed number of
closed-loop operations on it, checks the outputs, and returns host
timings plus the simulated results.  Every worker thread is a simulator
coroutine in this one host process; each keeps up to ``pipeline_depth``
reads outstanding and blocks in ``poll_completions`` when it has that
many.  Only public functions of the simulator are called; the few
observers the benchmark needs (read latencies, FASTER read values,
per-thread probe results) wrap those functions at runtime.
"""

from __future__ import annotations

import gc
import hashlib
import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.experiments import common
from repro.experiments.common import build_microbench, drive_probe_workload
from repro.experiments.faster_bench import load_backing, ycsb_worker
from repro.faster.hybridlog import HybridLogConfig
from repro.faster.store import FasterConfig, FasterKv
from repro.sim.cpu import CostModel
from repro.workloads.hashtable import HashTable, HashTableConfig
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

__all__ = ["Round", "WORKLOADS", "Workload", "percentile_us", "run_round"]

#: Simulated deadline for one round; a round that misses it fails.
DEADLINE_NS = 300e9


@dataclass(frozen=True)
class Workload:
    """One workload's fixed inputs; the round seed supplies the rest."""

    name: str
    kind: str  # "probe" (Section 8.1 hash table) or "ycsb" (FASTER)
    system: str
    threads: int = 8
    #: Probe record size, or FASTER value size, in bytes.
    record_bytes: int = 256
    records: int = 100_000
    ops_per_thread: int = 250
    pipeline_depth: int = 100
    local_fraction: float = 0.05
    read_fraction: float = 0.5
    memory_fraction: float = 0.25


#: Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline path: Spot agent, NIC, links, client API.
        Workload("ht-spot-256", kind="probe", system="cowbird", record_bytes=256),
        # Per-packet cost in the P4 pipeline and packet pool; Spot idle.
        Workload(
            "ht-p4-8", kind="probe", system="cowbird-p4", record_bytes=8,
            ops_per_thread=125,
        ),
        # Adds FASTER and YCSB; page flushes beside single-packet reads.
        Workload(
            "ycsb-spot-rw", kind="ycsb", system="cowbird", record_bytes=512,
            records=40_000, pipeline_depth=64,
        ),
    )
}


@dataclass
class Round:
    """Outcome of one round: host timings, simulated results, checks."""

    seed: int
    ops: int
    build_s: float = 0.0
    load_s: float = 0.0
    run_cpu_s: float = 0.0
    run_wall_s: float = 0.0
    #: Simulated results; identical for identical inputs.
    sim: dict = field(default_factory=dict)
    #: Simulated latency of every read, in completion order.
    read_latencies_ns: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.build_s + self.load_s

    @property
    def ok(self) -> bool:
        return not self.failures

    def fingerprint(self) -> str:
        return hashlib.blake2b(repr(sorted(self.sim.items())).encode()).hexdigest()


class ReadLatencies:
    """Sim time from ``issue_read`` to the poll that returns its token.

    Wraps each backend's ``issue_read``/``poll_completions`` as instance
    attributes; the wrappers delegate with ``yield from``, so they add no
    simulated event.  Request ids are unique per backend only, so each
    backend keeps its own issue table.
    """

    def __init__(self, sim, backends) -> None:
        self.sim = sim
        self.samples_ns: list[float] = []
        self.issued: list[dict] = []
        for backend in backends:
            pending: dict = {}
            self.issued.append(pending)
            backend.issue_read = self._issue(backend.issue_read, pending)
            backend.poll_completions = self._poll(backend.poll_completions, pending)

    def _issue(self, original, pending: dict):
        sim = self.sim

        def issue_read(*args, **kwargs):
            started = sim.now
            token = yield from original(*args, **kwargs)
            pending[token] = started
            return token

        return issue_read

    def _poll(self, original, pending: dict):
        sim, samples = self.sim, self.samples_ns

        def poll_completions(*args, **kwargs):
            tokens = yield from original(*args, **kwargs)
            now = sim.now
            for token in tokens:
                started = pending.pop(token, None)
                if started is not None:  # flush tokens are not reads
                    samples.append(now - started)
            return tokens

        return poll_completions

    @property
    def outstanding(self) -> int:
        return sum(len(pending) for pending in self.issued)

    def digest(self) -> str:
        return hashlib.blake2b(repr(self.samples_ns).encode()).hexdigest()


def percentile_us(samples_ns: list, q: float) -> float:
    """Linear-interpolated percentile of ns samples, in microseconds."""
    values = sorted(samples_ns)
    if not values:
        return 0.0
    position = (len(values) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    value = values[low] + (values[high] - values[low]) * (position - low)
    return value / 1_000.0


def _network_state(deployment) -> dict:
    """Deterministic link/NIC counters across the whole testbed."""
    bed = deployment.bed
    links = [host.uplink for host in bed.hosts.values()]
    links += [bed.switch.port_to(node) for node in bed.switch.attached_nodes]
    retransmits = 0
    for host in bed.hosts.values():
        nic = host.nic
        retransmits += nic.stats.retransmit_timeouts
        retransmits += sum(qp.retransmissions for qp in nic._qps.values())
    return {
        "link_packets": sum(link.stats.packets_sent for link in links),
        "link_busy_ns_max": max(link.stats.busy_ns for link in links),
        "drops": sum(link.stats.packets_dropped for link in links),
        "retransmits": retransmits,
    }


def _common_checks(result: Round, expected_ops: int, completed_ops: int,
                   latencies: ReadLatencies, reads_issued: int) -> None:
    sim, failures = result.sim, result.failures
    if completed_ops != expected_ops:
        failures.append(f"completed {completed_ops} ops, expected {expected_ops}")
    if latencies.outstanding:
        failures.append(f"{latencies.outstanding} reads never completed")
    if len(latencies.samples_ns) != reads_issued:
        failures.append(
            f"{len(latencies.samples_ns)} read completions for {reads_issued} reads"
        )
    for counter in ("drops", "retransmits", "go_back_n_events"):
        if sim.get(counter, 0):
            failures.append(f"{counter} = {sim[counter]} on a lossless network")


def _finish(result: Round, deployment, latencies: ReadLatencies,
            elapsed_ns: float) -> None:
    sim = result.sim
    result.read_latencies_ns = latencies.samples_ns
    sim["reads"] = len(latencies.samples_ns)
    sim["latency_digest"] = latencies.digest()
    sim["elapsed_ns"] = elapsed_ns
    sim["events_dispatched"] = deployment.sim.events_dispatched
    sim.update(_network_state(deployment))
    engine = deployment.engine
    for key, value in engine.stats_snapshot().items():
        sim[key] = value
    if hasattr(engine, "agent_cpu_ns"):
        sim["agent_cpu_ns"] = engine.agent_cpu_ns()


def _timed(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _probe_round(w: Workload, seed: int, ops_per_thread: int, tracer) -> Round:
    cost = CostModel()
    table = HashTable(HashTableConfig(
        num_records=w.records, record_bytes=w.record_bytes,
        local_fraction=w.local_fraction, ops_per_thread=ops_per_thread,
        pipeline_depth=w.pipeline_depth,
    ))
    result = Round(seed=seed, ops=w.threads * ops_per_thread)
    gc.collect()
    started = time.process_time()
    with _timed(tracer, "setup.build"):
        deployment = build_microbench(
            w.system, w.threads, remote_bytes=max(table.remote_bytes_needed(), 1 << 16),
            cost=cost, seed=seed, pipeline_depth=w.pipeline_depth,
        )
    result.build_s = time.process_time() - started
    latencies = ReadLatencies(deployment.sim, deployment.backends)
    if tracer is not None:
        tracer.observe_switch(deployment.bed.switch)
    probe_results = []
    original_worker = common.probe_worker

    def recording_worker(*args, **kwargs):
        outcome = yield from original_worker(*args, **kwargs)
        probe_results.append(outcome)
        return outcome

    common.probe_worker = recording_worker
    wall = time.perf_counter()
    started = time.process_time()
    try:
        aggregate = drive_probe_workload(
            deployment, table, cost, seed=seed, deadline_ns=DEADLINE_NS
        )
    finally:
        result.run_cpu_s = time.process_time() - started
        result.run_wall_s = time.perf_counter() - wall
        common.probe_worker = original_worker
    _finish(result, deployment, latencies, aggregate.elapsed_ns)
    remote_hits = sum(r.remote_hits for r in probe_results)
    result.sim["local_hits"] = sum(r.local_hits for r in probe_results)
    result.sim["remote_hits"] = remote_hits
    for r in probe_results:
        if r.local_hits + r.remote_hits != r.ops or r.ops != ops_per_thread:
            result.failures.append(
                f"{r.thread_name}: {r.local_hits} local + {r.remote_hits} remote "
                f"hits for {r.ops} ops, expected {ops_per_thread}"
            )
    if len(probe_results) != w.threads:
        result.failures.append(f"{len(probe_results)} of {w.threads} workers finished")
    _common_checks(result, result.ops, aggregate.total_ops, latencies, remote_hits)
    return result


def _log_config(records: int, record_bytes: int, memory_fraction: float) -> HybridLogConfig:
    """16 KB pages, ``memory_fraction`` of the log's pages in memory."""
    config = HybridLogConfig(page_bits=14)
    pages_total = max(4, records * record_bytes // config.page_bytes)
    config.memory_pages = max(2, int(pages_total * memory_fraction))
    return config


def _ycsb_round(w: Workload, seed: int, ops_per_thread: int, tracer) -> Round:
    cost = CostModel()
    ycsb = YcsbConfig(
        record_count=w.records, value_bytes=w.record_bytes,
        read_fraction=w.read_fraction, distribution="zipfian", seed=seed,
    )
    faster_config = FasterConfig(
        value_bytes=w.record_bytes,
        log=_log_config(w.records, ycsb.record_bytes, w.memory_fraction),
    )
    result = Round(seed=seed, ops=w.threads * ops_per_thread)
    gc.collect()
    started = time.process_time()
    with _timed(tracer, "setup.build"):
        deployment = build_microbench(
            w.system, w.threads,
            remote_bytes=w.records * faster_config.record_bytes * 2 + (1 << 20),
            cost=cost, seed=seed, pipeline_depth=w.pipeline_depth,
        )
    built = time.process_time()
    result.build_s = built - started
    with _timed(tracer, "setup.load"):
        store = FasterKv(deployment.backends[0], cost, faster_config)
        load_backing(deployment, store)
        loader = YcsbWorkload(ycsb, worker_seed=0)
        store.load({key: loader.value_for(key) for key in range(w.records)})
        generators = [YcsbWorkload(ycsb, worker_seed=i + 1) for i in range(w.threads)]
    result.load_s = time.process_time() - built
    latencies = ReadLatencies(deployment.sim, deployment.backends)
    reads = {"memory": 0, "device": 0, "missing": 0, "wrong_value": 0}
    original_start_read = store.start_read

    def checked_start_read(thread, key, device=None):
        outcome = yield from original_start_read(thread, key, device=device)
        reads[outcome.source] += 1
        if outcome.source == "memory" and outcome.value != loader.value_for(key):
            reads["wrong_value"] += 1
        return outcome

    store.start_read = checked_start_read
    sim = deployment.sim
    wall = time.perf_counter()
    started = time.process_time()
    try:
        processes = []
        for i in range(w.threads):
            thread = deployment.compute.cpu.thread(f"faster-{i}")
            processes.append(sim.spawn(
                ycsb_worker(
                    thread, store, deployment.backends[i], generators[i],
                    ops_per_thread, depth=w.pipeline_depth,
                ),
                name=f"faster-{i}",
            ))
        outcomes = [
            sim.run_until_complete(process, deadline=DEADLINE_NS)
            for process in processes
        ]
        deployment.close()
    finally:
        result.run_cpu_s = time.process_time() - started
        result.run_wall_s = time.perf_counter() - wall
    elapsed = max(o["finished_at"] for o in outcomes) - min(o["started_at"] for o in outcomes)
    _finish(result, deployment, latencies, elapsed)
    result.sim.update(
        reads_memory=store.stats_reads_memory,
        reads_device=store.stats_reads_device,
        upserts=store.stats_upserts,
        flushes=store.stats_flushes,
    )
    if reads["wrong_value"] or reads["missing"]:
        result.failures.append(
            f"{reads['wrong_value']} memory reads returned a wrong value, "
            f"{reads['missing']} keys were missing"
        )
    if store.pending_reads():
        result.failures.append(f"{store.pending_reads()} FASTER reads still pending")
    _common_checks(
        result, result.ops, sum(o["ops"] for o in outcomes), latencies,
        store.stats_reads_device,
    )
    return result


def run_round(w: Workload, seed: int, ops_per_thread: Optional[int] = None,
              tracer: Any = None) -> Round:
    """One round; an exception or missed deadline fails every op in it."""
    ops_per_thread = ops_per_thread or w.ops_per_thread
    body = _probe_round if w.kind == "probe" else _ycsb_round
    try:
        return body(w, seed, ops_per_thread, tracer)
    except Exception as exc:  # noqa: BLE001 - reported as failed ops
        traceback.print_exc(file=sys.stderr)
        failed = Round(seed=seed, ops=w.threads * ops_per_thread)
        failed.failures.append(f"{type(exc).__name__}: {exc}")
        return failed
