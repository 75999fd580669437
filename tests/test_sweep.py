"""The deterministic sweep harness: parallel == serial, byte for byte.

Pins the Issue's acceptance criteria for the sweep runner:

* serial (``parallel=1``) and parallel (``parallel=N``) runs return
  identical results and byte-identical ``--json`` dumps, and
  ``--parallel 2`` runs its points in one pool of two processes,
* the legacy inline path (``parallel=0``) agrees with the harness,
* the on-disk cache replays identical bytes and actually skips work,
* per-point telemetry snapshots merge back losslessly.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import telemetry
from repro.experiments import fig01, fig08, fig13, sweep
from repro.experiments.sweep import SweepPoint, run_sweep, sweep_cache_key
from repro.sim.network import LinkStats
from repro.telemetry.metrics import MetricsRegistry

# Tiny grids: enough points to exercise ordering and merging, small
# enough to keep the suite fast.
FIG08_KW = dict(
    record_sizes=(8, 64),
    thread_counts=(1, 2),
    systems=("one-sided", "cowbird"),
    ops_per_thread=20,
)
FIG13_KW = dict(record_sizes=(8, 64), systems=("one-sided", "cowbird"), ops=20)


class TestSweepPoint:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep point kind"):
            SweepPoint("nonsense", {})

    def test_cache_key_stable_under_kwarg_order(self):
        a = sweep_cache_key("microbench", {"system": "local", "threads": 1}, True)
        b = sweep_cache_key("microbench", {"threads": 1, "system": "local"}, True)
        assert a == b

    def test_cache_key_separates_configs(self):
        a = sweep_cache_key("microbench", {"threads": 1}, True)
        b = sweep_cache_key("microbench", {"threads": 2}, True)
        c = sweep_cache_key("faster", {"threads": 1}, True)
        assert len({a, b, c}) == 3


class TestSerialParallelIdentity:
    def test_fig08_parallel_matches_serial(self):
        serial = fig08.run(parallel=1, **FIG08_KW)
        parallel = fig08.run(parallel=2, **FIG08_KW)
        assert parallel == serial

    def test_fig08_harness_matches_legacy_inline(self):
        assert fig08.run(parallel=1, **FIG08_KW) == fig08.run(**FIG08_KW)

    def test_fig13_parallel_matches_serial(self):
        serial = fig13.run(parallel=1, **FIG13_KW)
        parallel = fig13.run(parallel=2, **FIG13_KW)
        assert parallel == serial

    def test_fig01_harness_matches_legacy_inline(self):
        assert fig01.run(ops_per_thread=10, parallel=1) == fig01.run(
            ops_per_thread=10
        )

    def test_merged_telemetry_identical_serial_vs_parallel(self):
        with telemetry.activate() as tel_serial:
            fig08.run(parallel=1, **FIG08_KW)
        with telemetry.activate() as tel_parallel:
            fig08.run(parallel=2, **FIG08_KW)
        assert tel_parallel.snapshot() == tel_serial.snapshot()
        assert tel_serial.snapshot().get("sim.events_dispatched", 0) > 0
        assert (
            tel_parallel.tracer.last_timestamp_ns()
            == tel_serial.tracer.last_timestamp_ns()
        )


class TestCliByteIdentity:
    def _dump(self, tmp_path, name, *extra):
        from repro.cli import main

        path = tmp_path / f"{name}.json"
        rc = main([
            "run", "fig08", "--ops", "10", "--json", str(path), *extra,
        ])
        assert rc == 0
        return path.read_bytes()

    def test_serial_and_parallel_json_byte_identical(self, tmp_path):
        serial = self._dump(tmp_path, "serial", "--parallel", "1", "--no-cache")
        parallel = self._dump(tmp_path, "par", "--parallel", "2", "--no-cache")
        assert parallel == serial

    def test_parallel_speedup(self, tmp_path, monkeypatch):
        """The speedup comes from worker processes: ``--parallel 1`` opens
        no pool and ``--parallel 2`` opens one pool of two. Checked by
        recording the pool, not by timing, so a busy host cannot fail it."""
        pools = []
        real_pool = sweep.multiprocessing.Pool

        def recording_pool(processes=None, *args, **kwargs):
            pools.append(processes)
            return real_pool(processes, *args, **kwargs)

        monkeypatch.setattr(sweep.multiprocessing, "Pool", recording_pool)
        self._dump(tmp_path, "speed-serial", "--parallel", "1", "--no-cache")
        assert pools == []
        self._dump(tmp_path, "speed-par", "--parallel", "2", "--no-cache")
        assert pools == [2]

    def test_cache_hit_replays_identical_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # .repro_cache lands here, not the repo
        cold = self._dump(tmp_path, "cold", "--parallel", "1")
        assert os.path.isdir(tmp_path / ".repro_cache")
        started = time.perf_counter()
        warm = self._dump(tmp_path, "warm", "--parallel", "1")
        warm_wall = time.perf_counter() - started
        assert warm == cold
        # A warm run only deserializes: it must be far under sim cost.
        assert warm_wall < 10.0


class TestCache:
    def test_cache_skips_recomputation(self, tmp_path):
        cache = str(tmp_path / "cache")
        points = [
            SweepPoint("microbench", dict(
                system="local", threads=1, record_bytes=64, ops_per_thread=20,
                seed=3,
            ))
        ]
        first = run_sweep(points, parallel=1, cache_dir=cache)
        assert len(os.listdir(cache)) == 1
        second = run_sweep(points, parallel=1, cache_dir=cache)
        assert second == first

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = str(tmp_path / "cache")
        points = [
            SweepPoint("microbench", dict(
                system="local", threads=1, record_bytes=64, ops_per_thread=20,
                seed=3,
            ))
        ]
        first = run_sweep(points, parallel=1, cache_dir=cache)
        (entry,) = os.listdir(cache)
        with open(os.path.join(cache, entry), "wb") as handle:
            handle.write(b"garbage")
        second = run_sweep(points, parallel=1, cache_dir=cache)
        assert second == first


class TestMergeSnapshot:
    def test_merge_equals_shared_registry(self):
        # Record the same traffic into (a) one shared registry and
        # (b) two registries merged in order; the results must agree.
        shared = MetricsRegistry()
        parts = [MetricsRegistry(), MetricsRegistry()]
        for i, registry in enumerate(parts):
            stats = LinkStats(packets_sent=3 * (i + 1), busy_ns=2.5 * (i + 1))
            for target in (shared, registry):
                target.counter("ops").inc(10 * (i + 1))
                target.gauge("depth").set(5 - i)
                hist = target.histogram("lat", bounds=(1.0, 10.0, 100.0))
                hist.observe(3.0 * (i + 1))
                hist.observe(50.0)
                target.expose("link.a", stats)
        merged = MetricsRegistry()
        for registry in parts:
            merged.merge_snapshot(registry.snapshot())
        assert merged.snapshot() == shared.snapshot()

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0))
        b = MetricsRegistry()
        b.histogram("h", bounds=(1.0, 4.0)).observe(3.0)
        with pytest.raises(ValueError, match="mismatched bounds"):
            a.merge_snapshot(b.snapshot())
