"""The deterministic sweep harness: parallel == serial, byte for byte.

Pins the Issue's acceptance criteria for the sweep runner:

* serial (``parallel=1``) and parallel (``parallel=N``) runs return
  identical results and byte-identical ``--json`` dumps for every grid
  figure, and ``--parallel 2`` runs its points in one pool of two
  processes,
* ``--trace`` changes neither the metrics nor the records, and its
  trace file is byte-identical for any worker count,
* the on-disk cache replays identical bytes and actually skips work,
* per-point telemetry snapshots and spans merge back losslessly.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import telemetry
from repro.experiments import fig08, fig10, fig11, fig12, fig13, fig14, sweep
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
FASTER_KW = dict(thread_counts=(1, 2), record_count=2_000, ops_per_thread=10)
SMALL_GRIDS = {
    "fig10": (fig10.run, dict(FASTER_KW, value_sizes=(64,),
                              systems=("one-sided", "cowbird"))),
    "fig11": (fig11.run, FASTER_KW),
    "fig12": (fig12.run, dict(thread_counts=(1, 2), ops_per_thread=20)),
    "fig14": (fig14.run, dict(thread_counts=(1, 2), systems=("cowbird", "none"),
                              ops_per_thread=10)),
}


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
        untraced = sweep_cache_key("microbench", {"threads": 1}, False)
        assert len({a, b, c, untraced}) == 4


class TestSerialParallelIdentity:
    def test_fig08_parallel_matches_serial(self):
        serial = fig08.run(parallel=1, **FIG08_KW)
        parallel = fig08.run(parallel=2, **FIG08_KW)
        assert parallel == serial

    def test_fig13_parallel_matches_serial(self):
        serial = fig13.run(parallel=1, **FIG13_KW)
        parallel = fig13.run(parallel=2, **FIG13_KW)
        assert parallel == serial

    @pytest.mark.parametrize("figure", sorted(SMALL_GRIDS))
    def test_grid_parallel_matches_serial(self, figure):
        run, kwargs = SMALL_GRIDS[figure]
        serial = run(parallel=1, **kwargs)
        assert run(parallel=2, **kwargs) == serial
        assert len(serial) == 4

    def test_parallel_below_one_rejected(self):
        with pytest.raises(ValueError, match="parallel must be at least 1"):
            fig13.run(parallel=0, **FIG13_KW)

    def test_merged_telemetry_identical_serial_vs_parallel(self):
        with telemetry.activate() as tel_serial:
            fig08.run(parallel=1, **FIG08_KW)
        with telemetry.activate() as tel_parallel:
            fig08.run(parallel=2, **FIG08_KW)
        assert tel_parallel.snapshot() == tel_serial.snapshot()
        assert tel_serial.snapshot().get("sim.events_dispatched", 0) > 0
        assert tel_parallel.tracer.events == tel_serial.tracer.events
        assert (
            tel_parallel.tracer.last_timestamp_ns()
            == tel_serial.tracer.last_timestamp_ns()
        )

    def test_spans_appended_under_the_callers_cap(self):
        """A capped caller keeps the first ``max_events`` spans of the
        sweep and counts the rest as dropped, as it would inline."""
        with telemetry.activate() as full:
            fig13.run(parallel=1, **FIG13_KW)
        cap = len(full.tracer.events) // 2
        for workers in (1, 2):
            with telemetry.activate(telemetry.Telemetry(max_events=cap)) as capped:
                fig13.run(parallel=workers, **FIG13_KW)
            assert capped.tracer.events == full.tracer.events[:cap]
            assert capped.tracer.dropped_over_capacity == len(full.tracer.events) - cap
            assert (
                capped.tracer.last_timestamp_ns() == full.tracer.last_timestamp_ns()
            )


class TestCliByteIdentity:
    def _dump(self, tmp_path, name, *extra, figure="fig08"):
        from repro.cli import main

        path = tmp_path / f"{name}.json"
        rc = main([
            "run", figure, "--ops", "10", "--json", str(path), *extra,
        ])
        assert rc == 0
        return path.read_bytes()

    def test_serial_and_parallel_json_byte_identical(self, tmp_path):
        serial = self._dump(tmp_path, "serial", "--parallel", "1", "--no-cache")
        parallel = self._dump(tmp_path, "par", "--parallel", "2", "--no-cache")
        assert parallel == serial

    @pytest.mark.parametrize("figure", ["fig10", "fig11", "fig12", "fig14"])
    def test_grid_figure_json_byte_identical(self, tmp_path, figure):
        serial = self._dump(tmp_path, "serial", "--parallel", "1", "--no-cache",
                            figure=figure)
        parallel = self._dump(tmp_path, "par", "--parallel", "2", "--no-cache",
                              figure=figure)
        assert parallel == serial

    def test_trace_changes_neither_metrics_nor_records(self, tmp_path, capsys):
        """``--trace`` runs the same harness path as ``--metrics`` alone:
        the metrics snapshot (a histogram's float ``sum`` included) and
        the JSON dump are the same with and without it, and the trace is
        byte-identical for one worker or two."""
        from repro.cli import main

        def run(name, *extra):
            path = tmp_path / f"{name}.json"
            assert main([
                "run", "fig01", "--ops", "10", "--no-cache", "--metrics",
                "--json", str(path), *extra,
            ]) == 0
            out = capsys.readouterr().out
            metrics = out[out.index("-- fig01: telemetry metrics"):]
            return metrics[:metrics.index("raw records written")], path.read_bytes()

        bare = run("bare")
        traces = []
        for workers in ("1", "2"):
            trace = tmp_path / f"trace{workers}.json"
            assert run(f"traced{workers}", "--parallel", workers,
                       "--trace", str(trace)) == bare
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]
        assert b'"verbs.read_sync"' in traces[0]

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

    def test_traced_points_neither_read_nor_write_the_cache(self, tmp_path):
        """A point that records spans always runs: a metrics-only entry
        (same key) must not serve it, and it stores nothing."""
        cache = str(tmp_path / "cache")
        points = [
            SweepPoint("microbench", dict(
                system="one-sided", threads=1, record_bytes=64,
                ops_per_thread=20, seed=3,
            ))
        ]
        with telemetry.activate():
            run_sweep(points, parallel=1, cache_dir=cache)
        assert not os.path.exists(cache)
        with telemetry.activate(telemetry.Telemetry(max_events=0)):
            run_sweep(points, parallel=1, cache_dir=cache)
        assert len(os.listdir(cache)) == 1
        with telemetry.activate() as traced:
            run_sweep(points, parallel=1, cache_dir=cache)
        assert traced.tracer.events
        assert len(os.listdir(cache)) == 1

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
