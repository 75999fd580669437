"""Tests for the unified telemetry layer.

Pins the subsystem's invariants: hierarchical instrument registration,
histogram bucket arithmetic, span recording against the sim clock, the
Chrome ``trace_event`` JSON schema, the zero-cost null mode, and — most
importantly — that enabling telemetry never changes experiment numbers.
"""

import dataclasses
import gc
import io
import json
import weakref

import pytest

from repro import telemetry
from repro.telemetry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NULL_TELEMETRY,
    NULL_TRACER,
    Telemetry,
    Tracer,
    chrome_trace_document,
    log_bucket_bounds,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.spans import SpanEvent


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("nic.compute.tx_bytes")
        b = reg.counter("nic.compute.tx_bytes")
        assert a is b
        assert len(reg) == 1

    def test_hierarchical_names_and_prefix_queries(self):
        reg = MetricsRegistry()
        reg.counter("nic.compute.tx_bytes")
        reg.counter("nic.compute.rx_bytes")
        reg.counter("nic.pool.tx_bytes")
        reg.gauge("qp.3.outstanding")
        assert reg.names("nic.compute.") == [
            "nic.compute.rx_bytes", "nic.compute.tx_bytes",
        ]
        assert set(reg.snapshot("nic.")) == {
            "nic.compute.rx_bytes", "nic.compute.tx_bytes", "nic.pool.tx_bytes",
        }

    @pytest.mark.parametrize("name", ["", ".x", "x.", "a..b"])
    def test_invalid_names_rejected(self, name):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter(name)
        with pytest.raises(ValueError):
            reg.expose(name, _Stats())

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("sim.events")
        with pytest.raises(TypeError):
            reg.gauge("sim.events")
        with pytest.raises(TypeError):
            reg.histogram("sim.events")

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2.5)
        reg.histogram("h", bounds=(1.0, 10.0)).observe(5.0)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == {"value": 2.5, "max": 2.5}
        assert snap["h"]["count"] == 1
        assert snap["h"]["bounds"] == [1.0, 10.0]

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_tracks_max(self):
        g = Gauge("g")
        g.set(5)
        g.add(-3)
        assert g.value == 2
        assert g.max_value == 5


@dataclasses.dataclass
class _Stats:
    sent: int = 0
    busy_ns: float = 0.0
    by_class: dict = dataclasses.field(default_factory=dict)
    enabled: bool = False


class TestExpose:
    def test_numeric_fields_are_read_at_snapshot_time(self):
        reg = MetricsRegistry()
        stats = _Stats()
        reg.expose("link.a", stats)
        assert reg.names() == ["link.a.busy_ns", "link.a.sent"]
        stats.sent += 3
        stats.busy_ns += 1.5
        assert reg.snapshot() == {"link.a.busy_ns": 1.5, "link.a.sent": 3}
        assert len(reg) == 2

    def test_sources_under_one_name_sum(self):
        reg = MetricsRegistry()
        first, second = _Stats(sent=2), _Stats(sent=5)
        reg.expose("nic.compute", first)
        reg.expose("nic.compute", second)
        assert reg.snapshot("nic.compute.sent") == {"nic.compute.sent": 7}
        second.sent += 1
        assert reg.snapshot()["nic.compute.sent"] == 8

    def test_counter_of_the_same_name_sums_with_sources(self):
        reg = MetricsRegistry()
        reg.expose("x", _Stats(sent=4))
        reg.merge_snapshot({"x.sent": 6})
        assert reg.snapshot()["x.sent"] == 10

    def test_null_registry_stores_nothing(self):
        reg = NullRegistry()
        reg.expose("x", _Stats(sent=1))
        assert reg.snapshot() == {}
        assert len(reg) == 0
        NULL_TELEMETRY.expose("y", _Stats(sent=1))
        assert NULL_TELEMETRY.snapshot() == {}

    def test_collision_with_gauge_or_histogram_raises(self):
        reg = MetricsRegistry()
        reg.gauge("x.sent")
        with pytest.raises(TypeError):
            reg.expose("x", _Stats())
        reg = MetricsRegistry()
        reg.histogram("x.busy_ns")
        with pytest.raises(TypeError):
            reg.expose("x", _Stats())
        reg = MetricsRegistry()
        reg.expose("x", _Stats())
        with pytest.raises(TypeError):
            reg.gauge("x.sent")
        with pytest.raises(TypeError):
            reg.histogram("x.busy_ns")
        with pytest.raises(TypeError):
            reg.merge_snapshot({"x.sent": {"value": 1.0, "max": 1.0}})


class TestHistogram:
    def test_log_bucket_bounds(self):
        assert log_bucket_bounds(1, 8, 2) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            log_bucket_bounds(0, 8, 2)
        with pytest.raises(ValueError):
            log_bucket_bounds(1, 8, 1.0)

    def test_bucket_edges_are_inclusive_upper(self):
        h = Histogram("h", bounds=(10.0, 100.0))
        h.observe(10.0)   # exactly on the first edge -> first bucket
        h.observe(10.1)   # just above -> second bucket
        h.observe(100.0)  # on the last edge -> second bucket
        h.observe(100.1)  # above every edge -> overflow bucket
        assert h.bucket_counts == [1, 2, 1]

    def test_exact_count_sum_max_mean(self):
        h = Histogram("h", bounds=(1.0,))
        for value in (0.5, 2.0, 7.5):
            h.observe(value)
        assert h.count == 3
        assert h.sum == pytest.approx(10.0)
        assert h.max == 7.5
        assert h.mean() == pytest.approx(10.0 / 3)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0,)).observe(-1.0)


class TestTracer:
    def make_clock(self):
        state = {"now": 0.0}
        return state, (lambda: state["now"])

    def test_span_context_manager_uses_bound_clock(self):
        state, clock = self.make_clock()
        tracer = Tracer()
        tracer.bind_clock(clock)
        state["now"] = 100.0
        with tracer.span("rdma.read", process="compute", track="qp1", qp=1) as s:
            state["now"] = 250.0
            s.set(bytes=64)
        (event,) = tracer.events
        assert event.begin_ns == 100.0
        assert event.end_ns == 250.0
        assert event.process == "compute"
        assert event.track == "qp1"
        assert event.attrs == {"qp": 1, "bytes": 64}
        assert not event.is_instant

    def test_complete_records_retroactive_interval(self):
        tracer = Tracer()
        tracer.complete("p4.request", 10.0, 30.0, process="switch", track="inst0")
        (event,) = tracer.events
        assert event.duration_ns == 20.0

    def test_instant_events(self):
        state, clock = self.make_clock()
        tracer = Tracer()
        tracer.bind_clock(clock)
        state["now"] = 42.0
        tracer.instant("rdma.nak", process="pool")
        (event,) = tracer.events
        assert event.is_instant
        assert event.begin_ns == 42.0

    def test_capacity_cap_drops_and_counts(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.complete("e", 0.0, 1.0)
        assert len(tracer) == 2
        assert tracer.dropped_over_capacity == 3

    def test_span_names_and_last_timestamp(self):
        tracer = Tracer()
        tracer.complete("a", 0.0, 5.0)
        tracer.complete("a", 1.0, 3.0)
        tracer.complete("b", 2.0, 9.0)
        assert tracer.span_names() == {"a": 2, "b": 1}
        assert tracer.last_timestamp_ns() == 9.0
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.last_timestamp_ns() == 0.0


class TestChromeExport:
    def sample_events(self):
        return [
            SpanEvent("rdma.read", 1000.0, 3000.0, "compute", "qp1", {"bytes": 64}),
            SpanEvent("rdma.nak", 4000.0, 4000.0, "pool", "nic", {}),
            SpanEvent("link.tx", 500.0, 700.0, "net", "compute->switch", {}),
        ]

    def test_document_schema(self):
        doc = chrome_trace_document(self.sample_events(), metrics={"c": 1})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"] == {"metrics": {"c": 1}}
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        durations = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(durations) == 2
        assert len(instants) == 1
        # One process_name per distinct process, one thread_name per track.
        assert sum(1 for e in meta if e["name"] == "process_name") == 3
        assert sum(1 for e in meta if e["name"] == "thread_name") == 3

    def test_timestamps_convert_to_microseconds(self):
        doc = chrome_trace_document(self.sample_events())
        read = next(
            e for e in doc["traceEvents"] if e.get("name") == "rdma.read"
        )
        assert read["ts"] == 1.0
        assert read["dur"] == 2.0
        assert read["args"] == {"bytes": 64}
        nak = next(e for e in doc["traceEvents"] if e.get("name") == "rdma.nak")
        assert nak["ph"] == "i"
        assert nak["s"] == "t"
        assert "dur" not in nak

    def test_pid_tid_stable_per_process_and_track(self):
        doc = chrome_trace_document(self.sample_events() + self.sample_events())
        reads = [e for e in doc["traceEvents"] if e.get("name") == "rdma.read"]
        assert len({(e["pid"], e["tid"]) for e in reads}) == 1
        naks = [e for e in doc["traceEvents"] if e.get("name") == "rdma.nak"]
        assert reads[0]["pid"] != naks[0]["pid"]

    def test_round_trips_through_json(self):
        handle = io.StringIO()
        tel = Telemetry()
        tel.complete("x", 0.0, 10.0)
        tel.counter("c").inc()
        tel.write_chrome_trace(handle)
        doc = json.loads(handle.getvalue())
        assert doc["otherData"]["metrics"]["c"] == 1

    def test_jsonl_export(self):
        handle = io.StringIO()
        tel = Telemetry()
        tel.complete("x", 0.0, 10.0, process="p", track="t", k="v")
        tel.write_jsonl(handle)
        lines = handle.getvalue().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {
            "name": "x", "begin_ns": 0.0, "end_ns": 10.0,
            "process": "p", "track": "t", "attrs": {"k": "v"},
        }


class TestNullMode:
    def test_null_registry_hands_out_shared_noops(self):
        assert NULL_REGISTRY.counter("a.b") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("a.b") is NULL_GAUGE
        assert NULL_REGISTRY.histogram("a.b") is NULL_HISTOGRAM
        assert len(NULL_REGISTRY) == 0

    def test_null_instruments_record_nothing(self):
        NULL_COUNTER.inc(100)
        NULL_GAUGE.set(5.0)
        NULL_HISTOGRAM.observe(3.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("x", process="p") as s:
            s.set(k=1)
        NULL_TRACER.complete("y", 0.0, 1.0)
        NULL_TRACER.instant("z")
        assert len(NULL_TRACER) == 0

    def test_null_telemetry_is_disabled_and_empty(self):
        assert NULL_TELEMETRY.enabled is False
        assert Telemetry().enabled is True
        NULL_TELEMETRY.counter("a.b").inc()
        assert NULL_TELEMETRY.snapshot() == {}


class TestActivation:
    def test_activate_installs_and_restores(self):
        assert telemetry.current() is None
        with telemetry.activate() as tel:
            assert telemetry.current() is tel
            with telemetry.activate(NULL_TELEMETRY):
                assert telemetry.current() is NULL_TELEMETRY
            assert telemetry.current() is tel
        assert telemetry.current() is None

    def test_install_uninstall(self):
        tel = Telemetry()
        try:
            assert telemetry.install(tel) is tel
            assert telemetry.current() is tel
        finally:
            telemetry.uninstall()
        assert telemetry.current() is None

    def test_testbed_picks_up_active_telemetry(self):
        from repro.testbed import Testbed

        with telemetry.activate() as tel:
            bed = Testbed()
        assert bed.sim.telemetry is tel
        bed2 = Testbed()
        assert bed2.sim.telemetry is NULL_TELEMETRY


class TestInstrumentation:
    """Telemetry actually observes the simulated stack."""

    def run_one_read(self, tel):
        from repro.testbed import Testbed

        with telemetry.activate(tel):
            bed = Testbed()
            compute = bed.add_host("compute", cpu_cores=2)
            pool = bed.add_host("pool")
            qp_c, _ = bed.connect_qps(compute, pool)
            remote = pool.registry.register(1 << 12)
            local = compute.registry.register(1 << 12)
            thread = compute.cpu.thread()

            def op():
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, remote.base_addr,
                    remote.rkey, 64,
                )

            bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9)
        return bed

    def test_counters_cover_nic_link_and_sim(self):
        tel = Telemetry()
        self.run_one_read(tel)
        snap = tel.snapshot()
        assert snap["nic.compute.posts"] == 1
        assert snap["nic.compute.tx_packets"] >= 1
        assert snap["nic.pool.rx_packets"] >= 1
        assert snap["link.compute->switch.bytes_sent"] > 0
        assert snap["sim.events_dispatched"] > 0

    def test_spans_cover_verbs_rdma_and_link(self):
        tel = Telemetry()
        self.run_one_read(tel)
        names = tel.tracer.span_names()
        assert names["verbs.read_sync"] == 1
        assert names["rdma.read"] == 1
        assert names["link.tx"] >= 2  # request out, response back
        # All timestamps are sim-time (the read completes in microseconds).
        assert 0 < tel.tracer.last_timestamp_ns() < 1e9


class TestExposedStats:
    """Component counts reach telemetry through their stats objects."""

    def test_lossy_run_snapshot_equals_component_stats(self):
        from repro.sim.network import FaultInjector
        from repro.testbed import Testbed

        tel = Telemetry()
        with telemetry.activate(tel):
            bed = Testbed()
            compute = bed.add_host("compute", cpu_cores=2)
            pool = bed.add_host("pool")
            qp_c, _ = bed.connect_qps(compute, pool)
        # Only the pool's uplink loses packets: the first read response
        # and the ACK of the first write.
        pool.uplink.fault_injector = FaultInjector(drop_exactly=[1, 3])
        remote = pool.registry.register(1 << 12)
        local = compute.registry.register(1 << 12)
        local.write(local.base_addr + 1024, b"w" * 64)
        thread = compute.cpu.thread()

        def ops():
            for i in range(2):
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, remote.base_addr + 64 * i,
                    remote.rkey, 64,
                )
                yield from compute.verbs.write_sync(
                    thread, qp_c, local.base_addr + 1024,
                    remote.base_addr + 64 * i, remote.rkey, 64,
                )

        bed.sim.run_until_complete(bed.sim.spawn(ops()), deadline=1e9)
        snap = tel.snapshot()

        def numeric(stats):
            return {
                f.name: getattr(stats, f.name)
                for f in dataclasses.fields(stats)
                if isinstance(getattr(stats, f.name), (int, float))
            }

        components = [(f"switch.{bed.switch.name}", bed.switch.stats)]
        for host in (compute, pool):
            components.append((f"nic.{host.name}", host.nic.stats))
            for link in (host.uplink, bed.switch.port_to(host.name)):
                components.append((f"link.{link.name}", link.stats))
        for prefix, stats in components:
            fields = numeric(stats)
            assert fields
            for name, value in fields.items():
                assert snap[f"{prefix}.{name}"] == value, f"{prefix}.{name}"
        assert pool.uplink.stats.packets_dropped == 2
        assert snap[f"link.{pool.uplink.name}.packets_dropped"] == 2
        assert snap["nic.compute.retransmit_timeouts"] == 2
        assert compute.nic.stats.retransmit_timeouts == 2
        assert snap[f"qp.{qp_c.qpn}.retransmits"] == qp_c.retransmissions > 0
        assert snap["nic.pool.duplicates"] == pool.nic.stats.duplicates > 0

    def test_dropped_testbed_is_not_kept_alive(self):
        from repro.testbed import Testbed

        tel = Telemetry()
        with telemetry.activate(tel):
            bed = Testbed()
            compute = bed.add_host("compute", cpu_cores=2)
            pool = bed.add_host("pool")
            bed.connect_qps(compute, pool)
        sim_ref = weakref.ref(bed.sim)
        assert "nic.compute.tx_packets" in tel.snapshot()
        del bed, compute, pool
        gc.collect()
        assert sim_ref() is None
        assert tel.snapshot()["nic.compute.tx_packets"] == 0


class TestDeterminism:
    """Enabling telemetry must never change an experiment's numbers."""

    @pytest.mark.parametrize("system", ["one-sided", "cowbird", "cowbird-p4"])
    def test_microbench_identical_with_and_without(self, system):
        from repro.experiments.common import run_microbench

        kwargs = dict(threads=2, ops_per_thread=40)
        bare = run_microbench(system, **kwargs)
        with telemetry.activate() as tel:
            traced = run_microbench(system, **kwargs)
        assert len(tel.tracer) > 0  # telemetry actually recorded
        assert traced.total_ops == bare.total_ops
        assert traced.elapsed_ns == bare.elapsed_ns
        assert traced.throughput_mops == bare.throughput_mops
        assert traced.comm_cpu_ns == bare.comm_cpu_ns
        assert traced.per_thread_mops == bare.per_thread_mops

    def test_fig01_identical_with_and_without(self):
        from repro.experiments import fig01

        bare = fig01.run(ops_per_thread=20)
        with telemetry.activate():
            traced = fig01.run(ops_per_thread=20)
        assert traced == bare


class TestCli:
    def test_run_with_trace_metrics_and_json(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        json_path = tmp_path / "dump.json"
        rc = main([
            "run", "fig01", "--ops", "10",
            "--trace", str(trace_path),
            "--json", str(json_path),
            "--metrics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry metrics" in out
        # The trace holds spans from at least three subsystems.
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"verbs.read_sync", "link.tx", "sim.process"} <= names
        # The JSON dump carries run metadata without displacing records.
        dump = json.loads(json_path.read_text())
        assert "fig01" in dump
        meta = dump["meta"]
        assert meta["repro_version"]
        entry = meta["experiments"]["fig01"]
        assert entry["seed"] == 1
        assert entry["sim_duration_ns"] > 0
        # wall-clock stays on stdout only: keeping it out of the dump is
        # what makes serial and parallel runs byte-identical.
        assert "wall_clock_s" not in entry
        assert entry["total_ops"] > 0

    def test_metrics_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["metrics", "fig02", "--prefix", "nic."])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nic.compute.posts" in out
