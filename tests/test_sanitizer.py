"""Unit tests for the runtime ``SimSanitizer``.

Covers the four detector families (packet lifetime, timer tokens,
clock monotonicity, event-stream digest) plus the acceptance criterion
that a fig08 sweep's ``sim.digest`` is identical at ``--parallel 1``
and ``--parallel 4``.
"""

import heapq
import json

import pytest

from repro import telemetry
from repro.analysis import SanitizerError, sanitize_enabled
from repro.experiments.common import run_microbench
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.rdma.packets import Opcode, PacketPool
from repro.sim.engine import SimulationError, Simulator


def make_pool(sim):
    return PacketPool(sanitizer=sim.sanitizer)


def acquire(pool):
    return pool.acquire("a", "b", Opcode.RC_SEND_ONLY, dest_qp=1, psn=0)


class TestEnvGate:
    def test_sanitize_enabled_parses_common_values(self):
        assert not sanitize_enabled({})
        assert not sanitize_enabled({"REPRO_SANITIZE": "0"})
        assert not sanitize_enabled({"REPRO_SANITIZE": "false"})
        assert sanitize_enabled({"REPRO_SANITIZE": "1"})
        assert sanitize_enabled({"REPRO_SANITIZE": "yes"})

    def test_default_simulator_has_no_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = Simulator()
        assert sim.sanitizer is None
        with pytest.raises(SimulationError, match="requires the sanitizer"):
            sim.digest()

    def test_env_flag_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator().sanitizer is not None


class TestPacketLifetime:
    def test_double_release_raises_with_sites(self):
        sim = Simulator(sanitize=True)
        pool = make_pool(sim)
        packet = acquire(pool)
        pool.release(packet)
        with pytest.raises(SanitizerError, match="double-release"):
            pool.release(packet)

    def test_outstanding_packet_reported_as_leak(self):
        sim = Simulator(sanitize=True)
        pool = make_pool(sim)
        acquire(pool)
        with pytest.raises(SanitizerError, match="never released"):
            sim.sanitizer.check_end_of_run()

    def test_released_packet_is_not_a_leak(self):
        sim = Simulator(sanitize=True)
        pool = make_pool(sim)
        packet = acquire(pool)
        pool.release(packet)
        assert sim.sanitizer.check_end_of_run() == []

    def test_reacquired_shell_resets_double_release_state(self):
        sim = Simulator(sanitize=True)
        pool = make_pool(sim)
        first = acquire(pool)
        pool.release(first)
        again = acquire(pool)  # same shell off the free-list
        assert again is first
        pool.release(again)  # one release per acquire: legal
        assert sim.sanitizer.check_end_of_run() == []

    def test_foreign_release_is_counted_not_raised(self):
        sim = Simulator(sanitize=True)
        pool = make_pool(sim)
        packet = pool.acquire("a", "b", Opcode.RC_SEND_ONLY, dest_qp=1, psn=0)
        packet._pool = None  # simulate a never-pooled packet reaching release
        sim.sanitizer._outstanding.clear()
        sim.sanitizer._freed.clear()
        pool.release(packet)
        assert sim.sanitizer.foreign_releases == 1


class TestTimerTokens:
    def test_armed_token_reported(self):
        sim = Simulator(sanitize=True)
        sim.call_after_cancellable(10.0, lambda: None)
        with pytest.raises(SanitizerError, match="still armed"):
            sim.sanitizer.check_end_of_run()

    def test_cancelled_token_is_clean(self):
        sim = Simulator(sanitize=True)
        token = sim.call_after_cancellable(10.0, lambda: None)
        token.cancel()
        assert sim.sanitizer.check_end_of_run() == []

    def test_dispatched_token_is_clean(self):
        sim = Simulator(sanitize=True)
        fired = []
        sim.call_after_cancellable(10.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]
        assert sim.sanitizer.check_end_of_run() == []

    def test_token_fired_through_a_wrapper_is_clean(self, monkeypatch):
        """A tracer that wraps every scheduled callback (as the simulator
        benchmark's does) hands the loop a plain callable, not the token;
        the token still counts as fired."""
        call_at = Simulator.call_at

        def wrapping_call_at(sim, when, callback):
            return call_at(sim, when, lambda: callback())

        monkeypatch.setattr(Simulator, "call_at", wrapping_call_at)
        sim = Simulator(sanitize=True)
        fired = []
        sim.call_after_cancellable(10.0, lambda: fired.append(True))
        pending = sim.call_after_cancellable(50.0, lambda: fired.append(False))
        sim.run(until=20.0)
        assert fired == [True]
        assert len(sim.sanitizer.armed_tokens()) == 1
        pending.cancel()
        assert sim.sanitizer.check_end_of_run() == []


class TestClockAndDigest:
    def test_monotonic_violation_detected(self):
        sim = Simulator(sanitize=True)
        sim.now = 100.0
        heapq.heappush(sim._queue, (5.0, next(sim._sequence), lambda: None))
        sim.run()
        with pytest.raises(SanitizerError, match="ran backwards"):
            sim.sanitizer.check_end_of_run()

    def test_digest_deterministic_across_runs(self):
        def one_run():
            sim = Simulator(sanitize=True)

            def proc():
                for _ in range(5):
                    yield 3.0

            sim.spawn(proc(), name="p")
            sim.run()
            return sim.digest()

        assert one_run() == one_run()

    def test_digest_distinguishes_different_event_streams(self):
        def one_run(steps):
            sim = Simulator(sanitize=True)

            def proc():
                for _ in range(steps):
                    yield 3.0

            sim.spawn(proc(), name="p")
            sim.run()
            return sim.digest()

        assert one_run(5) != one_run(6)


class TestEndToEnd:
    def test_microbench_closes_leak_free_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = run_microbench(
            "cowbird-p4", threads=2, record_bytes=256, ops_per_thread=40, seed=3
        )
        assert result.total_ops == 80

    def test_fig08_digest_identical_parallel_1_vs_4(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        points = [
            SweepPoint(
                "microbench",
                dict(system=system, threads=2, record_bytes=256,
                     ops_per_thread=40, seed=8),
            )
            for system in ("local", "one-sided", "cowbird", "cowbird-p4")
        ]

        def sweep(parallel):
            tel = telemetry.Telemetry()
            with telemetry.activate(tel):
                run_sweep(points, parallel=parallel)
            return tel.snapshot()

        serial, fanned = sweep(1), sweep(4)
        assert serial["sim.digest"] == fanned["sim.digest"]
        assert serial["sim.digest"]["value"] > 0
        # The whole merged snapshot (digest gauge included) is byte-equal.
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            fanned, sort_keys=True
        )
