"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import gc

import pytest

from repro.sim.engine import AllOf, AnyOf, Future, SimulationError, Simulator


class TestClockAndCallbacks:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_call_after_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.call_after(100, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100.0]
        assert sim.now == 100.0

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_after(300, lambda: order.append("c"))
        sim.call_after(100, lambda: order.append("a"))
        sim.call_after(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_callbacks_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.call_after(50, lambda label=label: order.append(label))
        sim.run()
        assert order == list("abcde")

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.call_after(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(50, lambda: None)

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.call_after(100, lambda: fired.append(1))
        sim.call_after(500, lambda: fired.append(2))
        sim.run(until=200)
        assert fired == [1]
        assert sim.now == 200.0
        sim.run()
        assert fired == [1, 2]

    def test_run_with_no_events_and_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=1000)
        assert sim.now == 1000.0

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.call_after(10, inner)

        def inner():
            times.append(sim.now)

        sim.call_after(5, outer)
        sim.run()
        assert times == [5.0, 15.0]


class TestFuture:
    def test_resolve_delivers_value(self):
        sim = Simulator()
        future = sim.future()
        future.resolve(42)
        assert future.done
        assert future.value == 42

    def test_value_before_resolution_raises(self):
        sim = Simulator()
        future = sim.future()
        with pytest.raises(SimulationError):
            _ = future.value

    def test_double_resolve_raises(self):
        sim = Simulator()
        future = sim.future()
        future.resolve(1)
        with pytest.raises(SimulationError):
            future.resolve(2)

    def test_fail_propagates_exception_on_value(self):
        sim = Simulator()
        future = sim.future()
        future.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            _ = future.value

    def test_callback_after_resolution_fires_immediately(self):
        sim = Simulator()
        future = sim.future()
        future.resolve("x")
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        assert seen == ["x"]

    def test_timeout_future(self):
        sim = Simulator()
        future = sim.timeout(250, value="done")
        sim.run()
        assert future.value == "done"
        assert sim.now == 250.0


class TestCombinators:
    def test_all_of_collects_values_in_order(self):
        sim = Simulator()
        futures = [sim.timeout(delay, value=delay) for delay in (30, 10, 20)]
        combined = sim.all_of(futures)
        sim.run()
        assert combined.value == [30, 10, 20]

    def test_all_of_empty_resolves_immediately(self):
        sim = Simulator()
        combined = sim.all_of([])
        assert combined.done
        assert combined.value == []

    def test_all_of_fails_fast(self):
        sim = Simulator()
        good = sim.timeout(100, value=1)
        bad = sim.future()
        combined = AllOf(sim, [good, bad])
        bad.fail(RuntimeError("child failed"))
        with pytest.raises(RuntimeError, match="child failed"):
            _ = combined.value

    def test_any_of_returns_winner_index_and_value(self):
        sim = Simulator()
        slow = sim.timeout(500, value="slow")
        fast = sim.timeout(100, value="fast")
        combined = sim.any_of([slow, fast])
        sim.run()
        assert combined.value == (1, "fast")

    def test_any_of_requires_children(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            AnyOf(sim, [])


class TestProcess:
    def test_yield_delay(self):
        sim = Simulator()

        def proc():
            yield 100
            yield 50
            return sim.now

        result = sim.run_until_complete(sim.spawn(proc()))
        assert result == 150.0

    def test_yield_future_receives_value(self):
        sim = Simulator()

        def proc():
            value = yield sim.timeout(10, value=99)
            return value

        assert sim.run_until_complete(sim.spawn(proc())) == 99

    def test_yield_none_resumes_same_timestamp(self):
        sim = Simulator()

        def proc():
            before = sim.now
            yield None
            return sim.now - before

        assert sim.run_until_complete(sim.spawn(proc())) == 0.0

    def test_yield_process_waits_for_child(self):
        sim = Simulator()

        def child():
            yield 200
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return (sim.now, result)

        assert sim.run_until_complete(sim.spawn(parent())) == (200.0, "child-result")

    def test_negative_delay_raises_inside_process(self):
        sim = Simulator()

        def proc():
            yield -5

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.completion.value

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "not-a-valid-target"

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.completion.value

    def test_exception_inside_process_captured(self):
        sim = Simulator()

        def proc():
            yield 10
            raise KeyError("inner")

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(KeyError):
            _ = process.completion.value

    def test_failed_future_throws_into_waiter(self):
        sim = Simulator()
        future = sim.future()

        def proc():
            try:
                yield future
            except ValueError:
                return "caught"
            return "not-caught"

        process = sim.spawn(proc())
        sim.call_after(10, lambda: future.fail(ValueError("x")))
        assert sim.run_until_complete(process) == "caught"

    def test_an_unreferenced_blocked_process_still_finishes(self):
        """Nothing keeps a registry of live processes: a spawned process
        that nobody references, blocked on a future a timer resolves, is
        kept alive by that future and runs to completion."""
        sim = Simulator()
        finished = []

        def proc():
            future = sim.future()
            sim.call_after(100, lambda: future.resolve("late"))
            value = yield future
            finished.append((sim.now, value))

        sim.spawn(proc())
        sim.run(until=50)
        gc.collect()
        assert finished == []
        sim.run()
        assert finished == [(100.0, "late")]

    def test_deadlock_detection(self):
        sim = Simulator()

        def proc():
            yield sim.future()  # never resolved

        process = sim.spawn(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(process)

    def test_deadline_enforced(self):
        sim = Simulator()

        def proc():
            yield 10_000

        process = sim.spawn(proc())
        with pytest.raises(SimulationError, match="deadline"):
            sim.run_until_complete(process, deadline=100)

    def test_alive_transitions(self):
        sim = Simulator()

        def proc():
            yield 10

        process = sim.spawn(proc())
        assert process.alive
        sim.run()
        assert not process.alive

    def test_many_processes_interleave_deterministically(self):
        def run_once():
            sim = Simulator()
            log = []

            def worker(worker_id, period):
                for _ in range(3):
                    yield period
                    log.append((sim.now, worker_id))

            for worker_id, period in [(1, 30), (2, 20), (3, 30)]:
                sim.spawn(worker(worker_id, period))
            sim.run()
            return log

        assert run_once() == run_once()
