"""Unit tests for the CPU/thread model (repro.sim.cpu)."""

import itertools

import pytest

from repro.sim.cpu import CPU, CostModel, TAG_APP, TAG_COMM
from repro.sim.engine import SimulationError, Simulator


def make_cpu(cores=2, smt=1, **cost_overrides):
    sim = Simulator()
    cost = CostModel(**cost_overrides)
    return sim, CPU(sim, physical_cores=cores, smt=smt, cost_model=cost)


class TestCostModel:
    def test_figure2_rdma_total_in_paper_band(self):
        """The paper reports ~600-700 ns for a full async RDMA post+poll."""
        cost = CostModel()
        assert 550 <= cost.rdma_read_cpu_total() <= 720

    def test_figure2_cowbird_is_order_of_magnitude_cheaper(self):
        cost = CostModel()
        assert cost.rdma_read_cpu_total() >= 10 * cost.cowbird_read_cpu_total()

    def test_cowbird_cost_comparable_to_local_memory_writes(self):
        """Figure 2: Cowbird's cost is a handful of local memory writes."""
        cost = CostModel()
        assert cost.cowbird_read_cpu_total() <= 6 * cost.local_memory_write

    def test_post_and_poll_components_sum(self):
        cost = CostModel()
        assert cost.rdma_post_total() == pytest.approx(
            cost.rdma_post_lock + cost.rdma_post_doorbell + cost.rdma_post_wqe
        )
        assert cost.rdma_poll_total() == pytest.approx(
            cost.rdma_poll_lock + cost.rdma_poll_cqe
        )


class TestThreadCompute:
    def test_compute_takes_simulated_time(self):
        sim, cpu = make_cpu(cores=1)
        thread = cpu.thread()

        def worker():
            yield from thread.compute(100)
            return sim.now

        assert sim.run_until_complete(sim.spawn(worker())) == 100.0

    def test_compute_charges_tagged_account(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.compute(100, tag=TAG_APP)
            yield from thread.compute(40, tag=TAG_COMM)
            yield from thread.compute(60, tag=TAG_COMM)

        sim.run_until_complete(sim.spawn(worker()))
        assert thread.stats.cpu_ns[TAG_APP] == 100.0
        assert thread.stats.cpu_ns[TAG_COMM] == 100.0
        assert thread.stats.total_cpu_ns == 200.0

    def test_zero_compute_is_free(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.compute(0)
            return sim.now

        assert sim.run_until_complete(sim.spawn(worker())) == 0.0

    def test_negative_compute_raises(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.compute(-1)

        process = sim.spawn(worker())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.completion.value

    def test_two_threads_two_cores_run_in_parallel(self):
        sim, cpu = make_cpu(cores=2)
        t1, t2 = cpu.thread(), cpu.thread()
        done = []

        def worker(thread):
            yield from thread.compute(100)
            done.append(sim.now)

        sim.spawn(worker(t1))
        sim.spawn(worker(t2))
        sim.run()
        assert done == [100.0, 100.0]

    def test_two_threads_one_core_serialize(self):
        sim, cpu = make_cpu(cores=1)
        t1, t2 = cpu.thread(), cpu.thread()
        done = []

        def worker(thread):
            yield from thread.compute(100)
            done.append(sim.now)

        sim.spawn(worker(t1))
        sim.spawn(worker(t2))
        sim.run()
        assert done == [100.0, 200.0]

    def test_queue_wait_recorded_under_contention(self):
        sim, cpu = make_cpu(cores=1)
        t1, t2 = cpu.thread(), cpu.thread()

        def worker(thread):
            yield from thread.compute(100)

        sim.spawn(worker(t1))
        sim.spawn(worker(t2))
        sim.run()
        assert t1.stats.queue_wait_ns == 0.0
        assert t2.stats.queue_wait_ns == 100.0

    def test_core_released_between_chunks_interleaves_fairly(self):
        """Cooperative chunks approximate timesharing: with one core and
        two threads doing 3 x 100 ns chunks, both finish around 600 ns."""
        sim, cpu = make_cpu(cores=1)
        threads = [cpu.thread(), cpu.thread()]
        finish = {}

        def worker(thread):
            for _ in range(3):
                yield from thread.compute(100)
            finish[thread.name] = sim.now

        for thread in threads:
            sim.spawn(worker(thread))
        sim.run()
        assert max(finish.values()) == 600.0
        assert min(finish.values()) == 500.0


class TestSmt:
    def test_smt_doubles_hardware_threads(self):
        sim, cpu = make_cpu(cores=4, smt=2)
        assert cpu.physical_cores == 4
        assert cpu.hardware_threads == 8

    def test_lone_thread_on_core_runs_full_speed(self):
        sim, cpu = make_cpu(cores=1, smt=2)
        thread = cpu.thread()

        def worker():
            yield from thread.compute(100)
            return sim.now

        assert sim.run_until_complete(sim.spawn(worker())) == 100.0

    def test_sibling_sharing_slows_both(self):
        sim, cpu = make_cpu(cores=1, smt=2, smt_efficiency=0.5)
        t1, t2 = cpu.thread(), cpu.thread()
        done = []

        def worker(thread):
            yield from thread.compute(100)
            done.append(sim.now)

        sim.spawn(worker(t1))
        sim.spawn(worker(t2))
        sim.run()
        # Both start together; both stretched to 200 ns by 0.5 efficiency.
        assert done == [200.0, 200.0]

    def test_empty_cores_preferred_over_siblings(self):
        sim, cpu = make_cpu(cores=2, smt=2, smt_efficiency=0.5)
        t1, t2 = cpu.thread(), cpu.thread()
        done = []

        def worker(thread):
            yield from thread.compute(100)
            done.append(sim.now)

        sim.spawn(worker(t1))
        sim.spawn(worker(t2))
        sim.run()
        # Scheduler spreads across physical cores: no SMT penalty.
        assert done == [100.0, 100.0]

    def test_invalid_configs_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CPU(sim, physical_cores=0)
        with pytest.raises(ValueError):
            CPU(sim, physical_cores=1, smt=0)


class TestInlinedSlotPolicy:
    """Thread.compute inlines CPU._pick_core, _take_slot and _release and
    ThreadStats.charge, which spin_wait and _admit_waiters keep: from any
    core occupancy both must pick the same core."""

    PATTERNS = [
        busy for busy in itertools.product(range(3), repeat=3) if busy != (2, 2, 2)
    ]

    @staticmethod
    def occupied(busy, smt_efficiency=0.7):
        sim, cpu = make_cpu(cores=3, smt=2, smt_efficiency=smt_efficiency)
        for core, count in zip(cpu._cores, busy):
            core.occupants.update(range(-count, 0))
        return sim, cpu

    @staticmethod
    def core_of(cpu, thread):
        (core,) = [core for core in cpu._cores if thread.thread_id in core.occupants]
        return core

    @pytest.mark.parametrize("busy", PATTERNS)
    def test_compute_and_spin_wait_pick_the_same_core(self, busy):
        sim, cpu = self.occupied(busy)
        expected = cpu._pick_core()
        shared = len(expected.occupants) > 0
        thread = cpu.thread()
        sim.spawn(thread.compute(100.0))
        sim.run(until=1.0)
        assert self.core_of(cpu, thread) is expected
        sim.run()
        assert sim.now == (100.0 * (1.0 / 0.7) if shared else 100.0)
        assert thread.stats.cpu_ns == {TAG_APP: 100.0}
        assert [len(core.occupants) for core in cpu._cores] == list(busy)

        sim, cpu = self.occupied(busy)
        thread = cpu.thread()
        sim.spawn(thread.spin_wait(sim.future()))
        sim.run(until=1.0)
        assert self.core_of(cpu, thread).index == expected.index

    @pytest.mark.parametrize("freed", PATTERNS)
    def test_released_slot_goes_where_compute_would_go(self, freed):
        """A chunk's release admits a queued thread through _admit_waiters
        onto the core compute itself would pick."""
        sim, cpu = self.occupied((2, 2, 2))
        waiter = cpu.thread()
        sim.spawn(waiter.compute(100.0))
        sim.run(until=1.0)
        assert cpu._wait_queue
        for core, count in zip(cpu._cores, freed):
            core.occupants.difference_update(range(-2, -count))
        expected_index = cpu._pick_core().index
        probe_sim, probe_cpu = self.occupied(freed)
        probe = probe_cpu.thread()
        probe_sim.spawn(probe.compute(100.0))
        probe_sim.run(until=1.0)
        assert self.core_of(probe_cpu, probe).index == expected_index
        cpu._admit_waiters()
        sim.run(until=2.0)
        assert self.core_of(cpu, waiter).index == expected_index


class TestAccounting:
    def test_blocked_time_recorded(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.compute(50)
            yield from thread.wait(sim.timeout(500))
            yield from thread.compute(50)

        sim.run_until_complete(sim.spawn(worker()))
        assert thread.stats.blocked_ns == 500.0
        assert thread.stats.total_cpu_ns == 100.0

    def test_sleep_counts_as_blocked(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.sleep(300)

        sim.run_until_complete(sim.spawn(worker()))
        assert thread.stats.blocked_ns == 300.0

    def test_communication_ratio_pure_app(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.compute(1000, tag=TAG_APP)

        sim.run_until_complete(sim.spawn(worker()))
        assert thread.stats.communication_ratio() == 0.0

    def test_communication_ratio_counts_comm_and_blocking(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.compute(200, tag=TAG_APP)
            yield from thread.compute(300, tag=TAG_COMM)
            yield from thread.wait(sim.timeout(500))

        sim.run_until_complete(sim.spawn(worker()))
        # comm (300) + blocked (500) over total (1000)
        assert thread.stats.communication_ratio() == pytest.approx(0.8)

    def test_communication_ratio_empty_thread(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()
        assert thread.stats.communication_ratio() == 0.0

    def test_wall_time_via_finish(self):
        sim, cpu = make_cpu()
        thread = cpu.thread()

        def worker():
            yield from thread.compute(100)
            thread.finish()

        sim.run_until_complete(sim.spawn(worker()))
        assert thread.stats.wall_ns == 100.0
