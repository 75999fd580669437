"""Spot-VM reclamation: offload-engine failover and recovery.

The paper motivates Cowbird-Spot with spot instances (Section 2.2),
which "can be reclaimed by the cloud provider at any time".  These tests
kill the agent mid-workload and hand the (still running) client
instances to a fresh agent on a new host, which reconstructs its cursors
from the client's red block and re-executes the incomplete suffix.
"""


from repro.cowbird.spot_engine import CowbirdSpotEngine, SpotEngineConfig
from repro.cowbird.wire import RedBlock, RwType, decode_request_id
from repro.experiments.common import build_microbench
from tests.client_only import client_only


def start_replacement_agent(dep, recover=True):
    """Spin up a new agent host and adopt the existing instances."""
    replacement = dep.bed.add_host(
        f"spot-agent-{len(dep.bed.hosts)}", cpu_cores=1, smt=2
    )
    engine = CowbirdSpotEngine(replacement, SpotEngineConfig())
    for instance in dep.instances:
        engine.register_instance(instance, {"pool": dep.pool_host},
                                 recover=recover)
    engine.start()
    return engine


class TestRecoveryBookkeeping:
    def test_fresh_recovery_matches_zero_state(self):
        dep = client_only()
        agent = dep.bed.add_host("agent", cpu_cores=1, smt=2)
        engine = CowbirdSpotEngine(agent)
        engine.register_instance(dep.instances[0], {"pool": dep.pool_host},
                                 recover=True)
        state = engine._instances[0]
        assert state.parsed_meta == 0
        assert state.read_count == 0
        assert state.red == RedBlock()

    def test_recovery_adopts_red_block_cursors(self):
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            for i in range(10):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
            done = 0
            while done < 10:
                events = yield from inst.poll_wait(thread, poll, max_ret=16)
                done += len(events)

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=50e9)
        dep.engine.stop()
        engine2 = start_replacement_agent(dep)
        state = engine2._instances[0]
        assert state.parsed_meta == 10
        assert state.read_count == 10
        assert state.write_count == 0
        assert state.red == RedBlock(
            request_meta_head=10, request_data_head=0,
            response_data_tail=10 * 64, write_progress=0, read_progress=10,
        )


class TestMidFlightFailover:
    def test_pending_requests_complete_on_new_agent(self):
        """Requests issued after (or lost during) the reclamation are
        executed by the replacement agent."""
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        pool_region = dep.pool_region()
        for i in range(20):
            pool_region.write(dep.region.translate(i * 64), bytes([i + 1]) * 64)
        sim = dep.sim
        results = {}

        def app():
            poll = inst.poll_create()
            rids = []
            # First half completes on the original agent.
            for i in range(10):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
                rids.append(rid)
            done = 0
            while done < 10:
                events = yield from inst.poll_wait(thread, poll, max_ret=16)
                done += len(events)
            # --- reclamation: the agent dies right now ---
            dep.engine.stop()
            # The client keeps issuing, unaware.
            for i in range(10, 20):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
                rids.append(rid)
            # Grace period passes; a replacement agent takes over.
            yield from thread.sleep(50_000)
            start_replacement_agent(dep)
            while done < 20:
                events = yield from inst.poll_wait(thread, poll, max_ret=16)
                done += len(events)
            for rid in rids:
                results[rid] = inst.fetch_response(rid)

        sim.run_until_complete(sim.spawn(app()), deadline=300e9)
        assert len(results) == 20
        values = [v[0] for v in results.values()]
        assert sorted(values) == list(range(1, 21))

    def test_unfinished_writes_reexecuted(self):
        """Writes parsed but not completed by the dead agent re-execute
        from the request data ring (payloads persist until the head
        advances)."""
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        sim = dep.sim

        def app():
            poll = inst.poll_create()
            # Kill the agent immediately: nothing gets executed.
            dep.engine.stop()
            wids = []
            for i in range(5):
                wid = yield from inst.async_write(
                    thread, 0, i * 64, bytes([0xA0 + i]) * 32
                )
                inst.poll_add(poll, wid)
                wids.append(wid)
            yield from thread.sleep(20_000)
            start_replacement_agent(dep)
            done = 0
            while done < 5:
                events = yield from inst.poll_wait(thread, poll, max_ret=8)
                done += len(events)

        sim.run_until_complete(sim.spawn(app()), deadline=300e9)
        pool_region = dep.pool_region()
        for i in range(5):
            assert pool_region.read(dep.region.translate(i * 64), 32) == (
                bytes([0xA0 + i]) * 32
            )

    def test_interleaved_types_recover_consistently(self):
        """The prefix-published red block keeps per-type sequence
        numbering correct across a failover even when reads and writes
        interleave."""
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        sim = dep.sim
        pool_region = dep.pool_region()
        pool_region.write(dep.region.translate(4096), b"R" * 64)

        def app():
            poll = inst.poll_create()
            ids = []
            for i in range(4):
                wid = yield from inst.async_write(thread, 0, i * 64, b"W" * 16)
                rid = yield from inst.async_read(thread, 0, 4096, 64)
                inst.poll_add(poll, wid)
                inst.poll_add(poll, rid)
                ids.extend([wid, rid])
            done = 0
            while done < 4:  # let roughly half complete
                events = yield from inst.poll_wait(thread, poll, max_ret=2)
                done += len(events)
            dep.engine.stop()
            yield from thread.sleep(20_000)
            start_replacement_agent(dep)
            while done < 8:
                events = yield from inst.poll_wait(thread, poll, max_ret=8)
                done += len(events)
            return ids

        ids = sim.run_until_complete(sim.spawn(app()), deadline=300e9)
        # Every write landed; every read returned the right bytes.
        for request_id in ids:
            rw_type, _region, _seq = decode_request_id(request_id)
            if rw_type is RwType.READ:
                assert inst.fetch_response(request_id) == b"R" * 64
        for i in range(4):
            assert pool_region.read(dep.region.translate(i * 64), 16) == b"W" * 16


class TestConvenienceApi:
    def test_wait_one(self):
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        dep.pool_region().write(dep.region.translate(0), b"single")

        def app():
            rid = yield from inst.async_read(thread, 0, 0, 6)
            event = yield from inst.wait_one(thread, rid)
            return inst.fetch_response(event.request_id)

        assert dep.sim.run_until_complete(dep.sim.spawn(app()),
                                          deadline=50e9) == b"single"

    def test_wait_one_timeout(self):
        dep = client_only()  # no engine: never completes
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            rid = yield from inst.async_read(thread, 0, 0, 8)
            return (yield from inst.wait_one(thread, rid, timeout=5_000))

        assert dep.sim.run_until_complete(dep.sim.spawn(app()),
                                          deadline=50e9) is None

    def test_select_returns_ready_subset(self):
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            rids = []
            for i in range(4):
                rid = yield from inst.async_read(thread, 0, i * 64, 16)
                rids.append(rid)
            collected = []
            while len(collected) < 4:
                remaining = [r for r in rids if r not in collected]
                events = yield from inst.select(thread, remaining)
                collected.extend(e.request_id for e in events)
            return collected

        collected = dep.sim.run_until_complete(dep.sim.spawn(app()),
                                               deadline=50e9)
        assert len(collected) == 4

    def test_select_empty_is_noop(self):
        dep = client_only()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            return (yield from inst.select(thread, []))

        assert dep.sim.run_until_complete(dep.sim.spawn(app()),
                                          deadline=1e9) == []
