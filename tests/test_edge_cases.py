"""Edge-case and stress tests across the stack."""


from repro.cowbird.api import CowbirdConfig
from repro.cowbird.wire import RequestMetadata, RwType
from repro.experiments.common import build_microbench
from repro.rdma.packets import PSN_MODULUS
from repro.testbed import Testbed


class TestPsnWraparound:
    """QPs whose PSNs cross the 24-bit boundary must keep working."""

    def build(self, initial_psn):
        bed = Testbed()
        compute = bed.add_host("compute", cpu_cores=2)
        pool = bed.add_host("pool")
        qp_c, qp_p = bed.connect_qps(compute, pool)
        qp_c.window.send_psn = initial_psn
        qp_p.expected_psn = initial_psn
        remote = pool.registry.register(1 << 16)
        local = compute.registry.register(1 << 16)
        return bed, compute, qp_c, remote, local

    def test_reads_across_wrap(self):
        bed, compute, qp_c, remote, local = self.build(PSN_MODULUS - 3)
        remote.write(remote.base_addr, bytes(range(200)))
        thread = compute.cpu.thread()

        def op():
            for i in range(8):  # PSNs cross 2^24 mid-sequence
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, remote.base_addr + i * 8,
                    remote.rkey, 8,
                )

        bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9)
        assert qp_c.window.send_psn < 16  # wrapped
        assert local.read(local.base_addr, 8) == bytes(range(56, 64))

    def test_segmented_write_across_wrap(self):
        bed, compute, qp_c, remote, local = self.build(PSN_MODULUS - 2)
        payload = bytes(i % 255 for i in range(3000))
        local.write(local.base_addr, payload)
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.write_sync(
                thread, qp_c, local.base_addr, remote.base_addr,
                remote.rkey, 3000,
            )

        bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9)
        assert remote.read(remote.base_addr, 3000) == payload


class TestEngineRaces:
    def test_engine_sees_invalid_entry_and_retries(self):
        """An entry whose rw_type has not been written yet (the client
        writes it last) must stop the parse, not corrupt state."""
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        # Simulate a torn append: bump the tail past a zeroed entry.
        inst.metadata_ring.tail += 1
        inst.green.request_meta_tail = inst.metadata_ring.tail
        inst._publish_green()
        dep.sim.run(until=100_000)
        engine_state = dep.engine._instances[0]
        assert engine_state.parsed_meta == 0  # stopped at INVALID
        # Now complete the append properly and issue through the API.
        entry = RequestMetadata(
            rw_type=RwType.READ,
            req_addr=dep.region.translate(0),
            resp_addr=inst.response_data.base_addr,
            length=16,
            region_id=0,
        )
        inst.region.write(inst.metadata_ring.addr_of(0), entry.pack())
        inst._reads[1] = __import__(
            "repro.cowbird.api", fromlist=["_OutstandingRead"]
        )._OutstandingRead(sequence=1, addr=entry.resp_addr, length=16, pad=0)
        inst.response_data.tail += 16
        dep.sim.run(until=300_000)
        assert dep.engine._instances[0].parsed_meta == 1

    def test_metadata_ring_wraps_many_times(self):
        """Long-running instance: ring indices far beyond capacity."""
        dep = build_microbench(
            "cowbird", 1, cowbird_config=CowbirdConfig(metadata_capacity=8),
        )
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        n = 50  # 6+ wraps of the 8-entry ring

        def app():
            poll = inst.poll_create()
            for i in range(n):
                rid = yield from inst.async_read(thread, 0, (i % 64) * 8, 8)
                inst.poll_add(poll, rid)
                events = yield from inst.poll_wait(thread, poll, max_ret=8,
                                                   timeout=0)
                del events
                # Throttle to ring capacity.
                while inst.metadata_ring.free_entries() == 0:
                    yield from inst.poll_wait(thread, poll, max_ret=8)
            while inst.requests_completed < n:
                yield from inst.poll_wait(thread, poll, max_ret=8)

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=100e9)
        assert inst.requests_completed == n
        assert inst.metadata_ring.tail == n

    def test_response_ring_wrap_with_batching(self):
        """Response payloads wrapping the ring boundary force batch
        splits; data must stay intact."""
        dep = build_microbench(
            "cowbird", 1,
            cowbird_config=CowbirdConfig(response_data_capacity=1024),
        )
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        pool_region = dep.pool_region()
        for i in range(20):
            pool_region.write(dep.region.translate(i * 100), bytes([i + 1]) * 100)

        def app():
            poll = inst.poll_create()
            got = {}
            for i in range(20):
                rid = yield from inst.async_read(thread, 0, i * 100, 100)
                inst.poll_add(poll, rid)
                events = yield from inst.poll_wait(thread, poll, max_ret=4)
                for event in events:
                    got[event.request_id] = inst.fetch_response(event.request_id)
            while len(got) < 20:
                events = yield from inst.poll_wait(thread, poll, max_ret=8)
                for event in events:
                    got[event.request_id] = inst.fetch_response(event.request_id)
            return got

        got = dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=100e9)
        values = sorted(set(v[0] for v in got.values()))
        assert values == list(range(1, 21))


class TestMultiplePools:
    def test_instance_spanning_two_memory_pools(self):
        """An instance can register regions on distinct pool nodes; the
        engine opens one channel per pool (Section 5.4)."""
        from repro.cowbird.api import CowbirdClient
        from repro.cowbird.spot_engine import CowbirdSpotEngine

        bed = Testbed()
        compute = bed.add_host("compute", cpu_cores=2)
        pools = {}
        handles = []
        for name in ("pool-a", "pool-b"):
            host, pool = bed.add_pool(name)
            handle = pool.allocate_region(1 << 16)
            # Region ids must be distinct across pools for one client.
            object.__setattr__(handle, "region_id", len(handles))
            pools[name] = (host, pool, handle)
            handles.append(handle)
        agent = bed.add_host("agent", cpu_cores=1, smt=2)
        client = CowbirdClient(compute)
        for handle in handles:
            client.register_remote_region(handle)
        instance = client.create_instance()
        engine = CowbirdSpotEngine(agent)
        engine.register_instance(
            instance, {name: pools[name][0] for name in pools}
        )
        engine.start()
        thread = compute.cpu.thread()
        pools["pool-a"][1].region_for(handles[0]).write(
            handles[0].translate(0), b"from-pool-a"
        )
        pools["pool-b"][1].region_for(handles[1]).write(
            handles[1].translate(0), b"from-pool-b"
        )

        def app():
            poll = instance.poll_create()
            r0 = yield from instance.async_read(thread, 0, 0, 11)
            r1 = yield from instance.async_read(thread, 1, 0, 11)
            instance.poll_add(poll, r0)
            instance.poll_add(poll, r1)
            done = 0
            while done < 2:
                events = yield from instance.poll_wait(thread, poll, max_ret=4)
                done += len(events)
            return instance.fetch_response(r0), instance.fetch_response(r1)

        a, b = bed.sim.run_until_complete(bed.sim.spawn(app()), deadline=50e9)
        assert a == b"from-pool-a"
        assert b == b"from-pool-b"


class TestCompletionQueueStress:
    def test_cq_never_overflows_under_normal_load(self):
        dep = build_microbench("cowbird", 1)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            for i in range(100):
                rid = yield from inst.async_read(thread, 0, (i % 128) * 8, 8)
                inst.poll_add(poll, rid)
            done = 0
            while done < 100:
                events = yield from inst.poll_wait(thread, poll, max_ret=64)
                done += len(events)

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=100e9)
        assert dep.engine.cq.overflows == 0
