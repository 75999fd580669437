"""Tests for the packet sniffer, used to validate protocol sequences."""


from repro.experiments.common import build_microbench
from repro.rdma.packets import WRITES, Opcode
from repro.rdma.sniffer import PacketSniffer
from repro.testbed import Testbed


class TestBasicCapture:
    def run_one_read(self):
        bed = Testbed()
        compute = bed.add_host("compute", cpu_cores=2)
        pool = bed.add_host("pool")
        sniffer = PacketSniffer(bed.sim)
        sniffer.attach_nic(compute.nic)
        sniffer.attach_nic(pool.nic)
        qp_c, _ = bed.connect_qps(compute, pool)
        remote = pool.registry.register(1 << 12)
        local = compute.registry.register(1 << 12)
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 64
            )

        bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9)
        return sniffer

    def test_captures_request_and_response(self):
        sniffer = self.run_one_read()
        counts = sniffer.opcode_counts()
        assert counts["RC_RDMA_READ_REQUEST"] == 1
        assert counts["RC_RDMA_READ_RESPONSE_ONLY"] == 1

    def test_timestamps_monotonic(self):
        sniffer = self.run_one_read()
        times = [p.timestamp_ns for p in sniffer.packets]
        assert times == sorted(times)

    def test_filter_by_opcode_and_direction(self):
        sniffer = self.run_one_read()
        requests = sniffer.filter(opcode=Opcode.RC_RDMA_READ_REQUEST)
        assert len(requests) == 1
        assert requests[0].src == "compute"
        to_compute = sniffer.filter(dst="compute")
        assert all(p.dst == "compute" for p in to_compute)

    def test_render_produces_trace(self):
        sniffer = self.run_one_read()
        trace = sniffer.render()
        assert "RC_RDMA_READ_REQUEST" in trace
        assert "compute" in trace

    def test_capacity_cap(self):
        bed = Testbed()
        sniffer = PacketSniffer(bed.sim, max_packets=1)
        compute = bed.add_host("compute", cpu_cores=1)
        pool = bed.add_host("pool")
        sniffer.attach_nic(pool.nic)
        qp_c, _ = bed.connect_qps(compute, pool)
        remote = pool.registry.register(1 << 12)
        local = compute.registry.register(1 << 12)
        thread = compute.cpu.thread()

        def op():
            for i in range(3):
                yield from compute.verbs.read_sync(
                    thread, qp_c, local.base_addr, remote.base_addr,
                    remote.rkey, 8,
                )

        bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9)
        assert len(sniffer) == 1
        assert sniffer.dropped_over_capacity >= 2


class TestHookChaining:
    def test_attach_chains_with_existing_hooks(self):
        """The sniffer must tap alongside other rx hooks, not replace them."""
        bed = Testbed()
        compute = bed.add_host("compute", cpu_cores=2)
        pool = bed.add_host("pool")
        seen = []
        pool.nic.add_rx_hook(lambda packet: seen.append(packet))
        sniffer = PacketSniffer(bed.sim)
        sniffer.attach_nic(pool.nic)
        later = []
        pool.nic.add_rx_hook(lambda packet: later.append(packet))
        qp_c, _ = bed.connect_qps(compute, pool)
        remote = pool.registry.register(1 << 12)
        local = compute.registry.register(1 << 12)
        thread = compute.cpu.thread()

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 64
            )

        bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9)
        assert len(sniffer) >= 1
        assert len(seen) == len(later) == len(sniffer)


class TestExport:
    def make_capture(self):
        return TestBasicCapture().run_one_read()

    def test_to_jsonl(self, tmp_path):
        sniffer = self.make_capture()
        path = tmp_path / "packets.jsonl"
        count = sniffer.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert count == len(sniffer) == len(lines)
        import json

        first = json.loads(lines[0])
        assert first["opcode"] == "RC_RDMA_READ_REQUEST"
        assert first["src"] == "compute"
        assert first["timestamp_ns"] >= 0
        assert set(first) == {
            "timestamp_ns", "tap", "src", "dst", "opcode",
            "dest_qp", "psn", "payload_bytes", "size_bytes",
        }

    def test_to_chrome_trace(self, tmp_path):
        sniffer = self.make_capture()
        path = tmp_path / "packets.json"
        count = sniffer.to_chrome_trace(str(path))
        import json

        doc = json.loads(path.read_text())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == count == len(sniffer)
        taps = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert taps == {"rx@compute", "rx@pool"}
        assert all("psn" in e["args"] for e in instants)


class TestProtocolValidation:
    def test_p4_recycling_sequence_visible(self):
        """The sniffer shows the Section 5.2 sequence: probe read ->
        metadata read -> pool read -> spoofed write -> bookkeeping."""
        dep = build_microbench("cowbird-p4", 1)
        sniffer = PacketSniffer(dep.sim)
        sniffer.attach_nic(dep.compute.nic, "rx@compute")
        sniffer.attach_nic(dep.pool_host.nic, "rx@pool")
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        dep.pool_region().write(dep.region.translate(0), b"x" * 64)

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 0, 64)
            inst.poll_add(poll, rid)
            yield from inst.poll_wait(thread, poll)

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=50e9)
        counts = sniffer.opcode_counts()
        # Probes + metadata fetch + payload fetch are READ requests; the
        # spoofed data delivery and red update are WRITEs at the compute
        # node; the pool served exactly one read.
        assert counts["RC_RDMA_READ_REQUEST"] >= 3
        assert counts.get("RC_RDMA_WRITE_ONLY", 0) >= 2
        pool_reads = sniffer.filter(
            opcode=Opcode.RC_RDMA_READ_REQUEST, dst="pool"
        )
        assert len(pool_reads) == 1
        # The data write to the compute node carries the payload bytes.
        data_writes = [
            p for p in sniffer.filter(dst="compute")
            if p.opcode is Opcode.RC_RDMA_WRITE_ONLY and p.payload_bytes == 64
        ]
        assert len(data_writes) == 1

    def test_spot_batching_visible_in_byte_accounting(self):
        dep = build_microbench("cowbird", 1)
        sniffer = PacketSniffer(dep.sim)
        sniffer.attach_nic(dep.compute.nic)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            for i in range(32):
                rid = yield from inst.async_read(thread, 0, i * 64, 64)
                inst.poll_add(poll, rid)
            done = 0
            while done < 32:
                events = yield from inst.poll_wait(thread, poll, max_ret=32)
                done += len(events)

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=50e9)
        # 32 reads batched: far fewer than 32 write packets arrive.
        writes = [
            p for p in sniffer.filter(dst="compute")
            if p.opcode in WRITES and p.payload_bytes > 40
        ]
        assert len(writes) < 16
