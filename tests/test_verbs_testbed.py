"""Unit tests for the verbs layer, testbed assembly, and the deployment
builder."""

import pytest

from repro.experiments.common import build_microbench
from repro.rdma.nic import NicConfig
from repro.rdma.verbs import RdmaError
from repro.sim.cpu import CostModel, TAG_COMM
from repro.sim.tcp import TcpSegment
from repro.testbed import Testbed
from tests.client_only import client_only


class TestVerbsCosts:
    def build(self):
        bed = Testbed()
        compute = bed.add_host("compute", cpu_cores=2)
        pool = bed.add_host("pool")
        qp_c, _ = bed.connect_qps(compute, pool)
        remote = pool.registry.register(1 << 16)
        local = compute.registry.register(1 << 16)
        return bed, compute, qp_c, remote, local

    def test_post_charges_figure2_breakdown(self):
        bed, compute, qp_c, remote, local = self.build()
        thread = compute.cpu.thread()
        cost = compute.verbs.cost

        def op():
            yield from compute.verbs.read_async(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 8
            )

        bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9)
        assert thread.stats.cpu_ns[TAG_COMM] == pytest.approx(
            cost.rdma_post_total()
        )

    def test_poll_empty_cheaper_than_reap(self):
        bed, compute, qp_c, remote, local = self.build()
        cost = compute.verbs.cost
        t_empty = compute.cpu.thread()
        t_reap = compute.cpu.thread()

        def empty_poll():
            completions = yield from compute.verbs.poll_cq(t_empty, qp_c.cq)
            assert completions == []

        bed.sim.run_until_complete(bed.sim.spawn(empty_poll()), deadline=1e9)

        def read_and_reap():
            yield from compute.verbs.read_async(
                t_reap, qp_c, local.base_addr, remote.base_addr, remote.rkey, 8
            )
            waiter = bed.sim.future()
            qp_c.cq.notify_next_push(waiter)
            yield from t_reap.wait(waiter)
            yield from compute.verbs.poll_cq(t_reap, qp_c.cq)

        bed.sim.run_until_complete(bed.sim.spawn(read_and_reap()), deadline=1e9)
        reap_cost = t_reap.stats.cpu_ns[TAG_COMM] - cost.rdma_post_total()
        assert t_empty.stats.cpu_ns[TAG_COMM] < reap_cost

    def test_rdma_error_surfaces_status(self):
        bed, compute, qp_c, remote, local = self.build()
        thread = compute.cpu.thread()
        # Black-hole the uplink so retries exhaust.
        from repro.sim.network import FaultInjector

        compute.uplink.fault_injector = FaultInjector(seed=1, drop_rate=1.0)

        def op():
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 8
            )

        process = bed.sim.spawn(op())
        bed.sim.run(until=10e9)
        with pytest.raises(RdmaError):
            _ = process.completion.value


class TestTestbedAssembly:
    def test_duplicate_host_rejected(self):
        bed = Testbed()
        bed.add_host("a")
        with pytest.raises(ValueError):
            bed.add_host("a")

    def test_nic_config_derived_from_cost_model(self):
        cost = CostModel(nic_message_rate_mops=123.0, mtu_bytes=2048)
        bed = Testbed(cost=cost)
        host = bed.add_host("h")
        assert host.nic.config.message_rate_mops == 123.0
        assert host.nic.config.mtu_bytes == 2048

    def test_explicit_nic_config_wins(self):
        bed = Testbed()
        host = bed.add_host("h", nic_config=NicConfig(message_rate_mops=7.0))
        assert host.nic.config.message_rate_mops == 7.0

    def test_per_host_bandwidth_override(self):
        bed = Testbed()
        host = bed.add_host("slow", bandwidth_gbps=25.0)
        assert host.uplink.bandwidth_gbps == 25.0
        assert bed.switch.port_to("slow").bandwidth_gbps == 25.0

    def test_host_without_cpu_has_none(self):
        bed = Testbed()
        host = bed.add_host("passive")
        assert host.cpu is None

    def test_qp_cross_connection(self):
        bed = Testbed()
        a = bed.add_host("a")
        b = bed.add_host("b")
        qp_a, qp_b = bed.connect_qps(a, b)
        assert qp_a.remote_node == "b" and qp_a.remote_qpn == qp_b.qpn
        assert qp_b.remote_node == "a" and qp_b.remote_qpn == qp_a.qpn


class TestDeployHelper:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            build_microbench("cowbird-fpga", 1)

    def test_none_engine_builds_client_only(self):
        dep = client_only()
        assert dep.engine is None
        assert dep.agent_host is None
        assert len(dep.instances) == 1

    def test_p4_engine_has_no_agent_host(self):
        dep = build_microbench("cowbird-p4", 1)
        assert dep.agent_host is None
        assert dep.engine is not None

    def test_multiple_instances(self):
        dep = build_microbench("cowbird", 3)
        assert len(dep.instances) == 3
        assert len(dep.engine._instances) == 3

    def test_pool_region_accessor(self):
        dep = client_only(remote_bytes=4096)
        region = dep.pool_region()
        assert region.length == 4096


class TestProtocolHandlers:
    """A host with protocol handlers takes deliveries at arrival, so the
    handlers see packets then, while its NIC still acts after the NIC's
    processing delay."""

    def read_latency(self, with_handler):
        bed = Testbed()
        compute = bed.add_host("compute", cpu_cores=2)
        pool = bed.add_host("pool")
        seen = []
        if with_handler:
            compute.add_protocol_handler(
                lambda packet, link: seen.append((bed.sim.now, type(packet).__name__))
            )
        qp_c, _ = bed.connect_qps(compute, pool)
        remote = pool.registry.register(1 << 12)
        local = compute.registry.register(1 << 12)
        thread = compute.cpu.thread()
        pool.uplink.send(TcpSegment("pool", "compute", 1250, 1, flow_id=1, sequence=1))

        def op():
            start = bed.sim.now
            yield from compute.verbs.read_sync(
                thread, qp_c, local.base_addr, remote.base_addr, remote.rkey, 64
            )
            return bed.sim.now - start

        return bed.sim.run_until_complete(bed.sim.spawn(op()), deadline=1e9), seen

    def test_handler_sees_arrival_and_nic_keeps_its_delay(self):
        plain, _ = self.read_latency(with_handler=False)
        latency, seen = self.read_latency(with_handler=True)
        assert latency == plain
        # 1250 B at 100 Gb/s is 100 ns per hop, plus 500 ns propagation
        # per link and the switch's 300 ns forwarding delay.
        assert seen[0] == (100.0 + 500.0 + 300.0 + 100.0 + 500.0, "TcpSegment")
        assert {kind for _, kind in seen} == {"TcpSegment", "RocePacket"}

    def test_nic_terminates_the_downlink_until_a_handler_arrives(self):
        bed = Testbed()
        host = bed.add_host("compute")
        downlink = bed.switch.port_to("compute")
        assert downlink.endpoint is host.nic
        assert downlink.rx_delay_ns == host.nic.rx_delay_ns
        host.add_protocol_handler(lambda packet, link: None)
        assert downlink.endpoint is host
        assert downlink.rx_delay_ns == 0.0

    def test_handlers_refused_with_deliveries_in_flight(self):
        bed = Testbed()
        compute = bed.add_host("compute")
        pool = bed.add_host("pool")
        bed.connect_qps(compute, pool)
        bed.switch.inject(TcpSegment("pool", "compute", 64, 1, flow_id=1, sequence=1))
        with pytest.raises(RuntimeError, match="deliveries pending"):
            compute.add_protocol_handler(lambda packet, link: None)
