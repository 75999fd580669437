"""Unit tests for the network substrate (repro.sim.network, sim.tcp)."""

import random
from dataclasses import dataclass

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import (
    FaultInjector,
    Link,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Switch,
)
from repro.sim.tcp import TcpAckDemux, TcpFlow, TcpSink
from repro.sim.units import transmission_time_ns


@dataclass
class FakePacket:
    src: str = "a"
    dst: str = "b"
    size_bytes: int = 1000
    priority: int = PRIORITY_NORMAL
    label: str = ""


class Collector:
    """Endpoint that records (time, packet) arrivals."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, link):
        self.arrivals.append((self.sim.now, packet))


class TestUnits:
    def test_transmission_time_100gbps(self):
        # 1250 bytes = 10000 bits at 100 Gb/s -> 100 ns
        assert transmission_time_ns(1250, 100) == pytest.approx(100.0)

    def test_transmission_time_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            transmission_time_ns(100, 0)


class TestLink:
    def test_delivery_includes_serialization_and_propagation(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, "l", sink, bandwidth_gbps=100, propagation_delay_ns=500)
        link.send(FakePacket(size_bytes=1250))
        sim.run()
        assert len(sink.arrivals) == 1
        assert sink.arrivals[0][0] == pytest.approx(600.0)  # 100 + 500

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, "l", sink, bandwidth_gbps=100, propagation_delay_ns=0)
        for _ in range(3):
            link.send(FakePacket(size_bytes=1250))
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == pytest.approx([100.0, 200.0, 300.0])

    def test_strict_priority_preempts_queue_order(self):
        """A high-priority packet enqueued behind low-priority packets is
        transmitted as soon as the in-flight serialization finishes."""
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, "l", sink, bandwidth_gbps=100, propagation_delay_ns=0)
        link.send(FakePacket(size_bytes=1250, priority=PRIORITY_LOW, label="low1"))
        link.send(FakePacket(size_bytes=1250, priority=PRIORITY_LOW, label="low2"))
        link.send(FakePacket(size_bytes=1250, priority=PRIORITY_HIGH, label="high"))
        sim.run()
        labels = [p.label for _, p in sink.arrivals]
        assert labels == ["low1", "high", "low2"]

    def test_low_priority_only_uses_idle_cycles(self):
        """With a saturating high-priority stream, low-priority traffic
        starves — the property the probe-priority design relies on."""
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, "l", sink, bandwidth_gbps=100, propagation_delay_ns=0)
        for _ in range(10):
            link.send(FakePacket(size_bytes=1250, priority=PRIORITY_HIGH, label="hi"))
        link.send(FakePacket(size_bytes=125, priority=PRIORITY_LOW, label="probe"))
        sim.run()
        labels = [p.label for _, p in sink.arrivals]
        assert labels.index("probe") == len(labels) - 1

    def test_stats_track_bytes_by_priority(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, "l", sink)
        link.send(FakePacket(size_bytes=100, priority=PRIORITY_HIGH))
        link.send(FakePacket(size_bytes=200, priority=PRIORITY_LOW))
        sim.run()
        assert link.stats.bytes_by_priority[PRIORITY_HIGH] == 100
        assert link.stats.bytes_by_priority[PRIORITY_LOW] == 200
        assert link.stats.packets_sent == 2

    def test_utilization_fraction(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, "l", sink, bandwidth_gbps=100, propagation_delay_ns=0)
        link.send(FakePacket(size_bytes=1250))  # 100 ns busy
        sim.run(until=1000)
        assert link.stats.utilization(1000) == pytest.approx(0.1)

    def test_invalid_link_configs_rejected(self):
        sim = Simulator()
        sink = Collector(sim)
        with pytest.raises(ValueError):
            Link(sim, "l", sink, bandwidth_gbps=0)
        with pytest.raises(ValueError):
            Link(sim, "l", sink, fixed_packet_overhead_ns=-1.0)


class TestFaultInjection:
    def test_no_faults_by_default(self):
        injector = FaultInjector(seed=1)
        assert not any(injector.should_drop("l") for _ in range(100))

    def test_drop_rate_one_drops_everything(self):
        injector = FaultInjector(seed=1, drop_rate=1.0)
        assert all(injector.should_drop("l") for _ in range(10))
        assert injector.dropped == 10

    def test_drop_exactly_targets_specific_ordinals(self):
        """Ordinals count per link: the second packet committed on
        ``l`` drops, whatever other links carried in between."""
        sim = Simulator()
        injector = FaultInjector(seed=1, drop_exactly={"l": [2]})
        sinks = {name: Collector(sim) for name in ("l", "m")}
        links = {
            name: Link(sim, name, sink, propagation_delay_ns=0,
                       fault_injector=injector)
            for name, sink in sinks.items()
        }
        for index, name in enumerate(["m", "l", "m", "l", "l", "l"]):
            links[name].send(FakePacket(label=f"{name}{index}"))
        sim.run()
        assert [p.label for _, p in sinks["l"].arrivals] == ["l1", "l4", "l5"]
        assert [p.label for _, p in sinks["m"].arrivals] == ["m0", "m2"]
        assert links["l"].stats.packets_dropped == 1
        assert links["m"].stats.packets_dropped == 0
        assert injector.dropped == 1

    def test_drop_exactly_names_links(self):
        with pytest.raises(TypeError):
            FaultInjector(drop_exactly=[2])

    def test_deterministic_across_instances(self):
        a = FaultInjector(seed=7, drop_rate=0.3)
        b = FaultInjector(seed=7, drop_rate=0.3)
        seq_a = [a.should_drop("l") for _ in range(50)]
        seq_b = [b.should_drop("l") for _ in range(50)]
        assert seq_a == seq_b

    def test_links_draw_from_their_own_streams(self):
        """A link's draws do not depend on other links' traffic, and
        follow ``random.Random(f"{seed}:{link name}")``."""
        alone = FaultInjector(seed=7, drop_rate=0.3)
        shared = FaultInjector(seed=7, drop_rate=0.3)
        seq_alone = [alone.should_drop("l") for _ in range(50)]
        seq_shared = []
        for _ in range(50):
            shared.should_drop("m")
            seq_shared.append(shared.should_drop("l"))
        assert seq_alone == seq_shared
        stream = random.Random("7:l")
        assert seq_alone == [stream.random() < 0.3 for _ in range(50)]

    def test_dropped_packet_never_delivered(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(
            sim, "l", sink, fault_injector=FaultInjector(seed=1, drop_rate=1.0)
        )
        link.send(FakePacket())
        sim.run()
        assert sink.arrivals == []
        assert link.stats.packets_dropped == 1

    def test_dropped_packet_occupies_the_egress(self):
        """A dropped packet is serialized all the same: the packet behind
        it waits, and busy time covers both."""
        sim = Simulator()
        sink = Collector(sim)
        link = Link(
            sim, "l", sink, propagation_delay_ns=0,
            fault_injector=FaultInjector(drop_exactly={"l": [1]}),
        )
        link.send(FakePacket(size_bytes=1250, label="lost"))  # 100 ns
        link.send(FakePacket(size_bytes=1250, label="kept"))
        sim.run()
        assert [(t, p.label) for t, p in sink.arrivals] == [(200.0, "kept")]
        assert link.stats.busy_ns == pytest.approx(200.0)
        assert (link.stats.packets_sent, link.stats.packets_dropped) == (1, 1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(drop_rate=-0.1)


class TestSwitch:
    def build(self, sim):
        switch = Switch(sim, forward_delay_ns=100)
        sink_a = Collector(sim)
        sink_b = Collector(sim)
        link_a = Link(sim, "to-a", sink_a, propagation_delay_ns=0)
        link_b = Link(sim, "to-b", sink_b, propagation_delay_ns=0)
        switch.attach("a", link_a)
        switch.attach("b", link_b)
        return switch, sink_a, sink_b

    def test_forwards_by_destination(self):
        sim = Simulator()
        switch, sink_a, sink_b = self.build(sim)
        switch.receive(FakePacket(dst="b"), None)
        switch.receive(FakePacket(dst="a"), None)
        sim.run()
        assert len(sink_a.arrivals) == 1
        assert len(sink_b.arrivals) == 1
        assert switch.stats.packets_forwarded == 2

    def test_unroutable_counted_not_crashed(self):
        sim = Simulator()
        switch, _, _ = self.build(sim)
        switch.receive(FakePacket(dst="nowhere"), None)
        sim.run()
        assert switch.stats.packets_unroutable == 1

    def test_duplicate_attach_rejected(self):
        sim = Simulator()
        switch, _, _ = self.build(sim)
        with pytest.raises(ValueError):
            switch.attach("a", Link(sim, "dup", Collector(sim)))

    def test_pipeline_can_consume(self):
        sim = Simulator()
        switch, sink_a, sink_b = self.build(sim)
        switch.pipeline = lambda packet, link: []
        switch.receive(FakePacket(dst="b"), None)
        sim.run()
        assert sink_b.arrivals == []
        assert switch.stats.packets_consumed == 1

    def test_pipeline_can_rewrite_destination(self):
        sim = Simulator()
        switch, sink_a, sink_b = self.build(sim)

        def redirect(packet, link):
            packet.dst = "a"
            return [packet]

        switch.pipeline = redirect
        switch.receive(FakePacket(dst="b"), None)
        sim.run()
        assert len(sink_a.arrivals) == 1
        assert sink_b.arrivals == []

    def test_pipeline_can_multiply_packets(self):
        sim = Simulator()
        switch, sink_a, sink_b = self.build(sim)
        switch.pipeline = lambda packet, link: [
            FakePacket(dst="a"),
            FakePacket(dst="b"),
        ]
        switch.receive(FakePacket(dst="b"), None)
        sim.run()
        assert len(sink_a.arrivals) == 1
        assert len(sink_b.arrivals) == 1

    def test_inject_generates_without_ingress(self):
        sim = Simulator()
        switch, sink_a, _ = self.build(sim)
        switch.inject(FakePacket(dst="a"))
        sim.run()
        assert len(sink_a.arrivals) == 1
        assert switch.stats.packets_generated == 1

    def test_forward_delay_applied(self):
        sim = Simulator()
        switch, sink_a, _ = self.build(sim)
        switch.receive(FakePacket(dst="a", size_bytes=1250), None)
        sim.run()
        # 100 ns forward delay + 100 ns serialization at 100 Gb/s
        assert sink_a.arrivals[0][0] == pytest.approx(200.0)


class TestTcpFlow:
    def build_path(self, sim, bandwidth_gbps=25.0):
        """sender --link--> sink, with an ack path back."""
        demux = TcpAckDemux()
        sink = TcpSink(sim, "sink")
        data_link = Link(sim, "data", sink, bandwidth_gbps=bandwidth_gbps,
                         propagation_delay_ns=1000)
        ack_link = Link(sim, "ack", demux, bandwidth_gbps=bandwidth_gbps,
                        propagation_delay_ns=1000)
        sink.ack_link = ack_link
        return demux, sink, data_link

    def test_flow_saturates_idle_link(self):
        sim = Simulator()
        demux, sink, data_link = self.build_path(sim, bandwidth_gbps=25.0)
        flow = TcpFlow(sim, "sender", "sink", data_link, window=64)
        demux.register_flow(flow)
        sink.register_flow(flow)
        flow.start()
        sim.run(until=1_000_000)  # 1 ms
        flow.stop()
        achieved = flow.achieved_gbps(sim.now)
        assert achieved > 0.9 * 25.0

    def test_window_limits_inflight(self):
        sim = Simulator()
        demux, sink, data_link = self.build_path(sim)
        flow = TcpFlow(sim, "sender", "sink", data_link, window=4)
        demux.register_flow(flow)
        sink.register_flow(flow)
        flow.start()
        assert flow._in_flight == 4

    def test_two_flows_share_fairly(self):
        sim = Simulator()
        demux, sink, data_link = self.build_path(sim, bandwidth_gbps=25.0)
        flows = [
            TcpFlow(sim, "sender", "sink", data_link, window=32) for _ in range(2)
        ]
        for flow in flows:
            demux.register_flow(flow)
            sink.register_flow(flow)
            flow.start()
        sim.run(until=1_000_000)
        rates = [flow.achieved_gbps(sim.now) for flow in flows]
        assert sum(rates) > 0.9 * 25.0
        assert abs(rates[0] - rates[1]) < 0.2 * max(rates)

    def test_high_priority_contender_steals_bandwidth(self):
        sim = Simulator()
        demux, sink, data_link = self.build_path(sim, bandwidth_gbps=25.0)
        tcp = TcpFlow(sim, "sender", "sink", data_link, window=32,
                      priority=PRIORITY_NORMAL)
        rdma_like = TcpFlow(sim, "sender", "sink", data_link, window=32,
                            priority=PRIORITY_HIGH)
        for flow in (tcp, rdma_like):
            demux.register_flow(flow)
            sink.register_flow(flow)
            flow.start()
        sim.run(until=1_000_000)
        assert rdma_like.achieved_gbps(sim.now) > tcp.achieved_gbps(sim.now)

    def test_invalid_window_rejected(self):
        sim = Simulator()
        demux, sink, data_link = self.build_path(sim)
        with pytest.raises(ValueError):
            TcpFlow(sim, "s", "d", data_link, window=0)
