"""Analytic link timing against a per-event reference model.

:class:`repro.sim.network.Link` commits a packet's serialization and
delivery in one step and folds the switch's forward delay and the
endpoint's receive delay into that one delivery event.  The reference
below is the per-event model it replaced: one event per serialization
end, per arrival, per switch forwarding and per NIC dispatch.  Random
open-loop traffic — mixed priorities, same-instant ties, multi-packet
trains, ``Switch.inject`` bursts and targeted drops — must produce the
same ``(time, packet)`` deliveries, in the same order, at every endpoint.

Deliveries that land on *different* endpoints at the same instant may
run in another order than in the per-event model: their events are
scheduled when the packet is committed, not at its serialization end.
The traffic here is therefore open-loop (endpoints do not answer); an
endpoint that answers from inside a delivery can carry that order into
what others see.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.network import FaultInjector, Link, Switch
from repro.sim.units import transmission_time_ns
from repro.telemetry import Telemetry

PROPAGATION_NS = 500.0
FORWARD_NS = 300.0
RX_DELAY_NS = 250.0
HOSTS = ("h0", "h1", "h2")


@dataclass
class Pkt:
    src: str
    dst: str
    size_bytes: int
    priority: int
    label: str


# ----------------------------------------------------------------------
# Reference: the per-event model
# ----------------------------------------------------------------------
class RefLink:
    """One event per serialization end and per arrival."""

    def __init__(self, sim, endpoint, fault_injector=None, num_priorities=3):
        self.sim = sim
        self.endpoint = endpoint
        self.fault_injector = fault_injector
        self.num_priorities = num_priorities
        self._queues = [deque() for _ in range(num_priorities)]
        self._busy = False
        self._serializing = deque()
        self._propagating = deque()

    def send(self, packet):
        priority = min(max(packet.priority, 0), self.num_priorities - 1)
        self._queues[priority].append(packet)
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self):
        packet = next((q.popleft() for q in self._queues if q), None)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self._serializing.append(packet)
        self.sim.call_after(
            transmission_time_ns(packet.size_bytes, 100.0), self._on_serialized
        )

    def _on_serialized(self):
        packet = self._serializing.popleft()
        if self.fault_injector is None or not self.fault_injector.should_drop(packet):
            self._propagating.append(packet)
            self.sim.call_after(PROPAGATION_NS, self._deliver)
        self._transmit_next()

    def _deliver(self):
        self.endpoint.receive(self._propagating.popleft(), self)


class RefSwitch:
    """One event per forwarding decision."""

    def __init__(self, sim):
        self.sim = sim
        self.ports = {}
        self._pending = deque()

    def receive(self, packet, link=None):
        self._pending.append(packet)
        self.sim.call_after(FORWARD_NS, self._forward)

    inject = receive

    def _forward(self):
        packet = self._pending.popleft()
        self.ports[packet.dst].send(packet)


class RefHost:
    """Arrival-time entry that dispatches after the receive delay, as
    the per-event NIC did."""

    def __init__(self, sim, name, log):
        self.sim = sim
        self.name = name
        self.log = log
        self.uplink = None
        self._pending = deque()

    def receive(self, packet, link):
        self._pending.append(packet)
        self.sim.call_after(RX_DELAY_NS, self._dispatch)

    def _dispatch(self):
        dispatch(self, self._pending.popleft())


# ----------------------------------------------------------------------
# The analytic model under test
# ----------------------------------------------------------------------
class Host:
    """Dispatch-time entry; the link folds ``rx_delay_ns`` into delivery."""

    rx_delay_ns = RX_DELAY_NS

    def __init__(self, sim, name, log):
        self.sim = sim
        self.name = name
        self.log = log
        self.uplink = None

    def receive(self, packet, link):
        dispatch(self, packet)


def dispatch(host, packet) -> None:
    host.log.append((host.sim.now, host.name, packet.label))


def build(reference: bool, injector: Optional[FaultInjector]):
    sim = Simulator(sanitize=False)
    log = []
    if reference:
        switch = RefSwitch(sim)
        hosts = {name: RefHost(sim, name, log) for name in HOSTS}
        for name, host in hosts.items():
            host.uplink = RefLink(sim, switch, injector)
            switch.ports[name] = RefLink(sim, host, injector)
    else:
        switch = Switch(sim, forward_delay_ns=FORWARD_NS)
        hosts = {name: Host(sim, name, log) for name in HOSTS}
        for name, host in hosts.items():
            host.uplink = Link(
                sim, f"{name}->switch", switch,
                propagation_delay_ns=PROPAGATION_NS, fault_injector=injector,
            )
            switch.attach(name, Link(
                sim, f"switch->{name}", host,
                propagation_delay_ns=PROPAGATION_NS, fault_injector=injector,
            ))
    return sim, switch, hosts, log


# Sizes serialize in whole multiples of 10 ns at 100 Gb/s, and action
# times fall on the same grid, so serialization ends, arrivals and
# hand-overs collide often.
SIZES = st.sampled_from([125, 250, 625, 1250, 5000])
PRIORITIES = st.integers(min_value=0, max_value=2)

packet_specs = st.tuples(SIZES, PRIORITIES)
actions = st.tuples(
    st.integers(min_value=0, max_value=60).map(lambda t: t * 10.0),
    st.sampled_from(["send", "inject"]),
    st.sampled_from(HOSTS),
    st.sampled_from(HOSTS),
    st.lists(packet_specs, min_size=1, max_size=4),
)


def run(reference: bool, plan, drop_exactly=None):
    injector = FaultInjector(drop_exactly=drop_exactly) if drop_exactly else None
    sim, switch, hosts, log = build(reference, injector)

    def make_action(index, kind, src, dst, specs):
        def act():
            for k, (size, priority) in enumerate(specs):
                packet = Pkt(src, dst, size, priority, f"{index}.{k}")
                if kind == "inject":
                    switch.inject(packet)
                else:
                    hosts[src].uplink.send(packet)

        return act

    for index, (when, kind, src, dst, specs) in enumerate(plan):
        sim.call_at(when, make_action(index, kind, src, dst, specs))
    sim.run()
    per_host = {name: [(t, label) for t, host, label in log if host == name] for name in HOSTS}
    return per_host, (injector.dropped if injector else 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(actions, min_size=1, max_size=12))
def test_deliveries_match_per_event_reference(plan):
    assert run(False, plan) == run(True, plan)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(actions, min_size=1, max_size=10),
    st.sets(st.integers(min_value=1, max_value=30), max_size=6),
)
def test_drops_hit_the_same_packets(plan, drop_exactly):
    new_log, new_dropped = run(False, plan, drop_exactly)
    ref_log, ref_dropped = run(True, plan, drop_exactly)
    assert new_log == ref_log
    assert new_dropped == ref_dropped


def test_train_queues_behind_and_high_priority_overtakes():
    """A hand-written case: a four-packet train from h0 to h1 with a
    high-priority packet injected at the switch while the train drains."""
    plan = [
        (0.0, "send", "h0", "h1", [(1250, 1)] * 4),
        (650.0, "inject", "h0", "h1", [(125, 0)]),
    ]
    log, _ = run(False, plan)
    assert log == run(True, plan)[0]
    assert [label for _, label in log["h1"]] == ["0.0", "1.0", "0.1", "0.2", "0.3"]


def test_uplinks_freeing_together_keep_serialization_order():
    """Two uplinks finish a serialization at the same instant, each with
    a packet queued behind it.  The queued packets start in the order the
    finishing serializations started (the per-event model's
    serialization-end order), not in the order they queued."""
    plan = [
        (0.0, "send", "h0", "h2", [(125, 0)]),
        (0.0, "send", "h1", "h2", [(125, 0)]),
        (5.0, "send", "h1", "h2", [(250, 0)]),
        (8.0, "send", "h0", "h2", [(250, 0)]),
    ]
    log, _ = run(False, plan)
    assert log == run(True, plan)[0]
    assert [label for _, label in log["h2"]] == ["0.0", "1.0", "3.0", "2.0"]


# ----------------------------------------------------------------------
# Link._start inlines Link._begin and LinkStats.record, which the
# fault-injecting path keeps: with an injector that drops nothing, both
# paths must record the same spans, stats and deliveries.
# ----------------------------------------------------------------------
class Sink:
    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def receive(self, packet, link):
        self.log.append((self.sim.now, packet.label))


def run_one_link(lossy: bool, sends):
    telemetry = Telemetry()
    sim = Simulator(sanitize=False, telemetry=telemetry)
    log = []
    # A bandwidth and overhead off the 10 ns grid, so the inlined float
    # expression is compared beyond whole numbers.
    link = Link(
        sim, "a->b", Sink(sim, log), bandwidth_gbps=40.0,
        propagation_delay_ns=PROPAGATION_NS, fixed_packet_overhead_ns=3.3,
        fault_injector=FaultInjector() if lossy else None,
    )

    def make_send(label, size, priority):
        return lambda: link.send(Pkt("a", "b", size, priority, label))

    for index, (when, size, priority) in enumerate(sends):
        sim.call_at(when, make_send(str(index), size, priority))
    sim.run()
    spans = sorted(
        (event.begin_ns, event.end_ns, event.track, sorted(event.attrs.items()))
        for event in telemetry.tracer.events
        if event.name == "link.tx"
    )
    stats = link.stats
    return (
        log,
        spans,
        (stats.packets_sent, stats.bytes_sent, stats.bytes_by_priority, stats.busy_ns),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60).map(lambda t: t * 10.0),
        st.integers(min_value=1, max_value=5000),
        PRIORITIES,
    ),
    min_size=1, max_size=12,
))
def test_inlined_start_matches_the_lossy_path(sends):
    lossless = run_one_link(False, sends)
    assert lossless == run_one_link(True, sends)
    assert len(lossless[1]) == len(sends)
