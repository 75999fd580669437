"""Analytic link timing against a per-event reference model.

:class:`repro.sim.network.Link` commits a packet's serialization and
delivery in one step and folds the switch's forward delay and the
endpoint's receive delay into that one delivery event.  The reference
below is the per-event model it replaced: one event per serialization
end, per arrival, per switch forwarding and per NIC dispatch.  Random
open-loop traffic — mixed priorities, same-instant ties, multi-packet
trains, ``Switch.inject`` bursts and targeted drops — must produce the
same ``(time, packet)`` deliveries, in the same order, at every endpoint,
and the same ``link.tx`` spans and per-link stats.  Both models draw
drops per link at serialization order: the reference at serialization
end, the analytic link at commit, which on one link is the same order.

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
from repro.sim.network import PRIORITY_LOW, FaultInjector, Link, LinkStats, Switch
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

    def __init__(self, sim, name, endpoint, fault_injector, bandwidth_gbps,
                 overhead_ns, spans):
        self.sim = sim
        self.name = name
        self.endpoint = endpoint
        self.fault_injector = fault_injector
        self.bandwidth_gbps = bandwidth_gbps
        self.overhead_ns = overhead_ns
        self.spans = spans
        self.stats = LinkStats()
        self._queues = [deque() for _ in range(PRIORITY_LOW + 1)]
        self._busy = False
        self._serializing = deque()
        self._propagating = deque()

    def send(self, packet):
        priority = min(max(packet.priority, 0), PRIORITY_LOW)
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
        serialization = (
            transmission_time_ns(packet.size_bytes, self.bandwidth_gbps)
            + self.overhead_ns
        )
        self.stats.busy_ns += serialization
        now = self.sim.now
        self.spans.append(span_key(
            now, now + serialization, self.name, packet.size_bytes,
            packet.priority, packet.dst,
        ))
        self.sim.call_after(serialization, self._on_serialized)

    def _on_serialized(self):
        packet = self._serializing.popleft()
        stats = self.stats
        if self.fault_injector is not None and self.fault_injector.should_drop(
            self.name
        ):
            stats.packets_dropped += 1
        else:
            stats.packets_sent += 1
            stats.bytes_sent += packet.size_bytes
            per_prio = stats.bytes_by_priority
            per_prio[packet.priority] = per_prio.get(packet.priority, 0) + packet.size_bytes
            self._propagating.append(packet)
            self.sim.call_after(PROPAGATION_NS, self._deliver)
        self._transmit_next()

    def _deliver(self):
        self.endpoint.receive(self._propagating.popleft(), self)


def span_key(begin, end, track, size_bytes, priority, dst):
    return (begin, end, track, sorted(
        {"size_bytes": size_bytes, "priority": priority, "dst": dst}.items()
    ))


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


#: The grid every hand-written and on-grid case uses, and a bandwidth
#: and per-packet overhead off it, so that the analytic link's float
#: expression is compared beyond whole numbers.
ON_GRID = (100.0, 0.0)
OFF_GRID = (40.0, 3.3)


def link_names():
    for name in HOSTS:
        yield f"{name}->switch"
        yield f"switch->{name}"


def build(reference: bool, injector: Optional[FaultInjector], timing=ON_GRID):
    bandwidth_gbps, overhead_ns = timing
    telemetry = Telemetry()
    sim = Simulator(sanitize=False, telemetry=telemetry)
    log = []
    links = {}
    if reference:
        ref_spans = []
        switch = RefSwitch(sim)
        hosts = {name: RefHost(sim, name, log) for name in HOSTS}
        for name, host in hosts.items():
            host.uplink = links[f"{name}->switch"] = RefLink(
                sim, f"{name}->switch", switch, injector,
                bandwidth_gbps, overhead_ns, ref_spans,
            )
            switch.ports[name] = links[f"switch->{name}"] = RefLink(
                sim, f"switch->{name}", host, injector,
                bandwidth_gbps, overhead_ns, ref_spans,
            )

        def spans():
            return ref_spans
    else:
        switch = Switch(sim, forward_delay_ns=FORWARD_NS)
        hosts = {name: Host(sim, name, log) for name in HOSTS}
        for name, host in hosts.items():
            host.uplink = links[f"{name}->switch"] = Link(
                sim, f"{name}->switch", switch, bandwidth_gbps=bandwidth_gbps,
                propagation_delay_ns=PROPAGATION_NS, fault_injector=injector,
                fixed_packet_overhead_ns=overhead_ns,
            )
            links[f"switch->{name}"] = Link(
                sim, f"switch->{name}", host, bandwidth_gbps=bandwidth_gbps,
                propagation_delay_ns=PROPAGATION_NS, fault_injector=injector,
                fixed_packet_overhead_ns=overhead_ns,
            )
            switch.attach(name, links[f"switch->{name}"])

        def spans():
            return [
                (event.begin_ns, event.end_ns, event.track,
                 sorted(event.attrs.items()))
                for event in telemetry.tracer.events
                if event.name == "link.tx"
            ]
    return sim, switch, hosts, links, log, spans


# Sizes serialize in whole multiples of 10 ns at 100 Gb/s, and action
# times fall on the same grid, so serialization ends, arrivals and
# hand-overs collide often.
SIZES = st.sampled_from([125, 250, 625, 1250, 5000])
PRIORITIES = st.integers(min_value=0, max_value=2)

#: Any size, for the off-grid case.
ANY_SIZE = st.integers(min_value=1, max_value=5000)


def actions_of(sizes):
    return st.tuples(
        st.integers(min_value=0, max_value=60).map(lambda t: t * 10.0),
        st.sampled_from(["send", "inject"]),
        st.sampled_from(HOSTS),
        st.sampled_from(HOSTS),
        st.lists(st.tuples(sizes, PRIORITIES), min_size=1, max_size=4),
    )


actions = actions_of(SIZES)


@dataclass
class Outcome:
    deliveries: dict
    spans: list
    stats: dict
    dropped: int


def run(reference: bool, plan, drop_exactly=None, timing=ON_GRID):
    """Run ``plan``; returns the deliveries per host, the ``link.tx``
    spans, the stats per link and the injector's drop count."""
    injector = FaultInjector(drop_exactly=drop_exactly) if drop_exactly else None
    sim, switch, hosts, links, log, spans = build(reference, injector, timing)

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
    return Outcome(
        deliveries={
            name: [(t, label) for t, host, label in log if host == name]
            for name in HOSTS
        },
        spans=sorted(spans()),
        stats={name: link.stats for name, link in links.items()},
        dropped=injector.dropped if injector else 0,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(actions, min_size=1, max_size=12))
def test_deliveries_match_per_event_reference(plan):
    assert run(False, plan) == run(True, plan)


#: Per-link drop ordinals: a few links, a few early packets on each.
drop_maps = st.dictionaries(
    st.sampled_from(sorted(link_names())),
    st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(actions, min_size=1, max_size=10), drop_maps)
def test_drops_hit_the_same_packets(plan, drop_exactly):
    new = run(False, plan, drop_exactly)
    assert new == run(True, plan, drop_exactly)
    for name, ordinals in drop_exactly.items():
        stats = new.stats[name]
        # Every packet a link committed is counted once, sent or dropped.
        carried = stats.packets_sent + stats.packets_dropped
        assert stats.packets_dropped == sum(1 for n in ordinals if n <= carried)


@settings(max_examples=200, deadline=None)
@given(st.lists(actions_of(ANY_SIZE), min_size=1, max_size=10), drop_maps)
def test_off_grid_timing_matches_per_event_reference(plan, drop_exactly):
    """40 Gb/s with a 3.3 ns packet overhead: serialization ends, and so
    deliveries, spans and busy time, are not whole numbers; the analytic
    link must compute them as the per-event model does, to the bit."""
    new = run(False, plan, drop_exactly, OFF_GRID)
    assert new == run(True, plan, drop_exactly, OFF_GRID)
    assert len(new.spans) == sum(
        s.packets_sent + s.packets_dropped for s in new.stats.values()
    )


def test_train_queues_behind_and_high_priority_overtakes():
    """A hand-written case: a four-packet train from h0 to h1 with a
    high-priority packet injected at the switch while the train drains."""
    plan = [
        (0.0, "send", "h0", "h1", [(1250, 1)] * 4),
        (650.0, "inject", "h0", "h1", [(125, 0)]),
    ]
    outcome = run(False, plan)
    assert outcome == run(True, plan)
    log = outcome.deliveries
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
    outcome = run(False, plan)
    assert outcome == run(True, plan)
    log = outcome.deliveries
    assert [label for _, label in log["h2"]] == ["0.0", "1.0", "3.0", "2.0"]
