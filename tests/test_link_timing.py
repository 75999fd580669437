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

import pytest
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


# ----------------------------------------------------------------------
# The wake on a link without lookahead, against the scanning wake
# ----------------------------------------------------------------------
_INFINITY = float("inf")


class ScanWakeLink(Link):
    """A link whose arbiter wake is the general one that
    :class:`~repro.sim.network.Link` ran on every link before its wake
    on a link without lookahead became one pop: a scan of the classes
    for the winner, then a scan for the next start and a re-arm through
    ``_arm_wake``.  Kept verbatim as the reference."""

    def _pop_winner(self, start: float) -> Pkt:
        """Remove the queued packet that starts at ``start``."""
        # One pass over the classes whose head has reached the egress by
        # ``start``: the first (highest priority), the first whose head got
        # there before ``start``, and the oldest hand-over.
        first = early = oldest = None
        for queue in self._queues:
            if queue:
                head = queue[0]
                if head[0] <= start:
                    if first is None:
                        first = queue
                    if early is None and head[0] < start:
                        early = queue
                    if oldest is None or head[1] < oldest[0][1]:
                        oldest = queue
        if start != self.busy_until:
            # The egress is idle when the packets reach it: they go out in
            # hand-over order, without arbitration.
            winner = oldest
        elif self.lookahead_ns and start - self.lookahead_ns >= self._busy_start:
            # Packets ready right now reach the egress only after it frees;
            # they do not take part in this arbitration unless none other
            # is waiting.
            winner = early if early is not None else oldest
        else:
            # The egress frees at ``start``: strict priority among the
            # packets waiting for it.
            winner = first
        self._queued -= 1
        return winner.popleft()[2]

    def _wake(self) -> None:
        """Start the next queued packet, and every later one whose start
        falls inside the lookahead (no unseen packet can compete)."""
        self._wake_armed = False
        start = self.sim.now
        horizon = start + self.lookahead_ns
        queues = self._queues
        while True:
            self._start(self._pop_winner(start), start)
            if not self._queued:
                return
            # The next start: the earliest head's ready time, or when the
            # serialization just committed ends.
            start = _INFINITY
            for queue in queues:
                if queue and queue[0][0] < start:
                    start = queue[0][0]
            if start <= self.busy_until:
                start = self.busy_until
            if start >= horizon:
                break
        self._arm_wake(start)


class Sink:
    """Logs each delivery with its time and its event's sequence number,
    which is its place in the simulator's heap order."""

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def receive(self, packet, link):
        self.log.append((self.sim.now, self.sim.current_seq, link.name, packet.label))


UPLINKS = ("a", "b")


def run_uplinks(link_class, plan, drop_exactly=None):
    """Run ``plan`` on two lookahead-0 uplinks into one sink.

    Each action ``(when, delay, uplink, packets)`` runs at ``when``; it
    hands ``packets`` over at once when ``delay`` is 0, and otherwise
    schedules the hand-over ``delay`` later from there.  A hand-over that
    lands where a serialization ends is thus scheduled before that
    serialization started (an action at its own time) or after it (a
    delayed one).  Returns the deliveries, the events dispatched and the
    per-link stats.
    """
    sim = Simulator(sanitize=False)
    log = []
    sink = Sink(sim, log)
    injector = FaultInjector(drop_exactly=drop_exactly) if drop_exactly else None
    links = {
        name: link_class(
            sim, name, sink, bandwidth_gbps=100.0, propagation_delay_ns=PROPAGATION_NS,
            fault_injector=injector,
        )
        for name in UPLINKS
    }

    def hand_over(index, uplink, packets):
        def act():
            for k, (size, priority) in enumerate(packets):
                links[uplink].send(Pkt("h", "sink", size, priority, f"{index}.{k}"))

        return act

    def deferred(when, delay, act):
        return lambda: sim.call_at(when + delay, act)

    for index, (when, delay, uplink, packets) in enumerate(plan):
        act = hand_over(index, uplink, packets)
        sim.call_at(when, act if not delay else deferred(when, delay, act))
    sim.run()
    return log, sim.events_dispatched, {name: link.stats for name, link in links.items()}


#: Sizes serialize in whole multiples of 10 ns at 100 Gb/s and actions
#: fall on the same grid, so hand-overs land on serialization ends.
handover_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40).map(lambda t: t * 10.0),
        st.sampled_from([0.0, 0.0, 10.0, 20.0, 50.0, 100.0]),
        st.sampled_from(UPLINKS),
        st.lists(st.tuples(SIZES, PRIORITIES), min_size=1, max_size=4),
    ),
    min_size=1, max_size=12,
)

uplink_drops = st.none() | st.dictionaries(
    st.sampled_from(UPLINKS),
    st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
    min_size=1,
)


@settings(max_examples=300, deadline=None)
@given(handover_plans, uplink_drops)
def test_lookahead_zero_wake_matches_scanning_wake(plan, drop_exactly):
    """On a link without lookahead every queued packet was ready when it
    was handed over and the wake fires as the egress frees, so popping
    the head of the first non-empty class and re-arming at the end of
    its serialization is what the scanning wake does: same deliveries,
    at the same times, in the same heap order."""
    assert run_uplinks(Link, plan, drop_exactly) == run_uplinks(
        ScanWakeLink, plan, drop_exactly
    )


@pytest.mark.parametrize("handover, order", [
    ((100.0, 0.0), ["0.0", "2.0", "1.0"]),
    ((0.0, 100.0), ["0.0", "1.0", "2.0"]),
], ids=["before-the-end", "after-the-end"])
def test_lookahead_zero_wake_ties_on_both_sides_of_the_serialization_end(
    handover, order
):
    """A 1 250 B packet serializes from 0 to 100 ns and another queues
    behind it at 50 ns.  A high-priority packet handed over at 100 ns by
    an event scheduled before the first serialization started reaches
    the egress first and wins the arbitration as the egress frees; one
    handed over by an event scheduled after it finds the queued packet
    started."""
    when, delay = handover
    plan = [
        (0.0, 0.0, "a", [(1250, 1)]),
        (50.0, 0.0, "a", [(1250, 1)]),
        (when, delay, "a", [(125, 0)]),
    ]
    new = run_uplinks(Link, plan)
    assert new == run_uplinks(ScanWakeLink, plan)
    log, _events, _stats = new
    assert [label for *_rest, label in log] == order


def test_lookahead_zero_link_refuses_a_later_ready_time():
    sim = Simulator(sanitize=False)
    link = Link(sim, "a", Sink(sim, []))
    with pytest.raises(ValueError):
        link.send(Pkt("h", "sink", 125, 0, "late"), ready_at=10.0)
    link.send(Pkt("h", "sink", 125, 0, "now"), ready_at=0.0)
