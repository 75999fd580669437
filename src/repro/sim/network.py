"""Packet network substrate: links, priority queues, switches, faults.

The network model captures exactly what the paper's arguments depend on:

* **Serialization + propagation delay.**  A 100 Gb/s link moves 12.5 bytes
  per nanosecond; bandwidth ceilings in Figure 8c/8d come from here.
* **Strict-priority egress queueing.**  Cowbird-P4 injects probe packets at
  the *lowest* priority so they only consume idle cycles (Section 5.2,
  following OrbWeaver); Figure 14 measures how much a contending TCP flow
  loses when Cowbird's RDMA packets are configured *above* it.
* **A programmable forwarding pipeline.**  The :class:`Switch` exposes the
  same three opportunities a Tofino pipeline has — inspect an arriving
  packet, transform it in flight, and generate fresh packets — which is
  the hook :mod:`repro.cowbird.p4_engine` plugs into.
* **Loss.**  :class:`FaultInjector` drops packets deterministically, from
  one seeded loss stream per link, so the Go-Back-N recovery paths
  (Section 5.3) can be tested.  A link decides a packet's fate when it
  commits the packet, under the same timing model as lossless traffic.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Protocol, runtime_checkable

from repro.sim.engine import Simulator

__all__ = [
    "Endpoint",
    "FaultInjector",
    "Link",
    "LinkStats",
    "Packet",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "Switch",
    "SwitchStats",
]

_INFINITY = float("inf")

#: Numerically lower = served first at every egress arbiter.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2


@runtime_checkable
class Packet(Protocol):
    """Minimal interface the network needs from a packet.

    The RoCEv2 packets in :mod:`repro.rdma.packets` satisfy this; so do the
    TCP segments in :mod:`repro.sim.tcp`.
    """

    src: str
    dst: str
    size_bytes: int
    priority: int


@runtime_checkable
class Endpoint(Protocol):
    """Anything that can terminate a link (a NIC, a switch port, a sink).

    An endpoint that acts on a packet a fixed time after it arrives (a
    NIC's processing delay) may say so with an ``rx_delay_ns``
    attribute: the link then calls :meth:`receive` that much after the
    arrival, folding the delay into its one delivery event.
    """

    def receive(self, packet: Packet, link: "Link") -> None:
        """Handle a packet delivered by ``link``."""


class FaultInjector:
    """Deterministic, seeded packet loss, drawn from one stream per link.

    A link asks :meth:`should_drop` once per packet, when it commits the
    packet's serialization; commits on one link follow its serialization
    order.  Each link draws from its own stream,
    ``random.Random(f"{seed}:{link name}")`` (a string seed gives the
    same stream in every process), so which packets a link drops does
    not depend on how other links' events interleave.

    ``drop_rate`` applies uniformly; ``drop_exactly`` maps a link name
    to the 1-based ordinals of the packets to drop on that link (useful
    for tests that need to kill *the* read response of request 3).  A
    corrupted RoCE packet fails its ICRC check and is discarded, so loss
    also models corruption.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        drop_exactly: Optional[Mapping[str, Iterable[int]]] = None,
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate out of range: {drop_rate}")
        if drop_exactly is not None and not isinstance(drop_exactly, Mapping):
            raise TypeError("drop_exactly maps link names to packet ordinals")
        self.seed = seed
        self.drop_rate = drop_rate
        self._drop_exactly = {
            link: frozenset(ordinals) for link, ordinals in (drop_exactly or {}).items()
        }
        #: Packets seen and loss stream, per link name.
        self._seen: dict[str, int] = {}
        self._streams: dict[str, random.Random] = {}
        self.dropped = 0

    def should_drop(self, link_name: str) -> bool:
        """Decide the fate of the next packet ``link_name`` commits."""
        seen = self._seen[link_name] = self._seen.get(link_name, 0) + 1
        if seen in self._drop_exactly.get(link_name, ()):
            self.dropped += 1
            return True
        if self.drop_rate > 0.0:
            stream = self._streams.get(link_name)
            if stream is None:
                stream = self._streams[link_name] = random.Random(
                    f"{self.seed}:{link_name}"
                )
            if stream.random() < self.drop_rate:
                self.dropped += 1
                return True
        return False


@dataclass
class LinkStats:
    """Per-link byte/packet counters, split by priority class.

    ``packets_sent``, ``bytes_sent`` and ``bytes_by_priority`` count
    delivered packets; ``busy_ns`` also covers the serializations of
    dropped ones.
    """

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    bytes_by_priority: dict[int, int] = field(default_factory=dict)
    busy_ns: float = 0.0

    def utilization(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)


class Link:
    """A unidirectional link with strict-priority egress queueing.

    Packets that reach the egress while it is serializing wait in
    per-priority FIFO queues; each time the egress frees up, the arbiter
    picks the head of the highest-priority (numerically lowest) queue
    whose packet has reached the egress.  This is the same
    strict-priority model Tofino's traffic manager applies, and it is
    what makes low-priority Cowbird probes consume only idle link cycles.

    Timing is analytic.  The link keeps ``busy_until``, the time its
    current serialization ends; a packet that finds the egress idle is
    committed on the spot, with one event at
    ``start + serialization + propagation + rx_delay_ns``.  Only a packet
    that queues can cost one more event, the arbiter's wake-up when the
    egress frees (one wake-up starts every packet whose start falls
    within ``lookahead_ns``).  A link with a :class:`FaultInjector`
    decides each packet's fate when it commits it: a dropped packet
    still occupies the egress for its serialization, then is released
    without a delivery event.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        endpoint: Endpoint,
        bandwidth_gbps: float = 100.0,
        propagation_delay_ns: float = 500.0,
        fault_injector: Optional[FaultInjector] = None,
        fixed_packet_overhead_ns: float = 0.0,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_gbps}")
        if fixed_packet_overhead_ns < 0:
            raise ValueError("packet overhead cannot be negative")
        self.sim = sim
        self.name = name
        self.endpoint = endpoint
        self.bandwidth_gbps = bandwidth_gbps
        self.propagation_delay_ns = propagation_delay_ns
        self.fault_injector = fault_injector
        #: Per-packet processing cost at the attached NIC's packet
        #: engine; models packet-rate (pps) limits on top of bandwidth.
        self.fixed_packet_overhead_ns = fixed_packet_overhead_ns
        #: Time between a packet's arrival and the endpoint acting on it:
        #: the endpoint's own ``rx_delay_ns``, 0 without one.
        self.rx_delay_ns = getattr(endpoint, "rx_delay_ns", 0.0)
        self.stats = LinkStats()
        #: When the serialization in progress ends; idle from then on.
        self.busy_until = 0.0
        self._busy_start = 0.0
        self._free_seq = 0
        #: Minimum time between a :meth:`send` call and the packet's
        #: ready time.  Every packet that reaches the egress before
        #: ``now + lookahead_ns`` is therefore known, and the arbiter may
        #: commit that far ahead; a switch sets its forward delay here.
        self.lookahead_ns = 0.0
        # Waiting packets as (ready time, hand-over order, packet), one
        # FIFO per priority class.
        self._queues: list[deque[tuple[float, int, Packet]]] = [
            deque() for _ in range(PRIORITY_LOW + 1)
        ]
        self._queued = 0
        self._handed = 0
        self._last_ready = 0.0
        self._wake_armed = False
        # Delivery times on one link never decrease (each serialization
        # starts after the previous one ends and the other delays are
        # constant), so a FIFO plus one cached callback replaces a closure
        # per packet.
        self._arriving: deque[Packet] = deque()
        self._deliver_callback = self._deliver_next
        self._wake_callback = self._wake
        tel = sim.telemetry
        self._tel = tel
        tel.expose(f"link.{name}", self.stats)
        self._tel_queue_depth = tel.gauge(f"link.{name}.queue_depth")

    # ------------------------------------------------------------------
    def send(self, packet: Packet, ready_at: Optional[float] = None) -> None:
        """Hand ``packet`` to the egress arbiter.

        The packet reaches the egress at ``ready_at`` (default: now); a
        switch passes ``now + forward_delay_ns``.  Ready times on one
        link must not decrease and must be at least ``lookahead_ns`` away.
        A link without lookahead takes packets that are ready now.
        """
        now = self.sim.now
        lookahead = self.lookahead_ns
        if ready_at is None:
            # Ready now: refused within a lookahead; without one, every
            # earlier ready time was its hand-over time, so none is later.
            ready = now
            refused = lookahead > 0.0
        else:
            ready = ready_at
            refused = (ready < self._last_ready or ready < now + lookahead
                       or (ready > now and not lookahead))
        if refused:
            raise ValueError(
                f"link {self.name}: ready time {ready} is before the last one "
                f"({self._last_ready}), within the lookahead, or later than "
                "now on a link without lookahead"
            )
        self._last_ready = ready
        if self._tel.enabled:
            self._tel_queue_depth.set(self._queued + 1)
        busy_until = self.busy_until
        if not self._queued and (
            busy_until < ready or (busy_until == ready and not self._enters_first())
        ):
            self._start(packet, ready)
        else:
            self._handed += 1
            priority = packet.priority
            if priority > PRIORITY_LOW:
                priority = PRIORITY_LOW
            elif priority < 0:
                priority = 0
            self._queues[priority].append((ready, self._handed, packet))
            self._queued += 1
            if not self._wake_armed:
                # The wake is armed whenever packets are queued, so this
                # packet queued alone behind the serialization in
                # progress: it starts when the egress frees.
                self._arm_wake(busy_until)

    def set_rx_delay(self, rx_delay_ns: float) -> None:
        """Change :attr:`rx_delay_ns`; deliveries must stay FIFO, so only
        while none is pending."""
        if self._arriving:
            raise RuntimeError(
                f"link {self.name}: cannot change the receive delay with "
                "deliveries pending"
            )
        self.rx_delay_ns = rx_delay_ns

    # ------------------------------------------------------------------
    # A packet that reaches the egress at the very instant the
    # serialization in progress ends is arbitrated against the packets
    # queued then if it reached the egress first, as the event order of
    # the per-event model had it: the serialization-end event was
    # scheduled when that serialization started.
    # ------------------------------------------------------------------
    def _enters_first(self) -> bool:
        """Whether a packet handed over now, ready when the egress frees,
        reaches the egress before the serialization-end it ties with."""
        if self.lookahead_ns:
            # The hand-over was scheduled now; the serialization end when
            # the serialization started.
            return self.sim.now < self._busy_start
        return self.sim.current_seq < self._free_seq

    def _start(self, packet: Packet, start: float) -> None:
        """Commit ``packet``'s serialization at ``start`` and schedule its
        delivery, all in one step; it runs once per packet hop.

        The serialization is computed as
        :func:`~repro.sim.units.transmission_time_ns` computes it.  A
        packet the fault injector drops occupies the egress all the same.
        """
        size_bytes = packet.size_bytes
        priority = packet.priority
        serialization = (
            (size_bytes * 8.0) / self.bandwidth_gbps + self.fixed_packet_overhead_ns
        )
        end = start + serialization
        self.busy_until = end
        self._busy_start = start
        stats = self.stats
        stats.busy_ns += serialization
        if self._tel.enabled:
            self._tel_queue_depth.set(self._queued)
            self._tel.complete(
                "link.tx", start, end,
                process="net", track=self.name,
                size_bytes=size_bytes, priority=priority, dst=packet.dst,
            )
        sim = self.sim
        sequence = sim._sequence
        if not self.lookahead_ns:
            # The sequence number the serialization-end event would get.
            self._free_seq = next(sequence)
        if self.fault_injector is not None and self.fault_injector.should_drop(
            self.name
        ):
            self._drop(packet)
            return
        stats.packets_sent += 1
        stats.bytes_sent += size_bytes
        per_prio = stats.bytes_by_priority
        per_prio[priority] = per_prio.get(priority, 0) + size_bytes
        self._arriving.append(packet)
        heapq.heappush(
            sim._queue,
            (
                end + self.propagation_delay_ns + self.rx_delay_ns,
                next(sequence),
                self._deliver_callback,
            ),
        )

    def _drop(self, packet: Packet) -> None:
        self.stats.packets_dropped += 1
        # The wire consumed the packet: return pooled shells to their
        # free-list (TCP segments have no release and fall through).
        release = getattr(packet, "release", None)
        if release is not None:
            release()

    def _arm_wake(self, when: float) -> None:
        """Schedule the arbiter's wake-up at ``when``, the next start."""
        self._wake_armed = True
        sim = self.sim
        # On a link without lookahead the wake takes the place of the
        # serialization-end event, so it fires exactly where that would.
        seq = next(sim._sequence) if self.lookahead_ns else self._free_seq
        heapq.heappush(sim._queue, (when, seq, self._wake_callback))

    def _wake(self) -> None:
        """Start the next queued packet, and every later one whose start
        falls inside the lookahead (no unseen packet can compete)."""
        start = self.sim.now
        queues = self._queues
        if not self.lookahead_ns:
            # Every queued packet was ready when handed over, and the wake
            # fires where the egress frees: strict priority picks the head
            # of the first non-empty class, and the next wake is due when
            # that packet's serialization ends, at the sequence number its
            # serialization-end event would get.
            for queue in queues:
                if queue:
                    break
            self._queued -= 1
            self._start(queue.popleft()[2], start)
            if self._queued:
                heapq.heappush(
                    self.sim._queue,
                    (self.busy_until, self._free_seq, self._wake_callback),
                )
            else:
                self._wake_armed = False
            return
        self._wake_armed = False
        lookahead = self.lookahead_ns
        horizon = start + lookahead
        while True:
            # The winner, in one pass over the classes whose head has
            # reached the egress by ``start``: the first (highest
            # priority), the first whose head got there before ``start``,
            # and the oldest hand-over.
            first = early = oldest = None
            for queue in queues:
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
                # The egress is idle when the packets reach it: they go
                # out in hand-over order, without arbitration.
                winner = oldest
            elif start - lookahead >= self._busy_start:
                # Packets ready right now reach the egress only after it
                # frees; they do not take part in this arbitration unless
                # none other is waiting.
                winner = early if early is not None else oldest
            else:
                # The egress frees at ``start``: strict priority among the
                # packets waiting for it.
                winner = first
            self._queued -= 1
            self._start(winner.popleft()[2], start)
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

    def _deliver_next(self) -> None:
        self.endpoint.receive(self._arriving.popleft(), self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name!r}, {self.bandwidth_gbps} Gb/s)"


@dataclass
class SwitchStats:
    """Per-switch packet counters."""

    packets_forwarded: int = 0
    packets_consumed: int = 0
    packets_generated: int = 0
    packets_unroutable: int = 0


#: A pipeline hook: receives (packet, ingress link) and returns the list of
#: packets to forward.  Returning ``[]`` consumes the packet; returning new
#: packets models data-plane generation/recycling.
PipelineFn = Callable[[Packet, Optional[Link]], list[Packet]]


class Switch:
    """An output-queued switch with destination-based forwarding.

    Nodes attach with :meth:`attach`, registering the egress link that
    reaches them and, optionally, the ingress link from them.  An
    optional ``pipeline`` callable sees every packet before forwarding
    and may consume, rewrite, or multiply it.  A data plane program
    (the Cowbird-P4 offload engine) goes in with :meth:`install`
    instead: it terminates the ingress links itself, so a packet
    addressed to it reaches it in one call, and it hands transit
    packets back to :meth:`receive` and sends its own on the egress
    links it looks up with :meth:`port_to`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        forward_delay_ns: float = 300.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forward_delay_ns = forward_delay_ns
        self._ports: dict[str, Link] = {}
        #: Links into the switch, each registered by :meth:`attach`.
        self._ingress: list[Link] = []
        self.pipeline: Optional[PipelineFn] = None
        #: The installed data plane program, if any (:meth:`install`).
        self.program: Optional[Endpoint] = None
        self.stats = SwitchStats()
        sim.telemetry.expose(f"switch.{name}", self.stats)

    # ------------------------------------------------------------------
    def attach(
        self, node_id: str, egress_link: Link, ingress_link: Optional[Link] = None
    ) -> None:
        """Register ``egress_link`` as the path to ``node_id``, and
        ``ingress_link``, which ends at this switch, as the path from it."""
        if node_id in self._ports:
            raise ValueError(f"node {node_id!r} already attached")
        self._ports[node_id] = egress_link
        # Packets reach the egress forward_delay_ns after the switch
        # hands them over, so the egress may commit that far ahead.
        egress_link.lookahead_ns = self.forward_delay_ns
        if ingress_link is not None:
            if ingress_link.endpoint is not self:
                raise ValueError(f"link {ingress_link.name!r} does not end at this switch")
            self._ingress.append(ingress_link)
            if self.program is not None:
                ingress_link.endpoint = self.program

    def install(self, program: Endpoint) -> None:
        """Terminate every ingress link at ``program``, a data plane
        program, from now on; links attached later end there too.

        ``program.receive(packet, link)`` then sees each packet that
        arrives at the switch.  It consumes what it handles itself and
        passes the rest to :meth:`receive` to be forwarded; the switch's
        counters are its to keep for the packets it consumes and sends.
        """
        if self.program is not None or self.pipeline is not None:
            raise RuntimeError("switch already has a pipeline installed")
        self.program = program
        for link in self._ingress:
            link.endpoint = program

    def port_to(self, node_id: str) -> Link:
        return self._ports[node_id]

    @property
    def attached_nodes(self) -> list[str]:
        return sorted(self._ports)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Optional[Link] = None) -> None:
        """Ingress: run the pipeline, then forward survivors."""
        if self.pipeline is None:
            outputs = (packet,)
        else:
            outputs = self.pipeline(packet, link)
            if not outputs:
                self.stats.packets_consumed += 1
                return
            if len(outputs) != 1 or outputs[0] is not packet:
                self.stats.packets_generated += len(outputs)
        for out in outputs:
            egress = self._ports.get(out.dst)
            if egress is None:
                self._unroutable(out)
                continue
            self.stats.packets_forwarded += 1
            # The egress arbiter sees the packet once the forwarding
            # pipeline is through with it.
            egress.send(out, self.sim.now + self.forward_delay_ns)

    def inject(self, packet: Packet) -> None:
        """Data-plane packet generation: send without an ingress port."""
        self.stats.packets_generated += 1
        egress = self._ports.get(packet.dst)
        if egress is None:
            self._unroutable(packet)
            return
        self.stats.packets_forwarded += 1
        egress.send(packet, self.sim.now + self.forward_delay_ns)

    def _unroutable(self, packet: Packet) -> None:
        self.stats.packets_unroutable += 1
        # Terminal consumption: an unroutable pooled packet goes back to
        # its free-list instead of leaking.
        release = getattr(packet, "release", None)
        if release is not None:
            release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name!r}, ports={sorted(self._ports)})"
