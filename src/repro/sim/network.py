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
* **Loss.**  :class:`FaultInjector` drops packets deterministically from a
  seeded RNG so the Go-Back-N recovery paths (Section 5.3) can be tested.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol, runtime_checkable

from repro.sim.engine import Simulator
from repro.sim.units import transmission_time_ns

__all__ = [
    "DuplexLink",
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
    """Anything that can terminate a link (a NIC, a switch port, a sink)."""

    def receive(self, packet: Packet, link: "Link") -> None:
        """Handle a packet delivered by ``link``."""


class FaultInjector:
    """Deterministic, seeded packet-loss and corruption injection.

    ``drop_rate`` applies uniformly; ``drop_exactly`` drops specific
    1-based packet ordinals (useful for tests that need to kill *the*
    read response of request 3).
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        drop_exactly: Optional[Iterable[int]] = None,
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate out of range: {drop_rate}")
        if not 0.0 <= corrupt_rate <= 1.0:
            raise ValueError(f"corrupt_rate out of range: {corrupt_rate}")
        self._rng = random.Random(seed)
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self._drop_exactly = set(drop_exactly or ())
        self._seen = 0
        self.dropped = 0
        self.corrupted = 0

    def should_drop(self, packet: Packet) -> bool:
        self._seen += 1
        if self._seen in self._drop_exactly:
            self.dropped += 1
            return True
        if self.drop_rate > 0.0 and self._rng.random() < self.drop_rate:
            self.dropped += 1
            return True
        return False

    def should_corrupt(self, packet: Packet) -> bool:
        if self.corrupt_rate > 0.0 and self._rng.random() < self.corrupt_rate:
            self.corrupted += 1
            return True
        return False


@dataclass
class LinkStats:
    """Per-link byte/packet counters, split by priority class."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    bytes_by_priority: dict[int, int] = field(default_factory=dict)
    busy_ns: float = 0.0

    def record(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        per_prio = self.bytes_by_priority
        per_prio[packet.priority] = per_prio.get(packet.priority, 0) + packet.size_bytes

    def utilization(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)


class Link:
    """A unidirectional link with strict-priority egress queueing.

    Packets enqueued while the link is serializing wait in per-priority
    FIFO queues; at each transmit completion the arbiter picks the head
    of the highest-priority (numerically lowest) non-empty queue.  This
    is the same strict-priority model Tofino's traffic manager applies,
    and it is what makes low-priority Cowbird probes consume only idle
    link cycles.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        endpoint: Endpoint,
        bandwidth_gbps: float = 100.0,
        propagation_delay_ns: float = 500.0,
        fault_injector: Optional[FaultInjector] = None,
        num_priorities: int = 3,
        fixed_packet_overhead_ns: float = 0.0,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_gbps}")
        if num_priorities < 1:
            raise ValueError("need at least one priority class")
        if fixed_packet_overhead_ns < 0:
            raise ValueError("packet overhead cannot be negative")
        self.sim = sim
        self.name = name
        self.endpoint = endpoint
        self.bandwidth_gbps = bandwidth_gbps
        self.propagation_delay_ns = propagation_delay_ns
        self.fault_injector = fault_injector
        self.num_priorities = num_priorities
        #: Per-packet processing cost at the attached NIC's packet
        #: engine; models packet-rate (pps) limits on top of bandwidth.
        self.fixed_packet_overhead_ns = fixed_packet_overhead_ns
        self.stats = LinkStats()
        self._queues: list[deque[Packet]] = [deque() for _ in range(num_priorities)]
        self._busy = False
        # One packet serializes at a time and propagation delay is a
        # per-link constant, so both completion points are FIFO: a deque
        # plus one cached callback replaces a closure per packet.
        self._serializing: deque[Packet] = deque()
        self._propagating: deque[Packet] = deque()
        self._on_serialized_callback = self._on_serialized_next
        self._deliver_callback = self._deliver_next
        tel = sim.telemetry
        self._tel = tel
        tel.expose(f"link.{name}", self.stats)
        self._tel_queue_depth = tel.gauge(f"link.{name}.queue_depth")

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission."""
        priority = min(max(packet.priority, 0), self.num_priorities - 1)
        self._queues[priority].append(packet)
        if self._tel.enabled:
            self._tel_queue_depth.set(self.queued_packets())
        if not self._busy:
            self._transmit_next()

    def queued_packets(self) -> int:
        return sum(len(q) for q in self._queues)

    # ------------------------------------------------------------------
    def _pop_next(self) -> Optional[Packet]:
        for queue in self._queues:
            if queue:
                return queue.popleft()
        return None

    def _transmit_next(self) -> None:
        packet = self._pop_next()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        serialization = (
            transmission_time_ns(packet.size_bytes, self.bandwidth_gbps)
            + self.fixed_packet_overhead_ns
        )
        self.stats.busy_ns += serialization
        if self._tel.enabled:
            self._tel_queue_depth.set(self.queued_packets())
            self._tel.complete(
                "link.tx", self.sim.now, self.sim.now + serialization,
                process="net", track=self.name,
                size_bytes=packet.size_bytes, priority=packet.priority,
                dst=packet.dst,
            )
        self._serializing.append(packet)
        self.sim.call_after(serialization, self._on_serialized_callback)

    def _on_serialized_next(self) -> None:
        packet = self._serializing.popleft()
        if self.fault_injector is not None and self.fault_injector.should_drop(packet):
            self.stats.packets_dropped += 1
            # The wire consumed the packet: return pooled shells to their
            # free-list (TCP segments have no release and fall through).
            release = getattr(packet, "release", None)
            if release is not None:
                release()
        else:
            self.stats.record(packet)
            self._propagating.append(packet)
            self.sim.call_after(self.propagation_delay_ns, self._deliver_callback)
        self._transmit_next()

    def _deliver_next(self) -> None:
        self.endpoint.receive(self._propagating.popleft(), self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name!r}, {self.bandwidth_gbps} Gb/s)"


class DuplexLink:
    """A pair of opposed unidirectional links between two endpoints."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        endpoint_a: Endpoint,
        endpoint_b: Endpoint,
        bandwidth_gbps: float = 100.0,
        propagation_delay_ns: float = 500.0,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.a_to_b = Link(
            sim,
            f"{name}:a->b",
            endpoint_b,
            bandwidth_gbps=bandwidth_gbps,
            propagation_delay_ns=propagation_delay_ns,
            fault_injector=fault_injector,
        )
        self.b_to_a = Link(
            sim,
            f"{name}:b->a",
            endpoint_a,
            bandwidth_gbps=bandwidth_gbps,
            propagation_delay_ns=propagation_delay_ns,
            fault_injector=fault_injector,
        )


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
    reaches them.  An optional ``pipeline`` callable sees every packet
    before forwarding and may consume, rewrite, or multiply it — that is
    the abstraction the Cowbird-P4 offload engine programs against.
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
        self.pipeline: Optional[PipelineFn] = None
        self.stats = SwitchStats()
        # Forward delay is constant, so pending (egress, packet) pairs
        # drain FIFO through one cached callback.
        self._forward_pending: deque[tuple[Link, Packet]] = deque()
        self._forward_callback = self._forward_next
        sim.telemetry.expose(f"switch.{name}", self.stats)

    # ------------------------------------------------------------------
    def attach(self, node_id: str, egress_link: Link) -> None:
        """Register ``egress_link`` as the path to ``node_id``."""
        if node_id in self._ports:
            raise ValueError(f"node {node_id!r} already attached")
        self._ports[node_id] = egress_link

    def port_to(self, node_id: str) -> Link:
        return self._ports[node_id]

    @property
    def attached_nodes(self) -> list[str]:
        return sorted(self._ports)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Optional[Link] = None) -> None:
        """Ingress: run the pipeline, then forward survivors."""
        if self.pipeline is not None:
            outputs = self.pipeline(packet, link)
            if not outputs:
                self.stats.packets_consumed += 1
                return
            if len(outputs) != 1 or outputs[0] is not packet:
                self.stats.packets_generated += len(outputs)
            for out in outputs:
                self._forward(out)
        else:
            self._forward(packet)

    def inject(self, packet: Packet) -> None:
        """Data-plane packet generation: send without an ingress port."""
        self.stats.packets_generated += 1
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        egress = self._ports.get(packet.dst)
        if egress is None:
            self.stats.packets_unroutable += 1
            # Terminal consumption: an unroutable pooled packet goes back
            # to its free-list instead of leaking.
            release = getattr(packet, "release", None)
            if release is not None:
                release()
            return
        self.stats.packets_forwarded += 1
        self._forward_pending.append((egress, packet))
        self.sim.call_after(self.forward_delay_ns, self._forward_callback)

    def _forward_next(self) -> None:
        egress, packet = self._forward_pending.popleft()
        egress.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name!r}, ports={sorted(self._ports)})"
