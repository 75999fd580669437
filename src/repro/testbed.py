"""Testbed assembly: hosts, NICs, links, and the top-of-rack switch.

Reproduces the paper's Section 7 topology: servers (compute node, memory
pool, and optionally a spot VM and a TCP traffic sink) hang off one
Wedge100BF-32X switch over 100 Gb/s links.  The helper keeps experiment
code declarative::

    bed = Testbed()
    compute = bed.add_host("compute", cpu_cores=8, smt=2)
    pool = bed.add_host("pool")
    qp_c, qp_p = bed.connect_qps(compute, pool)
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.memory.region import RegionRegistry
from repro.rdma.nic import NicConfig, RNIC
from repro.rdma.packets import RocePacket
from repro.rdma.qp import CompletionQueue, QueuePair
from repro.rdma.verbs import RdmaVerbs
from repro.sim.cpu import CPU, CostModel
from repro.sim.engine import Simulator
from repro.sim.network import FaultInjector, Link, Switch
from repro import telemetry as _telemetry
from repro.telemetry import Telemetry

__all__ = ["Host", "Testbed"]


class Host:
    """A server: region registry + RNIC + (optionally) a CPU.

    The NIC terminates the host's downlink.  A host with protocol
    handlers (the TCP sink of Figure 14 registers itself this way)
    terminates it instead: the handlers see every packet when it
    arrives, and RoCE traffic reaches the NIC after its processing
    delay.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cost: CostModel,
        cpu_cores: int = 0,
        smt: int = 2,
        nic_config: Optional[NicConfig] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.registry = RegionRegistry()
        self.nic = RNIC(sim, name, self.registry, nic_config)
        self.cpu: Optional[CPU] = (
            CPU(sim, physical_cores=cpu_cores, smt=smt, cost_model=cost)
            if cpu_cores > 0
            else None
        )
        self.verbs = RdmaVerbs(self.nic, cost)
        self._protocol_handlers: list[Callable] = []
        self.uplink: Optional[Link] = None  # host -> switch
        self.downlink: Optional[Link] = None  # switch -> host
        # RoCE packets waiting out the NIC's processing delay once
        # protocol handlers take deliveries at arrival (see receive).
        self._nic_pending: deque[tuple[RocePacket, Link]] = deque()
        self._nic_receive_callback = self._nic_receive_next

    def add_protocol_handler(self, handler: Callable) -> None:
        """Register a non-RDMA packet handler (e.g. a TCP sink/demux).

        Handlers see each packet when it arrives, so register them
        before traffic reaches the host: the first one re-points the
        downlink from the NIC to the host.
        """
        if self.downlink is not None:
            self.downlink.set_rx_delay(0.0)
            self.downlink.endpoint = self
        self._protocol_handlers.append(handler)

    def attach_pool(self, pool) -> None:
        """Serve a :class:`~repro.memory.pool.MemoryPool` from this host.

        The pool owns the region registry; both the host and its NIC
        must resolve rkeys against it (one-sided RDMA is serviced
        entirely NIC-side).  This is the single sanctioned way to bind
        a pool to a host — callers must not mutate ``host.registry``
        and ``host.nic.registry`` by hand.
        """
        if pool.node != self.name:
            raise ValueError(
                f"pool node {pool.node!r} does not match host {self.name!r}"
            )
        self.registry = pool.registry
        self.nic.registry = pool.registry

    def receive(self, packet, link) -> None:
        """Downlink endpoint once protocol handlers are registered."""
        if isinstance(packet, RocePacket):
            self._nic_pending.append((packet, link))
            self.sim.call_after(self.nic.rx_delay_ns, self._nic_receive_callback)
        for handler in self._protocol_handlers:
            handler(packet, link)

    def _nic_receive_next(self) -> None:
        self.nic.receive(*self._nic_pending.popleft())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r})"


class Testbed:
    """One switch, N hosts, 100 Gb/s links — the Section 7 testbed."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        cost: Optional[CostModel] = None,
        bandwidth_gbps: Optional[float] = None,
        propagation_delay_ns: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        telemetry: Optional[Telemetry] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        # Telemetry must be attached before any Link/NIC/engine is built
        # so components cache live instruments; fall back to the
        # process-wide active telemetry (``repro.telemetry.activate``).
        # ``sanitize=None`` defers to the REPRO_SANITIZE environment flag.
        self.sim = Simulator(
            telemetry=telemetry or _telemetry.current(), sanitize=sanitize
        )
        self.cost = cost or CostModel()
        self.bandwidth_gbps = bandwidth_gbps or self.cost.link_bandwidth_gbps
        self.propagation_delay_ns = (
            propagation_delay_ns
            if propagation_delay_ns is not None
            else self.cost.propagation_delay_ns
        )
        self.fault_injector = fault_injector
        self.switch = Switch(
            self.sim, "switch", forward_delay_ns=self.cost.switch_forward_delay_ns
        )
        self.hosts: dict[str, Host] = {}

    def add_host(
        self,
        name: str,
        cpu_cores: int = 0,
        smt: int = 2,
        nic_config: Optional[NicConfig] = None,
        bandwidth_gbps: Optional[float] = None,
    ) -> Host:
        """Create a host and cable it to the switch."""
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        if nic_config is None:
            # Derive NIC parameters from the testbed's cost model so a
            # single CostModel instance calibrates the whole deployment.
            nic_config = NicConfig(
                message_rate_mops=self.cost.nic_message_rate_mops,
                processing_delay_ns=self.cost.nic_processing_delay_ns,
                mtu_bytes=self.cost.mtu_bytes,
            )
        host = Host(
            self.sim, name, self.cost, cpu_cores=cpu_cores, smt=smt,
            nic_config=nic_config,
        )
        bw = bandwidth_gbps or self.bandwidth_gbps
        # Host -> switch direction terminates at the switch; switch -> host
        # at the host's NIC.  Faults, when configured, apply to both
        # directions.
        uplink = Link(
            self.sim,
            f"{name}->switch",
            self.switch,
            bandwidth_gbps=bw,
            propagation_delay_ns=self.propagation_delay_ns,
            fault_injector=self.fault_injector,
        )
        downlink = Link(
            self.sim,
            f"switch->{name}",
            host.nic,
            bandwidth_gbps=bw,
            propagation_delay_ns=self.propagation_delay_ns,
            fault_injector=self.fault_injector,
        )
        host.nic.attach_link(uplink)
        host.uplink = uplink
        host.downlink = downlink
        self.switch.attach(name, downlink, uplink)
        self.hosts[name] = host
        return host

    def add_pool(self, name: str, **host_kwargs) -> tuple[Host, "MemoryPool"]:
        """Create a host serving a memory pool, cabled to the switch.

        Builds the host (CPU-less by default: a disaggregated pool
        needs no compute for data transfers) and attaches a fresh
        :class:`MemoryPool` named after it via :meth:`Host.attach_pool`.
        Returns ``(pool_host, pool)``.
        """
        from repro.memory.pool import MemoryPool

        host = self.add_host(name, **host_kwargs)
        pool = MemoryPool(name)
        host.attach_pool(pool)
        return host, pool

    def connect_qps(
        self,
        host_a: Host,
        host_b: Host,
        cq_a: Optional[CompletionQueue] = None,
        cq_b: Optional[CompletionQueue] = None,
    ) -> tuple[QueuePair, QueuePair]:
        """Phase I setup: create and cross-connect a QP on each host."""
        qp_a = host_a.nic.create_qp(cq_a)
        qp_b = host_b.nic.create_qp(cq_b)
        qp_a.connect(host_b.name, qp_b.qpn)
        qp_b.connect(host_a.name, qp_a.qpn)
        return qp_a, qp_b

    def host(self, name: str) -> Host:
        return self.hosts[name]
