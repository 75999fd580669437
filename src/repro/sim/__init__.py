"""Discrete-event simulation substrate.

This package provides the deterministic simulator on which the whole
reproduction runs: an event loop with simulated nanosecond time
(:mod:`repro.sim.engine`), a CPU/thread model with cycle-accounting
(:mod:`repro.sim.cpu`), and a packet network with links, switches, and
strict-priority queueing (:mod:`repro.sim.network`).

The paper's claims are about *who pays CPU time* and *where bandwidth
ceilings sit*; both are cost-accounting questions, so a calibrated
discrete-event simulation preserves the shape of every result even though
the absolute numbers belong to the authors' testbed.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Future,
    Process,
    SimulationError,
    Simulator,
)
from repro.sim.cpu import CPU, CostModel, Thread, ThreadStats
from repro.sim.network import (
    Endpoint,
    FaultInjector,
    Link,
    Switch,
)
from repro.sim.units import (
    GBPS,
    KB,
    MB,
    GB,
    MS,
    NS,
    S,
    US,
    bits_to_bytes,
    transmission_time_ns,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CPU",
    "CostModel",
    "Endpoint",
    "FaultInjector",
    "Future",
    "GBPS",
    "GB",
    "KB",
    "Link",
    "MB",
    "MS",
    "NS",
    "Process",
    "S",
    "SimulationError",
    "Simulator",
    "Switch",
    "Thread",
    "ThreadStats",
    "US",
    "bits_to_bytes",
    "transmission_time_ns",
]
