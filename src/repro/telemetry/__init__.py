"""Unified telemetry: metrics registry + span tracing + exporters.

The paper's entire argument is about where cycles and bytes go, so the
reproduction carries one cross-cutting observability layer instead of
ad-hoc per-experiment accounting.  A :class:`Telemetry` object bundles

* a hierarchical :class:`~repro.telemetry.metrics.MetricsRegistry`
  (``nic.compute.tx_bytes``, ``qp.103.retransmits``, ...) that holds
  instruments and reads the stats objects components expose,
* a :class:`~repro.telemetry.spans.Tracer` recording spans against the
  *simulated* clock (RDMA verbs, link serialization, engine phases), and
* exporters — Chrome ``trace_event`` JSON for Perfetto, JSONL, and flat
  metric snapshots.

Design invariants:

* **Zero-cost when disabled.**  The default is :data:`NULL_TELEMETRY`,
  whose instruments and spans are shared no-op singletons; hot paths pay
  one attribute load and an empty call.
* **Deterministic.**  All timestamps are sim-time.  Instrumentation only
  observes — enabling telemetry must never change an experiment's
  numeric output (pinned by ``tests/test_telemetry.py``).

Usage::

    from repro import telemetry

    tel = telemetry.Telemetry()
    with telemetry.activate(tel):          # every Testbed built inside
        rows = fig01.run(ops_per_thread=50)  # ... records into `tel`
    tel.write_chrome_trace("trace.json")     # open in Perfetto
    tel.metrics.snapshot("nic.")             # flat dict of NIC counters
"""

from __future__ import annotations

import contextlib
from typing import IO, Optional, Union

from repro.telemetry.export import (
    chrome_trace_document,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NullRegistry,
    log_bucket_bounds,
)
from repro.telemetry.spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTelemetry",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Telemetry",
    "Tracer",
    "activate",
    "chrome_trace_document",
    "current",
    "install",
    "log_bucket_bounds",
    "uninstall",
    "write_chrome_trace",
    "write_jsonl",
]


class Telemetry:
    """One registry + one tracer + export conveniences."""

    enabled: bool = True

    def __init__(self, max_events: int = 500_000) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(max_events=max_events)

    # -- instrument pass-throughs ---------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, bounds=None) -> Histogram:
        return self.metrics.histogram(name, bounds)

    def expose(self, prefix: str, stats) -> None:
        self.metrics.expose(prefix, stats)

    # -- tracing pass-throughs ------------------------------------------
    def bind_clock(self, clock) -> None:
        self.tracer.bind_clock(clock)

    def span(self, name: str, process: str = "sim", track: str = "main", **attrs):
        return self.tracer.span(name, process=process, track=track, **attrs)

    def instant(self, name: str, process: str = "sim", track: str = "main", **attrs):
        self.tracer.instant(name, process=process, track=track, **attrs)

    def complete(self, name, begin_ns, end_ns, process="sim", track="main", **attrs):
        self.tracer.complete(
            name, begin_ns, end_ns, process=process, track=track, **attrs
        )

    # -- export ----------------------------------------------------------
    def snapshot(self, prefix: str = "") -> dict:
        return self.metrics.snapshot(prefix)

    def write_chrome_trace(self, destination: Union[str, IO[str]]) -> None:
        write_chrome_trace(destination, self.tracer.events, self.snapshot())

    def write_jsonl(self, destination: Union[str, IO[str]]) -> None:
        write_jsonl(destination, self.tracer.events)

    def reset(self) -> None:
        """Drop recorded events and instruments (fresh run, same object)."""
        self.metrics = MetricsRegistry()
        self.tracer.clear()


class NullTelemetry(Telemetry):
    """The disabled default: shared no-op registry and tracer."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER

    def reset(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()

#: The process-wide active telemetry picked up by new Testbeds/Simulators.
_active: Optional[Telemetry] = None


def install(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` the default for subsequently built simulators."""
    global _active
    _active = telemetry
    return telemetry


def uninstall() -> None:
    global _active
    _active = None


def current() -> Optional[Telemetry]:
    """The installed telemetry, or ``None`` (→ null telemetry) if unset."""
    return _active


@contextlib.contextmanager
def activate(telemetry: Optional[Telemetry] = None):
    """Scoped :func:`install`; restores the previous default on exit."""
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else Telemetry()
    try:
        yield _active
    finally:
        _active = previous
