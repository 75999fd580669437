"""Span tracing on the simulated clock.

A span is a named interval ``[begin_ns, end_ns]`` on a *track* (a sim
thread, QP, or link) inside a *process* (a simulated node), plus free-
form attributes.  All timestamps come from the simulator clock the
tracer is bound to — never wall-clock — so traces are deterministic and
capturing one cannot perturb a calibrated run.

Three recording styles cover every instrumentation site:

* ``with tracer.span("rdma.read", process="compute", track="qp100"):``
  for code that brackets an interval,
* ``tracer.complete(name, begin_ns, end_ns, ...)`` for retroactive
  recording when the begin timestamp was stashed on an in-flight object
  (outstanding work requests, engine ops),
* ``tracer.instant(name, ...)`` for point events (NAKs, Go-Back-N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["NULL_TRACER", "NullTracer", "Span", "SpanEvent", "Tracer"]


@dataclass(frozen=True)
class SpanEvent:
    """One recorded trace event (duration if ``end_ns`` differs)."""

    name: str
    begin_ns: float
    end_ns: float
    process: str
    track: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.begin_ns

    @property
    def is_instant(self) -> bool:
        return self.end_ns == self.begin_ns

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
            "process": self.process,
            "track": self.track,
            "attrs": dict(self.attrs),
        }


class Span:
    """An open interval; ``end()`` (or context-manager exit) records it."""

    __slots__ = ("_tracer", "name", "begin_ns", "process", "track", "attrs", "_closed")

    def __init__(
        self, tracer: "Tracer", name: str, process: str, track: str, attrs: dict
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.begin_ns = tracer.now()
        self.process = process
        self.track = track
        self.attrs = attrs
        self._closed = False

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span."""
        self.attrs.update(attrs)

    def end(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._tracer.complete(
            self.name, self.begin_ns, self._tracer.now(),
            process=self.process, track=self.track, **self.attrs,
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class Tracer:
    """Bounded, deterministic event recorder bound to a sim clock."""

    def __init__(self, max_events: int = 500_000) -> None:
        self.max_events = max_events
        self.events: list[SpanEvent] = []
        self.dropped_over_capacity = 0
        #: Latest end seen, kept or dropped: the sim time the run reached.
        self._last_ns = 0.0
        self._clock: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a simulator's ``now`` (rebind per run)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    def span(
        self, name: str, process: str = "sim", track: str = "main", **attrs
    ) -> Span:
        return Span(self, name, process, track, attrs)

    def complete(
        self,
        name: str,
        begin_ns: float,
        end_ns: float,
        process: str = "sim",
        track: str = "main",
        **attrs,
    ) -> None:
        """Record a finished interval with explicit sim timestamps."""
        if end_ns > self._last_ns:
            self._last_ns = end_ns
        if len(self.events) >= self.max_events:
            self.dropped_over_capacity += 1
            return
        self.events.append(
            SpanEvent(
                name=name, begin_ns=begin_ns, end_ns=end_ns,
                process=process, track=track, attrs=attrs,
            )
        )

    def instant(
        self, name: str, process: str = "sim", track: str = "main", **attrs
    ) -> None:
        now = self.now()
        self.complete(name, now, now, process=process, track=track, **attrs)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def extend(self, events: list[SpanEvent], dropped: int, last_ns: float) -> None:
        """Append another tracer's ``events`` in order under this one's
        cap, with that tracer's over-capacity count and latest end, as if
        they had been recorded here."""
        room = max(self.max_events - len(self.events), 0)
        self.events.extend(events[:room])
        self.dropped_over_capacity += dropped + max(len(events) - room, 0)
        if last_ns > self._last_ns:
            self._last_ns = last_ns

    def clear(self) -> None:
        self.events.clear()
        self.dropped_over_capacity = 0
        self._last_ns = 0.0

    def span_names(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts

    def last_timestamp_ns(self) -> float:
        """The latest end of any interval recorded or dropped over capacity."""
        return self._last_ns


class _NullSpan(Span):
    __slots__ = ()

    def __init__(self) -> None:  # no tracer, never records
        pass

    def set(self, **attrs) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Tracer that records nothing (the zero-cost disabled path)."""

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def span(
        self, name: str, process: str = "sim", track: str = "main", **attrs
    ) -> Span:
        return _NULL_SPAN

    def complete(self, name, begin_ns, end_ns, process="sim", track="main", **attrs):
        pass

    def instant(self, name, process="sim", track="main", **attrs):
        pass


NULL_TRACER = NullTracer()
