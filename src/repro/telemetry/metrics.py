"""Hierarchical metrics: counters, gauges, histograms and exposed stats.

Metrics live under stable dotted names — ``nic.compute.tx_bytes``,
``qp.103.retransmits``, ``p4.probe_rounds``, ``spot.batches_flushed`` —
in one :class:`MetricsRegistry` per :class:`~repro.telemetry.Telemetry`
instance.  ``snapshot()`` flattens everything into a plain dict for JSON
dumps and assertions.

Components that already count events in a stats dataclass (NICs, links,
the switch, both Cowbird engines) do not mirror those counts into
instruments: they :meth:`~MetricsRegistry.expose` the stats object once,
and the registry reads its numeric fields at snapshot time.  So every
event is counted once, and an untraced run pays nothing for it.

Every instrument has a *null* twin whose mutators are no-ops; the null
registry hands those out so that instrumented hot paths cost one
attribute load and one no-op call when telemetry is disabled.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NullRegistry",
    "log_bucket_bounds",
]


def log_bucket_bounds(
    lo: float = 64.0, hi: float = 64e6, factor: float = 4.0
) -> tuple[float, ...]:
    """Fixed geometric bucket upper bounds covering ``[lo, hi]``.

    The defaults span 64 ns .. 64 ms at 4x per bucket — wide enough for
    everything from a cache miss to a Go-Back-N timeout episode.

    >>> log_bucket_bounds(1, 8, 2)
    (1.0, 2.0, 4.0, 8.0)
    """
    if lo <= 0 or factor <= 1:
        raise ValueError("need lo > 0 and factor > 1")
    bounds = []
    edge = float(lo)
    while edge < hi * (1 + 1e-12):
        bounds.append(edge)
        edge *= factor
    return tuple(bounds)


class Counter:
    """A monotonically increasing count (events, bytes, packets)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, outstanding window size)."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """A distribution over fixed log-spaced buckets.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last edge.  Exact ``sum``/``count``/
    ``max`` ride along so means stay precise even though the
    distribution is bucketed.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "max")

    def __init__(self, name: str, bounds: Optional[Iterable[float]] = None) -> None:
        self.name = name
        if bounds is None:
            bounds = log_bucket_bounds()
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError(f"histogram {name}: need at least one bucket bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram {name}: bounds must strictly increase")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name}: negative observation {value}")
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (binary search)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.bucket_counts[lo] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", bounds=(1.0,))

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


def _validate_name(name: str) -> None:
    if not name or name.startswith(".") or name.endswith(".") or ".." in name:
        raise ValueError(f"invalid metric name {name!r}")


class MetricsRegistry:
    """Get-or-create instrument store keyed by hierarchical dotted name."""

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        #: name -> (stats object, field name) sources summed at snapshot.
        self._exposed: dict[str, list[tuple[object, str]]] = {}

    def expose(self, prefix: str, stats) -> None:
        """Publish the numeric fields of dataclass ``stats`` as ``prefix.<field>``.

        The registry holds ``stats`` itself (never its owner) and reads
        the fields at :meth:`snapshot` time.  Sources under one name sum,
        together with a counter of that name (how :meth:`merge_snapshot`
        folds in other runs); a name held by a gauge or histogram raises
        ``TypeError``.
        """
        for spec in dataclasses.fields(stats):
            value = getattr(stats, spec.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            name = f"{prefix}.{spec.name}"
            existing = self._instruments.get(name)
            if existing is not None and type(existing) is not Counter:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            _validate_name(name)
            self._exposed.setdefault(name, []).append((stats, spec.name))

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        self._check_not_exposed(name)
        _validate_name(name)
        instrument = Histogram(name, bounds)
        self._instruments[name] = instrument
        return instrument

    def _get_or_create(self, name: str, cls):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        if cls is not Counter:
            self._check_not_exposed(name)
        _validate_name(name)
        instrument = cls(name)
        self._instruments[name] = instrument
        return instrument

    def _check_not_exposed(self, name: str) -> None:
        if name in self._exposed:
            raise TypeError(f"metric {name!r} already exposed by a stats object")

    # ------------------------------------------------------------------
    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, histograms combine bucket-by-bucket, and gauges
        replay (max first, then last value) so that merging per-worker
        snapshots *in submission order* reproduces exactly the state a
        single shared registry would have reached.  This is what makes
        parallel sweep runs byte-identical to serial ones.
        """
        for name, value in snapshot.items():
            if isinstance(value, dict) and "bucket_counts" in value:
                hist = self.histogram(name, value["bounds"])
                if list(hist.bounds) != [float(b) for b in value["bounds"]]:
                    raise ValueError(
                        f"histogram {name!r}: mismatched bounds in merge"
                    )
                for i, count in enumerate(value["bucket_counts"]):
                    hist.bucket_counts[i] += count
                hist.count += value["count"]
                hist.sum += value["sum"]
                if value["max"] > hist.max:
                    hist.max = value["max"]
            elif isinstance(value, dict):
                gauge = self.gauge(name)
                gauge.set(value["max"])
                gauge.set(value["value"])
            else:
                self.counter(name).inc(value)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(
            n for n in self._instruments.keys() | self._exposed.keys()
            if n.startswith(prefix)
        )

    def snapshot(self, prefix: str = "") -> dict:
        """Flat ``{name: value}`` dict; histograms expand to sub-dicts."""
        out: dict = {}
        for name in self.names(prefix):
            instrument = self._instruments.get(name)
            sources = self._exposed.get(name)
            if sources is not None:
                total = instrument.value if instrument is not None else 0  # type: ignore[union-attr]
                for stats, field_name in sources:
                    total += getattr(stats, field_name)
                out[name] = total
            elif isinstance(instrument, Histogram):
                out[name] = instrument.to_dict()
            elif isinstance(instrument, Gauge):
                out[name] = {"value": instrument.value, "max": instrument.max_value}
            else:
                out[name] = instrument.value  # type: ignore[union-attr]
        return out

    def __len__(self) -> int:
        return len(self._instruments.keys() | self._exposed.keys())


class NullRegistry(MetricsRegistry):
    """Registry that hands out shared no-op instruments and stores nothing."""

    def expose(self, prefix: str, stats) -> None:
        pass

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        return NULL_HISTOGRAM


NULL_REGISTRY = NullRegistry()
