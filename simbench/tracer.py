"""Outside-in span tracer for the simulator benchmark.

The tracer times calls into each simulator layer without editing the
simulator: :meth:`Tracer.install` replaces public functions on the
layers' classes with timing wrappers for the duration of one traced
round and restores the originals afterwards.

* A plain function gets one span per call.
* A generator function gets one span per *resumption* (each ``send``,
  ``next`` or ``throw`` into the generator), never at creation, so a
  span covers exactly the host time the generator's body ran.
* Generators handed to ``Simulator.spawn`` are timed the same way and
  grouped by process name (``worker-3`` and ``worker-5`` share a site).
* Callbacks scheduled through ``Simulator.call_at`` are timed when the
  event loop fires them and grouped by the callable's qualified name.

Spans live in flat arrays in memory (site, start, end, parent) and are
written out only when the run ends.  A span's self time is its duration
minus the time its child spans cover; a layer's self time sums the self
time of every site mapped to it.  The wrappers only observe: they add
no simulated events and change no simulated value, which the benchmark
checks by comparing traced and untraced rounds.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import FunctionType
from typing import Any, Callable, Iterator

import numpy

from repro.baselines.backends import CowbirdBackend
from repro.cowbird import wire
from repro.faster.store import FasterKv
from repro.rdma.nic import RNIC
from repro.rdma.packets import PacketPool, RocePacket
from repro.sim.cpu import Thread
from repro.sim.engine import EventToken, Simulator
from repro.sim.network import Link, Switch
from repro.workloads.ycsb import YcsbWorkload

__all__ = ["LAYER_OF_MODULE", "Tracer"]

clock = time.perf_counter_ns

#: Simulator module -> benchmark layer name.  Any module not listed
#: falls into ``other``.
LAYER_OF_MODULE = {
    "repro.sim.engine": "engine",
    "repro.sim.cpu": "cpu",
    "repro.sim.network": "network",
    "repro.rdma.packets": "packets",
    "repro.cowbird.wire": "packets",
    "repro.rdma.nic": "nic",
    "repro.rdma.qp": "nic",
    "repro.rdma.verbs": "nic",
    "repro.baselines.backends": "backend",
    "repro.cowbird.api": "backend",
    "repro.cowbird.spot_engine": "spot",
    "repro.cowbird.p4_engine": "p4",
    "repro.faster.store": "faster",
    "repro.faster.hybridlog": "faster",
    "repro.faster.hashindex": "faster",
    "repro.workloads.ycsb": "ycsb",
}

#: Public functions wrapped for the traced round: (owner, attribute).
#: ``PacketPool.acquire`` and ``CowbirdBackend.poll_completions`` get
#: extra outcome counters on top of their spans.
TRACED_FUNCTIONS = (
    (Thread, "compute"),
    (Link, "send"),
    (Switch, "receive"),
    (RocePacket, "__init__"),
    (RocePacket, "pack"),
    (RocePacket, "unpack"),
    (PacketPool, "acquire"),
    (wire.RequestMetadata, "pack"),
    (wire.RequestMetadata, "unpack"),
    (wire.GreenBlock, "pack"),
    (wire.GreenBlock, "unpack"),
    (wire.RedBlock, "pack"),
    (wire.RedBlock, "unpack"),
    (RNIC, "post"),
    (RNIC, "receive"),
    (CowbirdBackend, "issue_read"),
    (CowbirdBackend, "issue_write"),
    (CowbirdBackend, "poll_completions"),
    (FasterKv, "start_read"),
    (FasterKv, "upsert"),
    (FasterKv, "complete"),
    (YcsbWorkload, "next_op"),
)


class TimedGen:
    """Generator proxy: one span per resumption of the wrapped generator.

    Implements the iterator/generator protocol that ``yield from`` and
    :class:`repro.sim.engine.Process` use (``send``, ``throw``,
    ``close``, ``__next__``), so it can stand in for the generator.
    """

    __slots__ = ("_tracer", "_site", "_gen", "_on_return")

    def __init__(self, tracer: "Tracer", site: int, gen, on_return=None) -> None:
        self._tracer = tracer
        self._site = site
        self._gen = gen
        self._on_return = on_return

    def __iter__(self) -> "TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        span = tracer.open(self._site)
        try:
            return self._gen.send(value)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            tracer.close(span)

    def throw(self, *args: Any) -> Any:
        tracer = self._tracer
        span = tracer.open(self._site)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.close(span)

    def close(self) -> None:
        self._gen.close()


class TimedCallback:
    """Scheduled-callback proxy: one span each time the event fires."""

    __slots__ = ("_tracer", "_site", "_callback")

    def __init__(self, tracer: "Tracer", site: int, callback: Callable[[], None]) -> None:
        self._tracer = tracer
        self._site = site
        self._callback = callback

    def __call__(self) -> None:
        tracer = self._tracer
        span = tracer.open(self._site)
        try:
            self._callback()
        finally:
            tracer.close(span)


class Tracer:
    """Span recorder plus the runtime wrappers that feed it."""

    def __init__(self) -> None:
        self.site_names: list[str] = []
        self.site_layers: list[str] = []
        #: Calls per site (generator sites count creations, not resumptions).
        self.calls: list[int] = []
        self._site_ids: dict[str, int] = {}
        self._callback_sites: dict[Any, int] = {}
        self.span_site = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack = [-1]
        self.pool_acquires = 0
        self.pool_hits = 0
        self.polls = 0
        self.poll_hits = 0

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def site(self, name: str, layer: str) -> int:
        site = self._site_ids.get(name)
        if site is None:
            site = self._site_ids[name] = len(self.site_names)
            self.site_names.append(name)
            self.site_layers.append(layer)
            self.calls.append(0)
        return site

    def open(self, site: int) -> int:
        index = len(self.span_site)
        self.span_site.append(site)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A set-up span around the benchmark's own call into a layer."""
        site = self.site(name, "setup")
        self.calls[site] += 1
        index = self.open(site)
        try:
            yield
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _wrap(self, site: int, fn: Callable, on_return=None) -> Callable:
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def timed_generator_function(*args, **kwargs):
                calls[site] += 1
                return TimedGen(self, site, fn(*args, **kwargs), on_return)

            return timed_generator_function

        def timed_function(*args, **kwargs):
            calls[site] += 1
            index = self.open(site)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return timed_function

    def _wrapper_for(self, owner: type, attr: str) -> Any:
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        site = self.site(
            f"{owner.__name__}.{attr}", LAYER_OF_MODULE.get(fn.__module__, "other")
        )
        if owner is CowbirdBackend and attr == "poll_completions":
            wrapped = self._wrap(site, fn, on_return=self._count_poll)
        elif owner is PacketPool and attr == "acquire":
            timed = self._wrap(site, fn)

            def acquire(pool, *args, **kwargs):
                self.pool_acquires += 1
                if len(pool):
                    self.pool_hits += 1
                return timed(pool, *args, **kwargs)

            wrapped = acquire
        else:
            wrapped = self._wrap(site, fn)
        return classmethod(wrapped) if is_classmethod else wrapped

    def _count_poll(self, tokens: list) -> None:
        self.polls += 1
        if tokens:
            self.poll_hits += 1

    def _callback_site(self, callback: Any) -> int:
        target = callback._callback if type(callback) is EventToken else callback
        key = getattr(target, "__func__", None)
        if key is None:
            key = target if isinstance(target, FunctionType) else type(target)
        site = self._callback_sites.get(key)
        if site is None:
            module = key.__module__
            site = self._callback_sites[key] = self.site(
                f"event:{key.__qualname__}", LAYER_OF_MODULE.get(module, "other")
            )
        return site

    def _process_site(self, name: str) -> int:
        group = name.rstrip("0123456789").rstrip("-") or "process"
        layer = "spot" if group.startswith("spot-") else "app"
        return self.site(f"process:{group}", layer)

    @contextmanager
    def install(self) -> Iterator["Tracer"]:
        """Wrap every traced function; restore the originals on exit."""
        saved = []
        try:
            for owner, attr in TRACED_FUNCTIONS:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrapper_for(owner, attr))
            spawn = Simulator.spawn
            call_at = Simulator.call_at
            saved.append((Simulator, "spawn", spawn))
            saved.append((Simulator, "call_at", call_at))

            def traced_spawn(sim, generator, name=""):
                name = name or getattr(generator, "__name__", "")
                site = self._process_site(name)
                self.calls[site] += 1
                return spawn(sim, TimedGen(self, site, generator), name=name)

            def traced_call_at(sim, when, callback):
                site = self._callback_site(callback)
                return call_at(sim, when, TimedCallback(self, site, callback))

            Simulator.spawn = traced_spawn
            Simulator.call_at = traced_call_at
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def observe_switch(self, switch: Switch) -> None:
        """Time the pipeline hook an offload engine installed, if any."""
        pipeline = switch.pipeline
        if pipeline is None:
            return
        owner = getattr(pipeline, "__self__", None)
        module = type(owner).__module__ if owner is not None else pipeline.__module__
        site = self.site("switch.pipeline", LAYER_OF_MODULE.get(module, "other"))
        switch.pipeline = self._wrap(site, pipeline)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _columns(self) -> tuple:
        """Zero-copy numpy views: site, start, end, parent per span."""
        return (
            numpy.frombuffer(self.span_site, dtype=numpy.uint16),
            numpy.frombuffer(self.span_start, dtype=numpy.int64),
            numpy.frombuffer(self.span_end, dtype=numpy.int64),
            numpy.frombuffer(self.span_parent, dtype=numpy.int64),
        )

    def self_times_ns(self) -> list[int]:
        """Self time per site: span duration minus covered child time."""
        sites, starts, ends, parents = self._columns()
        durations = ends - starts
        covered = numpy.zeros(len(durations), dtype=numpy.int64)
        children = parents >= 0
        numpy.add.at(covered, parents[children], durations[children])
        per_site = numpy.zeros(len(self.site_names), dtype=numpy.int64)
        numpy.add.at(per_site, sites, durations - covered)
        return per_site.tolist()

    def inclusive_ns(self, name: str) -> int:
        """Total duration of a site's spans, children included."""
        site = self._site_ids.get(name)
        if site is None:
            return 0
        sites, starts, ends, _ = self._columns()
        mask = sites == site
        return int((ends[mask] - starts[mask]).sum())

    def calls_of(self, name: str) -> int:
        site = self._site_ids.get(name)
        return 0 if site is None else self.calls[site]

    def layer_self_ns(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for site, ns in enumerate(self.self_times_ns()):
            layer = self.site_layers[site]
            totals[layer] = totals.get(layer, 0) + ns
        return totals

    def top_level_ns(self) -> int:
        """Host time covered by spans that have no parent span."""
        _, starts, ends, parents = self._columns()
        top = parents < 0
        return int((ends[top] - starts[top]).sum())

    def write(self, path: Path) -> int:
        """Write every span to a compressed ``.npz``; returns the count.

        Arrays: ``site``, ``start_ns``, ``end_ns``, ``parent`` (span
        index, -1 for none) per span, and ``site_names``/``site_layers``
        indexed by ``site``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        sites, starts, ends, parents = self._columns()
        numpy.savez_compressed(
            path, site=sites, start_ns=starts, end_ns=ends, parent=parents,
            site_names=numpy.array(self.site_names),
            site_layers=numpy.array(self.site_layers),
        )
        return len(sites)
