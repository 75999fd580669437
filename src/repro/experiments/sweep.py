"""Deterministic sweep harness: run experiment points serially or in parallel.

The paper's figures are sweeps over a grid of independent simulations —
(system, threads, record size, ...) points that share nothing at run
time.  Every grid figure (1 and 8–14) turns its grid into a list of
:class:`SweepPoint` specs and runs it here, either inline or across a
``multiprocessing`` pool, with three invariants:

* **Determinism.**  Each point is fully described by JSON-serializable
  kwargs (including its seed); a point's result and trace depend on
  nothing else.  Results are returned in submission order no matter how
  workers interleave, and per-point telemetry snapshots are merged back
  in that same order, so ``--parallel N`` output is byte-identical to
  ``--parallel 1`` (pinned by ``tests/test_sweep.py``).
* **Telemetry isolation.**  Every point runs under its own fresh
  :class:`~repro.telemetry.Telemetry`; the harness folds the per-point
  metric snapshots into the caller's active telemetry afterwards via
  :meth:`MetricsRegistry.merge_snapshot`, and appends the per-point span
  events to the caller's tracer under its cap, so ``--json`` metadata,
  ``--metrics`` and ``--trace`` work for any worker count.
* **Caching.**  With ``cache_dir`` set, each untraced point's result is
  stored on disk keyed by a SHA-256 over (repro version, point kind,
  sorted kwargs, telemetry collection).  A warm cache replays the
  identical results, so cached and fresh runs produce the same bytes.
  Traced points (a span cap above 0) always run: they can hold hundreds
  of thousands of span events each.

Points name their entry function by *kind* (a registry of dotted paths,
resolved lazily to avoid import cycles with the figure modules) rather
than by function object, which keeps specs picklable and cache keys
stable.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro import __version__, telemetry
from repro.analysis.sanitizer import sanitize_enabled

__all__ = ["SweepPoint", "run_sweep", "sweep_cache_key"]

#: Registered point kinds: kind -> (module, attribute).  Resolved lazily
#: so figure modules can import this one without a cycle.
_POINT_KINDS: dict[str, tuple[str, str]] = {
    "microbench": ("repro.experiments.common", "run_microbench"),
    "faster": ("repro.experiments.faster_bench", "run_faster_bench"),
    "aifm-read": ("repro.experiments.fig12", "measure_read_point"),
    "latency": ("repro.experiments.fig13", "measure_latency_point"),
    "tcp-contention": ("repro.experiments.fig14", "measure_contention_point"),
}


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation in a sweep.

    ``kwargs`` must be JSON-serializable (they feed the cache key and
    cross the process boundary); anything heavier — cost models, table
    objects — is built inside the point function from these kwargs.
    """

    kind: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _POINT_KINDS:
            raise ValueError(
                f"unknown sweep point kind {self.kind!r}; "
                f"pick from {sorted(_POINT_KINDS)}"
            )


def _resolve(kind: str) -> Callable:
    module_name, attr = _POINT_KINDS[kind]
    return getattr(importlib.import_module(module_name), attr)


def _execute_point(
    spec: tuple[str, dict, bool, int],
) -> tuple[Any, Optional[dict], Optional[tuple]]:
    """Run one point under its own telemetry; the pool's map target.

    Returns ``(result, metrics_snapshot, trace)``, where ``trace`` is
    the point's ``(span events, dropped over capacity, last timestamp)``
    recorded under a cap of ``max_events``; both are ``None`` when
    collection is off.
    """
    kind, kwargs, collect, max_events = spec
    fn = _resolve(kind)
    if not collect:
        with telemetry.activate(telemetry.NULL_TELEMETRY):
            return fn(**kwargs), None, None
    tel = telemetry.Telemetry(max_events=max_events)
    with telemetry.activate(tel):
        result = fn(**kwargs)
    tracer = tel.tracer
    return result, tel.snapshot(), (
        tracer.events, tracer.dropped_over_capacity, tracer.last_timestamp_ns()
    )


def sweep_cache_key(kind: str, kwargs: dict, collect: bool) -> str:
    """Stable cache key: SHA-256 over version + kind + sorted kwargs.

    Sanitized runs key separately (their snapshots carry ``sim.digest``
    gauges).
    """
    payload = {
        "repro_version": __version__,
        "kind": kind,
        "kwargs": kwargs,
        "collect": collect,
    }
    if sanitize_enabled():
        payload["sanitize"] = True
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _cache_load(cache_dir: str, key: str):
    path = os.path.join(cache_dir, key + ".pkl")
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.PickleError, EOFError):
        return None


def _cache_store(cache_dir: str, key: str, value) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(value, handle)
        os.replace(tmp_path, os.path.join(cache_dir, key + ".pkl"))
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass


def run_sweep(
    points: Sequence[SweepPoint],
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> list[Any]:
    """Execute ``points`` and return their results in submission order.

    ``parallel`` is the worker-process count; ``1`` runs every point
    inline (same code path, no pool).  With ``cache_dir`` set and no
    spans recorded, cached points are replayed from disk and fresh ones
    stored after running.
    Each point's metric snapshot and span events are merged into the
    caller's active telemetry in submission order; points record spans
    only if the caller's tracer keeps any (``max_events > 0``), under
    the same cap, so the caller's tracer ends up as if every point had
    run inline against it.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    parent = telemetry.current()
    collect = parent is not None and parent.enabled
    max_events = parent.tracer.max_events if collect else 0
    specs = [(p.kind, p.kwargs, collect, max_events) for p in points]

    outcomes: list[Optional[tuple]] = [None] * len(specs)
    keys: list[str] = []
    if cache_dir is not None and not max_events:
        keys = [sweep_cache_key(p.kind, p.kwargs, collect) for p in points]
        outcomes = [_cache_load(cache_dir, key) for key in keys]
    pending = [i for i, outcome in enumerate(outcomes) if outcome is None]

    if pending:
        if parallel > 1 and len(pending) > 1:
            with multiprocessing.Pool(processes=min(parallel, len(pending))) as pool:
                fresh = pool.map(
                    _execute_point, [specs[i] for i in pending], chunksize=1
                )
        else:
            fresh = [_execute_point(specs[i]) for i in pending]
        for i, outcome in zip(pending, fresh):
            outcomes[i] = outcome
            if keys:
                _cache_store(cache_dir, keys[i], outcome)

    results = []
    for result, snapshot, trace in outcomes:
        results.append(result)
        if collect:
            parent.metrics.merge_snapshot(snapshot)
            parent.tracer.extend(*trace)
    return results
