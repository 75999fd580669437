"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro run fig01
    python -m repro run fig08 --ops 300 --json out.json
    python -m repro run fig08 --parallel 8 --json out.json
    python -m repro run fig01 --trace trace.json --metrics
    python -m repro metrics fig01 --prefix nic.
    python -m repro run all
    python -m repro run scenario examples/scenarios/fig08_point.toml
    python -m repro run scenario examples/scenarios/*.toml --validate-only
    python -m repro lint src/repro
    python -m repro lint --select SIM001,SIM002 --json src/repro

Each experiment prints the same rows/series the paper reports; ``--json``
additionally dumps the raw records (plus a ``meta`` block with seeds,
version, sim duration, and events dispatched) for plotting.  ``--trace``
writes a Chrome ``trace_event`` JSON of the run, loadable in Perfetto;
``--metrics`` (or the ``metrics`` subcommand) prints the flat telemetry
counter/gauge/histogram snapshot.

Every grid figure (``fig01`` and ``fig08`` to ``fig14``) runs its points
through the sweep harness and fans them out over ``--parallel N`` worker
processes; every point carries its own seed, results, metrics and trace
spans merge in submission order, and the JSON, metrics and trace output
is byte-identical for any ``N`` (pinned by ``tests/test_sweep.py``).
Points are cached on disk in ``.repro_cache/`` keyed by (repro version,
point config); ``--no-cache`` bypasses the cache, and a ``--trace`` run
neither reads nor writes it.

``run scenario FILE...`` loads declarative deployment descriptions
(JSON/TOML, see ``repro.cluster``) and runs the microbenchmark workload
they describe; ``--validate-only`` stops after schema validation.

``lint [PATH...]`` runs the ``simcheck`` sim-safety linter
(:mod:`repro.analysis`) over the given files/directories (default
``src/repro``); exit code 1 means findings.  The runtime counterpart is
``REPRO_SANITIZE=1``, which any ``repro run`` honours.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
from typing import Any, Callable

from repro import __version__, telemetry
from repro.experiments import (
    fig01, fig02, fig08, fig09, fig10, fig11, fig12, fig13, fig14,
    tab01, tab05,
)

__all__ = ["main"]

#: Default on-disk cache for sweep points (bypass with ``--no-cache``).
CACHE_DIR = ".repro_cache"


def _default_seed(module) -> int | None:
    """The ``seed`` default of ``module.run`` (``None``: it takes none)."""
    param = inspect.signature(module.run).parameters.get("seed")
    return None if param is None else param.default


#: Default seed of each experiment's ``run()`` (``None`` = the
#: experiment is deterministic and takes no seed).
DEFAULT_SEEDS: dict[str, int | None] = {
    module.__name__.rpartition(".")[2]: _default_seed(module)
    for module in (
        fig01, fig02, fig08, fig09, fig10, fig11, fig12, fig13, fig14,
        tab01, tab05,
    )
}


def _grid_kw(args) -> dict[str, Any]:
    """Seed override and sweep-harness routing for a grid figure."""
    kw: dict[str, Any] = {
        "parallel": getattr(args, "parallel", None) or 1,
        "cache_dir": None if getattr(args, "no_cache", False) else CACHE_DIR,
    }
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    return kw


def _run_fig01(args) -> tuple[Any, str]:
    rows = fig01.run(ops_per_thread=args.ops or 300, **_grid_kw(args))
    return rows, fig01.format_rows(rows)


def _run_fig02(args) -> tuple[Any, str]:
    breakdown = fig02.run()
    return breakdown, fig02.format_breakdown(breakdown)


def _run_fig08(args) -> tuple[Any, str]:
    cells = fig08.run(ops_per_thread=args.ops or 300,
                      thread_counts=(1, 2, 4, 8, 16), **_grid_kw(args))
    return cells, fig08.format_cells(cells)


def _run_fig09(args) -> tuple[Any, str]:
    results = fig09.run(ops_per_thread=args.ops or 250,
                        record_count=12_000, **_grid_kw(args))
    return results, fig09.format_results(results)


def _run_fig10(args) -> tuple[Any, str]:
    results = fig10.run(ops_per_thread=args.ops or 250,
                        record_count=12_000, **_grid_kw(args))
    return results, fig10.format_results(results)


def _run_fig11(args) -> tuple[Any, str]:
    results = fig11.run(ops_per_thread=args.ops or 250,
                        record_count=12_000, **_grid_kw(args))
    return results, fig11.format_results(results)


def _run_fig12(args) -> tuple[Any, str]:
    results = fig12.run(ops_per_thread=args.ops or 300, **_grid_kw(args))
    return results, fig12.format_results(results)


def _run_fig13(args) -> tuple[Any, str]:
    rows = fig13.run(ops=args.ops or 200, **_grid_kw(args))
    return rows, fig13.format_rows(rows)


def _run_fig14(args) -> tuple[Any, str]:
    rows = fig14.run(ops_per_thread=args.ops or 200, **_grid_kw(args))
    return rows, fig14.format_rows(rows)


def _run_tab01(args) -> tuple[Any, str]:
    result = tab01.run()
    return result, result["rendered"]


def _run_tab05(args) -> tuple[Any, str]:
    result = tab05.run()
    lines = ["Table 5: Cowbird-P4 data-plane resources"]
    for key, value in result["estimated"].items():
        lines.append(f"  {key:<20s} {value}")
    lines.append(f"  matches paper row: {result['estimated'] == result['paper']}")
    return result, "\n".join(lines)


EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig01": ("normalized 256 B probe throughput (Figure 1)", _run_fig01),
    "fig02": ("per-read compute-side CPU breakdown (Figure 2)", _run_fig02),
    "fig08": ("hash-table throughput panels (Figure 8)", _run_fig08),
    "fig09": ("FASTER YCSB throughput (Figure 9)", _run_fig09),
    "fig10": ("FASTER communication ratio (Figure 10)", _run_fig10),
    "fig11": ("FASTER: Cowbird vs Redy (Figure 11)", _run_fig11),
    "fig12": ("8 B reads: Cowbird vs AIFM (Figure 12)", _run_fig12),
    "fig13": ("read latency by record size (Figure 13)", _run_fig13),
    "fig14": ("contending TCP bandwidth (Figure 14)", _run_fig14),
    "tab01": ("spot pricing (Table 1)", _run_tab01),
    "tab05": ("Tofino resource usage (Table 5)", _run_tab05),
}


def _to_jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _format_snapshot(snapshot: dict, prefix: str = "") -> str:
    """Render a flat metrics snapshot, one ``name value`` line per metric."""
    lines = []
    for name in sorted(snapshot):
        if prefix and not name.startswith(prefix):
            continue
        value = snapshot[name]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"  {name} = {value}")
    return "\n".join(lines) if lines else "  (no metrics recorded)"


def _run_scenarios(args) -> int:
    """``repro run scenario FILE...`` — validate and (optionally) run."""
    from repro.cluster import ScenarioError, load_scenario
    from repro.cluster.scenario import run_scenario

    if not args.paths:
        print("run scenario: at least one scenario file is required",
              file=sys.stderr)
        return 2
    dump: dict[str, Any] = {}
    for path in args.paths:
        try:
            spec = load_scenario(path)
            spec.validate()
        except (ScenarioError, OSError) as exc:
            print(f"INVALID {path}: {exc}", file=sys.stderr)
            return 1
        if args.validate_only:
            print(f"OK {path}: scenario {spec.name!r} "
                  f"(system={spec.system}, shards={spec.pool.shards}, "
                  f"threads={spec.workload.threads})")
            continue
        print(f"== scenario {spec.name} ({path})")
        started = time.time()
        result = run_scenario(spec)
        elapsed = time.time() - started
        print(f"   system={spec.system} threads={spec.workload.threads} "
              f"shards={spec.pool.shards} seed={spec.seed}")
        print(f"   total_ops={result.total_ops} "
              f"throughput={result.throughput_mops:.3f} Mops "
              f"elapsed_ns={result.elapsed_ns:.0f}")
        print(f"   ({elapsed:.1f}s wall)\n")
        dump[spec.name] = _to_jsonable(result)
    if args.json and not args.validate_only:
        dump["meta"] = {"repro_version": __version__}
        with open(args.json, "w") as handle:
            json.dump(dump, handle, indent=2)
        print(f"raw records written to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Cowbird paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser(
        "run", help="run one experiment, 'all', or 'scenario FILE...'"
    )
    run_parser.add_argument("experiment", choices=[*EXPERIMENTS, "all", "scenario"])
    run_parser.add_argument("paths", nargs="*", metavar="FILE",
                            help="scenario file(s) for 'run scenario'")
    run_parser.add_argument("--validate-only", action="store_true",
                            help="validate scenario files without running them")
    run_parser.add_argument("--ops", type=int, default=None,
                            help="operations per thread (scale knob)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the experiment's default seed")
    run_parser.add_argument("--parallel", type=int, default=None, metavar="N",
                            help="worker processes for the grid figures "
                                 "(fig01, fig08-fig14); output is "
                                 "byte-identical for any N")
    run_parser.add_argument("--no-cache", action="store_true",
                            help=f"skip the {CACHE_DIR}/ sweep-point cache")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also dump raw records as JSON")
    run_parser.add_argument("--trace", metavar="PATH", default=None,
                            help="write a Chrome trace_event JSON (Perfetto)")
    run_parser.add_argument("--metrics", action="store_true",
                            help="print the telemetry metrics snapshot")
    metrics_parser = subparsers.add_parser(
        "metrics", help="run one experiment and print its telemetry metrics"
    )
    metrics_parser.add_argument("experiment", choices=list(EXPERIMENTS))
    metrics_parser.add_argument("--ops", type=int, default=None,
                                help="operations per thread (scale knob)")
    metrics_parser.add_argument("--seed", type=int, default=None,
                                help="override the experiment's default seed")
    metrics_parser.add_argument("--prefix", default="",
                                help="only show metrics under this dotted prefix")
    lint_parser = subparsers.add_parser(
        "lint", help="run the simcheck sim-safety linter (SIM001-SIM007)"
    )
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files/directories to lint (default: src/repro)")
    lint_parser.add_argument("--select", action="append", metavar="CODES",
                             help="comma-separated rule codes to run exclusively")
    lint_parser.add_argument("--ignore", action="append", metavar="CODES",
                             help="comma-separated rule codes to skip")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit findings as a JSON array")
    args = parser.parse_args(argv)

    if args.command == "lint":
        from repro.analysis import simcheck

        return simcheck.run(
            args.paths or ["src/repro"],
            select=args.select,
            ignore=args.ignore,
            as_json=args.json,
        )

    if args.command == "list":
        for name, (description, _fn) in EXPERIMENTS.items():
            print(f"  {name:<7s} {description}")
        return 0

    if args.command == "run" and args.experiment == "scenario":
        return _run_scenarios(args)
    if getattr(args, "paths", None):
        parser.error("positional FILE arguments only apply to 'run scenario'")

    if args.command == "metrics":
        description, fn = EXPERIMENTS[args.experiment]
        tel = telemetry.Telemetry(max_events=0)  # metrics only, no spans
        with telemetry.activate(tel):
            fn(args)
        print(f"== {args.experiment}: telemetry metrics")
        print(_format_snapshot(tel.snapshot(), args.prefix))
        return 0

    # Telemetry observes only sim-time, so enabling it never changes the
    # numbers (pinned by tests/test_telemetry.py); collect it whenever any
    # output consumer (--trace, --metrics, --json metadata) wants it, and
    # record spans only for --trace.
    collect = bool(args.trace or args.metrics or args.json)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    dump: dict[str, Any] = {}
    meta: dict[str, Any] = {
        "repro_version": __version__,
        "experiments": {},
    }
    trace_events: list = []
    trace_metrics: dict[str, Any] = {}
    for name in names:
        description, fn = EXPERIMENTS[name]
        print(f"== {name}: {description}")
        started = time.time()
        if args.trace:
            tel = telemetry.Telemetry()
        elif collect:
            tel = telemetry.Telemetry(max_events=0)
        else:
            tel = telemetry.NULL_TELEMETRY
        with telemetry.activate(tel):
            raw, rendered = fn(args)
        elapsed = time.time() - started
        print(rendered)
        print(f"   ({elapsed:.1f}s wall)\n")
        dump[name] = _to_jsonable(raw)
        if collect:
            snapshot = tel.snapshot()
            total_ops = sum(
                v for k, v in snapshot.items()
                if k.startswith("bench.") and k.endswith(".ops")
            )
            meta["experiments"][name] = {
                "seed": args.seed if args.seed is not None
                else DEFAULT_SEEDS.get(name),
                "ops": args.ops,
                "total_ops": total_ops,
                "sim_duration_ns": tel.tracer.last_timestamp_ns(),
                "events_dispatched": snapshot.get("sim.events_dispatched", 0),
            }
            if args.metrics:
                print(f"-- {name}: telemetry metrics")
                print(_format_snapshot(snapshot))
                print()
            if args.trace:
                trace_events.extend(tel.tracer.events)
                trace_metrics[name] = snapshot
    if args.json:
        dump["meta"] = meta
        with open(args.json, "w") as handle:
            json.dump(dump, handle, indent=2)
        print(f"raw records written to {args.json}")
    if args.trace:
        telemetry.write_chrome_trace(args.trace, trace_events, trace_metrics)
        print(f"chrome trace written to {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
