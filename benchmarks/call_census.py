"""Python calls per op, by function, for one ``simbench`` round.

Usage (from any directory)::

    python3 benchmarks/call_census.py --workload ht-p4-8 [--top 25]

The census runs one round of ``simbench/workloads.py`` and counts the
``call`` events of :func:`sys.setprofile` (generator resumptions
included) while the simulation runs, that is inside
``Simulator.run_until_complete``: the deployment's set-up and the FASTER
load are not counted.  It prints the total calls per op, then the
``--top`` functions by calls per op, each as ``module:qualified name``
with its share of the total.  The counts do not depend on the host's
speed, only on the interpreter, so two checkouts compare exactly on the
same Python.  ``--json PATH`` also writes every function's count.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def census(workload: str, seed: int, ops_per_thread=None) -> tuple[int, Counter]:
    """Run one round; return its ops and the calls per function."""
    sys.path.insert(0, str(ROOT / "simbench"))
    import run as simbench_run

    simbench_run._import_simulator()
    from repro.sim.engine import Simulator
    from workloads import WORKLOADS, run_round

    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(frame.f_globals.get("__name__", "?"), code.co_qualname)] += 1

    original = Simulator.run_until_complete

    def counted(self, *args, **kwargs):
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            return original(self, *args, **kwargs)
        finally:
            sys.setprofile(previous)

    Simulator.run_until_complete = counted
    try:
        result = run_round(WORKLOADS[workload], seed, ops_per_thread)
    finally:
        Simulator.run_until_complete = original
    if not result.ok:
        raise SystemExit(f"error: the round failed: {result.failures}")
    return result.ops, calls


def report(ops: int, calls: Counter, top: int) -> list[str]:
    """The report's lines: the total, then the ``top`` functions."""
    total = sum(calls.values())
    lines = [f"{total / ops:.2f} calls per op ({total} calls, {ops} ops)"]
    for (module, name), n in calls.most_common(top):
        lines.append(f"{n / ops:9.2f}  {100.0 * n / total:5.1f} %  {module}:{name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument(
        "--seed", type=int, default=8,
        help="round seed (8: the first round of simbench/run.py --seed 1)",
    )
    parser.add_argument("--ops-per-thread", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    ops, calls = census(args.workload, args.seed, args.ops_per_thread)
    print("\n".join(report(ops, calls, args.top)))
    if args.json is not None:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "ops": ops,
            "calls": {f"{m}:{n}": c for (m, n), c in calls.most_common()},
        }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
