"""Lockstep A/B of two checkouts on ``simbench`` rounds.

Usage (from any directory)::

    python3 benchmarks/simbench_ab.py PARENT CHANGE --workload ht-spot-256 --pairs 48

``PARENT`` and ``CHANGE`` are two checkouts of this repository (for
example a ``git clone`` of the parent commit and the working tree).  One
worker process per checkout imports that checkout's
``simbench/workloads.py`` and simulator, and the two run
``run_round`` alternately: pair ``i`` runs the same round seed on both,
the parent first on even pairs and the change first on odd ones, so a
phase of host contention falls on both sides alike.  Only one worker
runs at a time.  The round seeds cycle through ``simbench/run.py``'s
seeds for ``--seed``.

Each pair must give the same ``Round.fingerprint()`` (the simulated
results) on both sides; the runner stops with exit status 1 when one
does not, or when a round fails its own checks.  Per workload it prints
each side's median and interquartile range of run CPU time and set-up
time, the median of the per-pair ratio parent / change (above 1: the
change is faster), the pairs the change won (ties count for neither),
and the ratio of the sums of each seed's fastest round, which is how
``simbench/run.py`` turns run CPU time into ``ops_per_s``.  ``--json
PATH`` also writes every pair's timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Timings compared per pair, as ``Round`` attributes.
TIMINGS = ("run_cpu_s", "setup_s")


def worker(checkout: Path) -> None:
    """Serve rounds of ``checkout``: one JSON request per stdin line,
    one JSON reply per stdout line."""
    sys.path.insert(0, str(checkout / "simbench"))
    import run as simbench_run  # this checkout's simbench/run.py

    simbench_run._import_simulator()
    simbench_run._fix_malloc_mmap_threshold()
    from workloads import WORKLOADS, run_round

    replies = sys.stdout
    # Whatever a round prints goes to stderr; stdout carries replies only.
    sys.stdout = sys.stderr
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "seeds":
            reply = {
                "seeds": simbench_run.round_seeds(request["seed"]),
                "workloads": sorted(WORKLOADS),
            }
        else:
            r = run_round(
                WORKLOADS[request["workload"]], request["seed"],
                request["ops_per_thread"],
            )
            reply = {
                "ok": r.ok, "failures": r.failures, "fingerprint": r.fingerprint(),
                "run_cpu_s": r.run_cpu_s, "setup_s": r.setup_s,
            }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


class Worker:
    """A worker process for one checkout."""

    def __init__(self, checkout: Path) -> None:
        self.checkout = checkout
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, **request) -> dict:
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker for {self.checkout} exited")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def quartiles(values: list) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def fastest_ratio(pairs: list, timing: str) -> float:
    """Sum over seeds of the parent's fastest round over the same sum for
    the change."""
    fastest = {"parent": {}, "change": {}}
    for pair in pairs:
        for side, best in fastest.items():
            value = pair[side][timing]
            best[pair["seed"]] = min(value, best.get(pair["seed"], value))
    change = sum(fastest["change"].values())
    return sum(fastest["parent"].values()) / change if change > 0 else float("nan")


def summarize(pairs: list) -> dict:
    """Per timing: each side's quartiles, the median ratio, the wins and
    the fastest-round ratio."""
    summary = {}
    for timing in TIMINGS:
        parent = [p["parent"][timing] for p in pairs]
        change = [p["change"][timing] for p in pairs]
        ratios = [a / b for a, b in zip(parent, change) if b > 0]
        summary[timing] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "median_ratio": statistics.median(ratios) if ratios else float("nan"),
            "change_wins": sum(b < a for a, b in zip(parent, change)),
            "fastest_ratio": fastest_ratio(pairs, timing),
            "pairs": len(pairs),
        }
    return summary


def run_pairs(workers: dict, workload: str, seeds: list, pairs: int,
              ops_per_thread) -> list:
    """Run ``pairs`` lockstep pairs; raise on a fingerprint mismatch or a
    failed round."""
    results = []
    for index in range(pairs):
        seed = seeds[index % len(seeds)]
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = workers[side].ask(
                op="round", workload=workload, seed=seed, ops_per_thread=ops_per_thread,
            )
            if not pair[side]["ok"]:
                raise RuntimeError(
                    f"{workload} seed {seed}: the {side} round failed: "
                    f"{pair[side]['failures']}"
                )
        if pair["parent"]["fingerprint"] != pair["change"]["fingerprint"]:
            raise RuntimeError(
                f"{workload} seed {seed}: simulated results differ between "
                "parent and change"
            )
        results.append(pair)
    return results


def report(workload: str, summary: dict) -> str:
    lines = [f"{workload}: {summary['run_cpu_s']['pairs']} pairs, fingerprints equal"]
    for timing in TIMINGS:
        s = summary[timing]
        p_low, p_med, p_high = s["parent"]
        c_low, c_med, c_high = s["change"]
        lines.append(
            f"  {timing:<10} parent median {p_med:.4f} s IQR {p_high - p_low:.4f} | "
            f"change median {c_med:.4f} s IQR {c_high - c_low:.4f} | "
            f"parent/change median {s['median_ratio']:.3f}, "
            f"of fastest per seed {s['fastest_ratio']:.3f} | "
            f"change wins {s['change_wins']}/{s['pairs']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument(
        "--workload", action="append",
        help="a simbench workload; repeat for several (default: all)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--ops-per-thread", type=int, default=None,
        help="override the workloads' ops per thread per round",
    )
    parser.add_argument("--json", type=Path, default=None, help="write every pair here")
    parser.add_argument("--worker", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker.resolve())
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE checkouts are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workers = {
        "parent": Worker(args.parent.resolve()),
        "change": Worker(args.change.resolve()),
    }
    out = {}
    try:
        info = workers["parent"].ask(op="seeds", seed=args.seed)
        workloads = args.workload or info["workloads"]
        unknown = sorted(set(workloads) - set(info["workloads"]))
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; pick from {info['workloads']}")
        for workload in workloads:
            try:
                pairs = run_pairs(
                    workers, workload, info["seeds"], args.pairs, args.ops_per_thread
                )
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            summary = summarize(pairs)
            out[workload] = {"summary": summary, "pairs": pairs}
            print(report(workload, summary), flush=True)
    finally:
        for w in workers.values():
            w.close()
    if args.json is not None:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
