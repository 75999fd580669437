"""Exact per-op counts and simulated results of the benchmark's workloads.

For every workload in ``BENCHMARK.json``, ``simbench/run.py`` runs a
short fixed round (seed 5, ten ops per thread) traced and untraced.
Every metric that does not time the host must equal its value in
``tests/golden/simbench_counts.json`` exactly: the per-layer counts and
ratios of ``--trace 1`` (events, link sends, packets, posts, polls, Spot
batches, P4 recycles, FASTER flushes per op) and the ``sim_*`` results
of ``--trace 0``.  A move either way fails: more work per op is a
regression, and less work or a different simulated result must be shown
on purpose.  A change that moves a value on purpose rewrites the file::

    PYTHONPATH=src python -m tests.test_simbench_counts

and says in CHANGES.md which values moved and why.  The sanitizer runs
its own event loop, so the counts do not apply under ``REPRO_SANITIZE=1``.

From Python 3.12 on, ``sum()`` compensates float rounding, so the
``FLOAT_TOTALS`` can differ from the 3.11 values in the last bit
(``spot.agent_busy_frac`` on ``ht-spot-256`` reads 0.3303486487727746,
not 0.33034864877277453).  There they are not compared, and the file is
written with 3.11.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitizer import sanitize_enabled

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "simbench_counts.json"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
ROUND = ("--seed", "5", "--seconds", "0", "--ops-per-thread", "10")
#: Per-layer metrics of ``--trace 1`` that time the host, besides the
#: ``*.self_ms`` ones.
HOST_TIMED = ("engine.ns_per_event", "setup.build_ms", "trace.overhead")
#: The only metrics gated from ``--trace 0``.
SIMULATED = ("sim_mops", "sim_read_p50_us", "sim_read_p99_us")
#: Ratios of float totals that ``simbench/run.py`` takes with ``sum()``,
#: not compared where ``sum()`` compensates float rounding.
FLOAT_TOTALS = ("sim_mops", "spot.agent_busy_frac")
UNCOMPARED = FLOAT_TOTALS if sys.version_info >= (3, 12) else ()


def _gated(name: str, trace: str) -> bool:
    if trace == "0":
        return name in SIMULATED
    return name not in HOST_TIMED and not name.endswith(".self_ms")


def measure(workload: str) -> dict:
    """The gated metrics of one workload's round, by name."""
    values = {}
    for trace in ("1", "0"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "simbench" / "run.py"),
             "--workload", workload, *ROUND, "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} --trace {trace} failed:\n{proc.stdout}{proc.stderr}")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        values.update(
            (name, m["value"]) for name, m in metrics.items() if _gated(name, trace)
        )
    return values


@pytest.mark.skipif(sanitize_enabled(), reason="the sanitizer's loop is different code")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_match_golden(workload):
    expected = json.loads(GOLDEN.read_text())[workload]
    got = measure(workload)
    moved = [
        f"{workload} {name}: expected {expected.get(name)!r}, got {got.get(name)!r}"
        for name in sorted(expected.keys() | got.keys())
        if expected.get(name) != got.get(name) and name not in UNCOMPARED
    ]
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    if UNCOMPARED:
        sys.exit("write the golden file with Python 3.11 (see the module docstring)")
    GOLDEN.write_text(
        json.dumps({w: measure(w) for w in WORKLOADS}, indent=2, sort_keys=True) + "\n"
    )
