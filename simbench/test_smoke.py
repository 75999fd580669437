"""Smoke test of the simulator benchmark at tiny op counts.

Run from the repository root::

    python3 -m pytest simbench/test_smoke.py -q

Each workload runs untraced and traced with ten ops per thread.  The
test checks that the run passes its own correctness and fidelity checks,
that every metric is printed by name with its unit, and that
``BENCHMARK.json`` declares exactly the metrics the program reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("ht-spot-256", "ht-p4-8", "ycsb-spot-rw")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "simbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checks_pass(workload: str, trace: str) -> None:
    proc = _bench(
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--trace", trace, "--ops-per-thread", "10",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = (
        [(name, unit) for name, unit, _, _ in run.END_TO_END]
        if trace == "0" else list(run.PER_LAYER)
    )
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(declared)
    text = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    for name, unit in declared + [("error_rate", "ratio")]:
        assert text.get(name) == unit, f"{name} not printed with unit {unit}"
    if trace == "1":
        for name, unit in run.TEXT_ONLY:
            assert text.get(name) == unit, f"{name} not printed with unit {unit}"
        assert result["metrics"]["engine.events_per_op"]["value"] > 0
        assert result["metrics"]["network.drops"]["value"] == 0
        assert result["metrics"]["nic.retransmits"]["value"] == 0


def test_benchmark_json_matches_the_program() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_simulator_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "simbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        "--workload", "ht-spot-256", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
