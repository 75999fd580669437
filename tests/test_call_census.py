"""Smoke test of the per-function call census, ``benchmarks/call_census.py``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "benchmarks" / "call_census.py"


def test_census_counts_a_tiny_round(tmp_path):
    out = tmp_path / "census.json"
    result = subprocess.run(
        [sys.executable, str(CENSUS), "--workload", "ht-p4-8", "--top", "5",
         "--ops-per-thread", "2", "--json", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert " calls per op (" in lines[0]
    assert len(lines) == 6  # the total, then the top 5 functions
    census = json.loads(out.read_text())
    assert census["ops"] == 16  # 8 threads x 2 ops
    assert census["calls"]["repro.sim.cpu:Thread.compute"] > 0
    assert sum(census["calls"].values()) == int(lines[0].split("(")[1].split()[0])
