"""Smoke test of the lockstep A/B runner, ``benchmarks/simbench_ab.py``.

The runner is given this checkout as both sides, with tiny rounds: two
worker processes, two pairs.  Identical code must give identical
fingerprints in every pair, and the report must name each timing.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "benchmarks" / "simbench_ab.py"


def load_runner():
    spec = importlib.util.spec_from_file_location("simbench_ab", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runner_pairs_a_checkout_with_itself(tmp_path):
    out = tmp_path / "pairs.json"
    result = subprocess.run(
        [sys.executable, str(RUNNER), str(ROOT), str(ROOT),
         "--workload", "ht-p4-8", "--pairs", "2", "--ops-per-thread", "2",
         "--json", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "ht-p4-8: 2 pairs, fingerprints equal" in result.stdout
    assert "run_cpu_s" in result.stdout and "setup_s" in result.stdout
    pairs = json.loads(out.read_text())["ht-p4-8"]["pairs"]
    assert [pair["first"] for pair in pairs] == ["parent", "change"]
    assert pairs[0]["seed"] != pairs[1]["seed"]
    for pair in pairs:
        assert pair["parent"]["fingerprint"] == pair["change"]["fingerprint"]


def test_summary_counts_wins_and_ratios():
    runner = load_runner()
    pairs = [
        {"seed": seed, "parent": {"run_cpu_s": p, "setup_s": 1.0},
         "change": {"run_cpu_s": c, "setup_s": 1.0}}
        for seed, p, c in [(1, 2.0, 1.0), (2, 3.0, 2.0), (1, 1.0, 1.0), (2, 1.0, 2.0)]
    ]
    summary = runner.summarize(pairs)
    run = summary["run_cpu_s"]
    assert run["change_wins"] == 2  # the tie counts for neither side
    assert run["median_ratio"] == (1.5 + 1.0) / 2
    assert run["parent"][1] == 1.5 and run["change"][1] == 1.5
    # Fastest per seed: parent 1.0 + 1.0, change 1.0 + 2.0.
    assert run["fastest_ratio"] == 2.0 / 3.0
    assert summary["setup_s"]["change_wins"] == 0
