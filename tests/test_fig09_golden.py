"""Figure 9's records at a small scale, pinned to recorded values.

``benchmarks/test_fig09_faster_ycsb.py`` checks the figure's shape; this
pins what ``python -m repro run fig09 --ops 20 --no-cache --json PATH``
writes: every record (seven storage backends, 64 B and 512 B values, 1,
4 and 16 threads) and the run's ``meta.experiments`` (simulated duration
and events dispatched).  The FASTER database is built by the bulk load,
so a change to the load, its cold-page backing or the hybrid log that
moves any simulated result fails here.  The values in
``tests/golden/fig09_ops20.json`` were recorded with Python 3.11; a
change meant to move them regenerates the file with::

    PYTHONPATH=src python -m tests.test_fig09_golden

and says in CHANGES.md what moved and why.  From Python 3.12 on, ``sum()``
compensates float rounding, so the per-thread CPU totals that
``run_faster_bench`` sums (``FLOAT_TOTALS``) are compared to within
rounding there.  The sanitizer runs its own event loop, which
dispatches more events, so under ``REPRO_SANITIZE=1`` the events
dispatched are not compared.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitizer import sanitize_enabled
from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "fig09_ops20.json"
FLOAT_TOTALS = ("comm_cpu_ns", "app_cpu_ns", "blocked_ns")


def fig09_run(path: Path) -> dict:
    """The ``fig09`` records and ``meta.experiments`` of a fresh run."""
    assert main(["run", "fig09", "--ops", "20", "--no-cache", "--json", str(path)]) == 0
    raw = json.loads(path.read_text())
    return {"fig09": raw["fig09"], "meta": {"experiments": raw["meta"]["experiments"]}}


def test_fig09_matches_recorded_run(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    fresh = fig09_run(tmp_path / "fig09.json")
    capsys.readouterr()
    if sanitize_enabled():
        for record in (fresh, golden):
            del record["meta"]["experiments"]["fig09"]["events_dispatched"]
    assert fresh["meta"] == golden["meta"]
    assert len(fresh["fig09"]) == len(golden["fig09"])
    for got, want in zip(fresh["fig09"], golden["fig09"]):
        if sys.version_info >= (3, 12):
            for name in FLOAT_TOTALS:
                assert got.pop(name) == pytest.approx(want.pop(name), rel=1e-12), name
        assert got == want


if __name__ == "__main__":
    if sys.version_info[:2] != (3, 11):
        sys.exit("write the golden file with Python 3.11")
    record = fig09_run(GOLDEN.with_suffix(".raw.json"))
    GOLDEN.with_suffix(".raw.json").unlink()
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
