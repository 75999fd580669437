"""Smoke tests: the example scripts must stay runnable.

Only the fast examples run here (the scaling/FASTER sweeps are covered
functionally by the benchmark suite); each executes in-process with its
output captured and key landmarks asserted.
"""

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestFastExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "read returned:" in out
        assert "b'hello from the pool!'" in out
        assert "compute-side RDMA messages: 0" in out

    def test_lossy_network(self, capsys):
        out = run_example("lossy_network.py", capsys)
        assert out.count("correct=30/30") == 3
        assert "drop=   5%" in out

    def test_protocol_trace(self, capsys):
        out = run_example("protocol_trace.py", capsys)
        assert "RC_RDMA_READ_REQUEST" in out
        assert "b'the payload bytes'" in out
        assert "packets recycled" in out

    def test_offload_cost(self, capsys):
        out = run_example("offload_cost.py", capsys)
        assert "Table 1" in out
        assert "duty cycle" in out

    def test_telemetry_tour(self, capsys):
        out = run_example("telemetry_tour.py", capsys)
        assert "nic.compute.rx_packets" in out
        assert "spot.read" in out
        assert "chrome trace written to" in out
