"""Python calls per simulated op: a deterministic guard on host work.

``tests/test_simbench_counts.py`` pins the host events per op of the
benchmark's workloads; this bounds the host work behind them, counted as
Python function calls (the ``call`` events of :func:`sys.setprofile`,
generator resumptions included) on the probe round of
``tests/test_event_budget.py``.  The count does not depend on the host's
speed, only on the interpreter: 3.12 inlines comprehensions and reads a
few calls lower than 3.10 and 3.11.  The sanitizer runs its own event
loop, so the budgets do not apply under ``REPRO_SANITIZE=1``.
"""

import sys

import pytest

from repro.analysis.sanitizer import sanitize_enabled
from tests.test_event_budget import probe_round

#: Measured on 3.10 / 3.11 / 3.12 with the NIC as its host's downlink
#: endpoint: cowbird 200.01 / 200.01 / 198.97 and cowbird-p4 197.75 /
#: 197.75 / 196.48 (202.40 and 200.67 on 3.11 when every delivery went
#: through ``Host.receive``; 218.05 and 231.75 with BTH/RETH/AETH header
#: objects and a ``size_bytes`` property; 313.96 and 314.47 when helper
#: chains ran per hop, per chunk and per poll).  Each budget is the 3.11
#: count plus 2 %.
BUDGETS = {"cowbird": 204.0, "cowbird-p4": 201.7}


@pytest.mark.skipif(sanitize_enabled(), reason="the sanitizer's loop is different code")
@pytest.mark.parametrize("system", sorted(BUDGETS))
def test_calls_per_op_within_budget(system):
    deployment, drive = probe_round(system)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = drive()
    finally:
        sys.setprofile(previous)
    assert result.total_ops == 800
    assert calls / result.total_ops <= BUDGETS[system]
