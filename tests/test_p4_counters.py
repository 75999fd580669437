"""Counters of a Cowbird-P4 probe round, pinned to recorded values.

The P4 engine terminates the switch's ingress links itself and sends on
the switch's egress links (``Switch.install``), so it, not
``Switch.receive``/``Switch.inject``, keeps the switch's counters for the
packets it consumes and sends.  This pins what the round counts:

* ``SwitchStats``, ``P4EngineStats``, each NIC's ``NicStats``, each
  queue pair's packet counters and each link's ``LinkStats``;
* the simulated end time and the events dispatched;
* with telemetry on, the metrics snapshot, the trace events per name
  and a digest of every trace event.

The round is the fixed probe round of ``tests/test_event_budget.py`` on
``cowbird-p4``, lossless and with every link dropping 1 % of its
packets.  The values in ``tests/golden/p4_counters.json`` were recorded
with the switch's own ingress and ``Switch.inject`` path; regenerate
them only for a change meant to move them, with
``PYTHONPATH=src python -m tests.test_p4_counters``, and say why in
CHANGES.md.
"""

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro import telemetry
from repro.analysis.sanitizer import sanitize_enabled
from repro.sim.network import FaultInjector
from tests.test_event_budget import probe_round

GOLDEN = Path(__file__).parent / "golden" / "p4_counters.json"
DROP_RATES = {"lossless": 0.0, "drop-1pct": 0.01}


def _plain(value):
    """``value`` as JSON gives it back (string keys, lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


def _run(drop_rate):
    deployment, drive = probe_round("cowbird-p4")
    if drop_rate:
        injector = FaultInjector(seed=1, drop_rate=drop_rate)
        for host in deployment.bed.hosts.values():
            host.uplink.fault_injector = injector
            host.downlink.fault_injector = injector
    result = drive()
    return deployment, result


def counters(drop_rate):
    """What a round counts with telemetry off."""
    deployment, result = _run(drop_rate)
    bed = deployment.bed
    out = {
        "ops": result.total_ops,
        "sim_now": deployment.sim.now,
        "events_dispatched": deployment.sim.events_dispatched,
        "switch": dataclasses.asdict(bed.switch.stats),
        "engine": dataclasses.asdict(deployment.engine.stats),
        "nics": {},
        "qps": {},
        "links": {},
    }
    for name, host in sorted(bed.hosts.items()):
        nic = host.nic
        out["nics"][name] = dataclasses.asdict(nic.stats)
        for qpn, qp in sorted(nic._qps.items()):
            out["qps"][f"{name}/{qpn}"] = {
                "packets_sent": qp.packets_sent,
                "packets_received": qp.packets_received,
                "retransmissions": qp.retransmissions,
                "naks_received": qp.naks_received,
            }
        for link in (host.uplink, host.downlink):
            out["links"][link.name] = dataclasses.asdict(link.stats)
    return _plain(out)


def telemetry_record(drop_rate):
    """What a round records with telemetry on."""
    with telemetry.activate(telemetry.Telemetry()) as tel:
        _run(drop_rate)
    events = tel.tracer.events
    digest = hashlib.blake2b()
    for e in events:
        digest.update(repr(
            (e.name, e.begin_ns, e.end_ns, e.process, e.track, sorted(e.attrs.items()))
        ).encode())
    return _plain({
        "snapshot": tel.snapshot(),
        "events_by_name": dict(Counter(e.name for e in events)),
        "events_digest": digest.hexdigest(),
    })


def record() -> dict:
    return {
        case: {"counters": counters(rate), "telemetry": telemetry_record(rate)}
        for case, rate in DROP_RATES.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _diff(expected, got, path=""):
    """Paths whose values differ, for a readable failure."""
    if isinstance(expected, dict) and isinstance(got, dict):
        out = []
        for key in sorted(expected.keys() | got.keys()):
            out += _diff(expected.get(key), got.get(key), f"{path}/{key}")
        return out
    return [] if expected == got else [f"{path}: expected {expected!r}, got {got!r}"]


@pytest.mark.skipif(sanitize_enabled(), reason="the sanitizer's loop is different code")
@pytest.mark.parametrize("case", sorted(DROP_RATES))
def test_counters_match_the_recorded_round(golden, case):
    got = counters(DROP_RATES[case])
    if case == "drop-1pct":
        assert got["engine"]["go_back_n_events"] > 0  # the round does recover
    assert _diff(golden[case]["counters"], got) == []


@pytest.mark.skipif(sanitize_enabled(), reason="the sanitizer's loop is different code")
@pytest.mark.parametrize("case", sorted(DROP_RATES))
def test_telemetry_matches_the_recorded_round(golden, case):
    got = telemetry_record(DROP_RATES[case])
    assert got["events_by_name"]["p4.request"] > 0
    assert _diff(golden[case]["telemetry"], got) == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
