"""OffloadEngine protocol conformance across both Cowbird engines.

The cluster layer's contract (ISSUE 4): ``CowbirdP4Engine`` and
``CowbirdSpotEngine`` are interchangeable behind the ``OffloadEngine``
protocol — same construction-free registration, same start/stop
lifecycle, same stats surface — and the same read/write/poll workload
completes identically through either.
"""

import pytest

from repro.cluster import OffloadEngine
from repro.experiments.common import build_microbench

#: Engine kind -> the registered system that runs it.
SYSTEMS = {"spot": "cowbird", "p4": "cowbird-p4"}
ENGINE_KINDS = tuple(SYSTEMS)

READS = 16
WRITES = 8
RECORD = 128


def _run_protocol_workload(kind: str):
    """Drive one instance through reads + writes; return what completed."""
    dep = build_microbench(SYSTEMS[kind], 1, remote_bytes=1 << 20)
    inst = dep.instances[0]
    thread = dep.compute.cpu.thread()
    pool_region = dep.pool_region()
    for i in range(READS):
        pool_region.write(dep.region.translate(i * RECORD), bytes([i + 1]) * RECORD)
    completed = []

    def app():
        poll = inst.poll_create()
        ids = []
        for i in range(READS):
            rid = yield from inst.async_read(thread, 0, i * RECORD, RECORD)
            inst.poll_add(poll, rid)
            ids.append(rid)
        for i in range(WRITES):
            wid = yield from inst.async_write(
                thread, 0, (READS + i) * RECORD, bytes([0x80 + i]) * 64
            )
            inst.poll_add(poll, wid)
            ids.append(wid)
        done = 0
        while done < READS + WRITES:
            events = yield from inst.poll_wait(thread, poll, max_ret=64)
            completed.extend(e.request_id for e in events)
            done += len(events)
        return ids

    ids = dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=100e9)
    read_data = {rid: inst.fetch_response(rid) for rid in ids[:READS]}
    write_data = {
        i: pool_region.read(dep.region.translate((READS + i) * RECORD), 64)
        for i in range(WRITES)
    }
    return dep, ids, sorted(completed), read_data, write_data


class TestProtocolConformance:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_engine_satisfies_protocol(self, kind):
        dep = build_microbench(SYSTEMS[kind], 1)
        assert isinstance(dep.engine, OffloadEngine)
        dep.close()

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_stats_snapshot_is_flat_dict(self, kind):
        dep, _ids, completed, _reads, _writes = _run_protocol_workload(kind)
        snapshot = dep.engine.stats_snapshot()
        assert isinstance(snapshot, dict)
        for key, value in snapshot.items():
            assert isinstance(key, str)
            assert isinstance(value, (int, float))
        assert snapshot["reads_executed"] == READS
        assert snapshot["writes_executed"] == WRITES
        assert len(completed) == READS + WRITES
        dep.close()

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_stop_is_idempotent(self, kind):
        dep = build_microbench(SYSTEMS[kind], 1)
        dep.engine.stop()
        dep.engine.stop()  # second stop must be a no-op
        dep.close()  # and so must closing again

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_stop_halts_recurring_work(self, kind):
        """A stopped engine does no further probing as sim time passes."""
        dep, *_ = _run_protocol_workload(kind)
        dep.engine.stop()
        before = dep.engine.stats_snapshot()
        dep.sim.run(until=dep.sim.now + 50e6)  # 50 ms of sim time
        assert dep.engine.stats_snapshot() == before


class TestIdenticalCompletion:
    def test_same_workload_completes_identically_on_both_engines(self):
        """Same instance workload, either engine: same request ids
        complete, same read payloads come back, same write bytes land."""
        results = {
            kind: _run_protocol_workload(kind) for kind in ENGINE_KINDS
        }
        (_, ids_a, completed_a, reads_a, writes_a) = results["spot"]
        (_, ids_b, completed_b, reads_b, writes_b) = results["p4"]
        assert ids_a == ids_b
        assert completed_a == completed_b
        assert reads_a == reads_b
        assert writes_a == writes_b
        for dep, *_rest in results.values():
            dep.close()
