"""Python calls per simulated op: a deterministic guard on host work.

``tests/test_simbench_counts.py`` pins the host events per op of the
benchmark's workloads; this bounds the host work behind them, counted as
Python function calls (the ``call`` events of :func:`sys.setprofile`,
generator resumptions included).  Two rounds are counted: the read-only
hash-table probe round of ``tests/test_event_budget.py`` on both engines,
and a FASTER/YCSB 50/50 round on Cowbird-Spot, whose page flushes take
the write path (``async_write``, multi-packet WRITE trains and the
responder's ``_respond_write``).  A third budget bounds the calls per
record of the bulk ``FasterKv.load`` that builds that round's database
from a mapping, and an exact count checks that the round reads the
load's spilled pages in place.
The count does not depend on the host's speed, only on the interpreter:
3.12 inlines comprehensions and reads a few calls lower than 3.11.  The
sanitizer runs its own event loop, so the budgets do not apply under
``REPRO_SANITIZE=1``.
"""

import gc
import sys

import pytest

from repro.analysis.sanitizer import sanitize_enabled
from repro.experiments.common import build_microbench
from repro.experiments.faster_bench import _log_config_for, load_backing, ycsb_worker
from repro.faster.store import FasterConfig, FasterKv
from repro.sim.cpu import CostModel
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload
from tests.test_event_budget import probe_round

#: Measured on 3.11 with the P4 engine terminating the switch's ingress
#: links and sending on its egress links itself, inline responder ACKs
#: and single-packet read responses, and completed reads freed without a
#: copy (``poll_release``): cowbird 100.44 and cowbird-p4 96.77.  Before,
#: with plain slots records on the Spot path: cowbird
#: 113.09 and cowbird-p4 123.49 (141.78 and 137.27 before).  Metadata
#: entries, work requests and the agent's ops are built in one call each,
#: and an engine parses each entry in place; the wake on a host uplink is
#: one pop; the backend charges the client's CPU time itself, one
#: generator frame above each chunk fewer; a single-packet write keeps no
#: responder cursor; and the NIC's post, the client's poll registration
#: and response release call no helpers.  Earlier, with both requesters'
#: PSN bookkeeping in one ``RequesterWindow``: 141.78 and 137.27.  The RNIC
#: opens a work request in one call where the queue pair took two, and
#: builds its packets in one more where it took two.  The switch retires
#: what an ACK covers in one call where it took one plus one per op, and
#: a completed read in one where it took none.  Before the window, on
#: 3.10 / 3.11 / 3.12: cowbird 145.34 / 145.34 / 145.26 and cowbird-p4
#: 138.11 / 138.11 / 137.91, with PSN arithmetic as inline masks,
#: request ids read by shift and mask, a red-block-only write watch, one
#: frame per switch injection and positional arguments on the per-packet
#: constructors (200.01 and 197.75 on 3.11 with the NIC as its host's
#: downlink endpoint; 202.40 and 200.67 when every delivery went through
#: ``Host.receive``; 218.05 and 231.75 with BTH/RETH/AETH header objects
#: and a ``size_bytes`` property; 313.96 and 314.47 when helper chains
#: ran per hop, per chunk and per poll).  Each budget is the 3.11 count
#: plus 2 %.
BUDGETS = {"cowbird": 102.5, "cowbird-p4": 98.8}

#: The write-path round, measured the same way: 146.70 on 3.11 with the
#: window (150.54 / 150.54 / 150.13 on 3.10 / 3.11 / 3.12 before it,
#: 187.94 on 3.11 before the changes above).  Packing the load's
#: deferred pages when the round first read them added 0.35 (147.05);
#: reading each cold record through its page's records instead, four
#: calls per read of a deferred page, made it 147.72; the cuts above make
#: it 128.45, and freeing completed reads without a copy 123.97.  Reading
#: the load's pages from its record source, three calls per read of a
#: deferred page and two per read of a resident loaded page: 123.82.
#: The 3.11 count plus 2 %.
WRITE_PATH_BUDGET = 126.3

#: ``FasterKv.load`` of the write-path round's 4 000 records from a
#: mapping (31 per page, 99 pages spilled to the pool region as one
#: deferred span), on 3.11: 0.0340 calls per record, checked 16 pages at
#: a time, with one page object per resident page and none per spilled
#: one.  Before the load read its pages from a record source: 0.1065,
#: with a record-page object per page, indexed and spilled 16 pages at a
#: time (0.0700 when the pages that stay resident were packed instead;
#: 0.3290 before deferral, about 10 calls per page).  The 3.11 count
#: plus 2 %.
LOAD_BUDGETS = {"mapping": 0.0347}


def count_calls(drive):
    """Run ``drive()``; return its result and the Python calls it made.

    Collects garbage first: a collection that starts inside the count
    runs the ``gc.callbacks`` a library registered (hypothesis times its
    collections), a few calls each, at a point that depends on what ran
    before."""
    gc.collect()
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
    return result, calls


def write_path_round(
    threads=4, ops_per_thread=150, records=4_000, value_bytes=512,
    run_load=lambda load: load(), mapping=True,
):
    """A short FASTER/YCSB 50/50 round on ``cowbird``, built the way
    :func:`repro.experiments.faster_bench.run_faster_bench` builds one
    (at a 25 % in-memory log, so updates evict pages and flush them),
    but loaded from a mapping, as ``simbench``'s ``ycsb-spot-rw`` round
    is, unless ``mapping`` is false: then from ``range(records)`` and
    the loader's ``value_for``, as ``run_faster_bench`` loads.
    ``run_load(load)`` runs the load, once the mapping is built.

    Returns the deployment, the store and a callable that runs the round
    and returns the ops done.
    """
    cost = CostModel()
    ycsb = YcsbConfig(
        record_count=records, value_bytes=value_bytes, read_fraction=0.5, seed=9,
    )
    config = FasterConfig(
        value_bytes=value_bytes,
        log=_log_config_for(records, ycsb.record_bytes, 0.25),
    )
    deployment = build_microbench(
        "cowbird", threads,
        remote_bytes=records * config.record_bytes * 2 + (1 << 20),
        cost=cost, seed=9, pipeline_depth=64,
    )
    store = FasterKv(deployment.backends[0], cost, config)
    load_backing(deployment, store)
    loader = YcsbWorkload(ycsb, worker_seed=0)
    if mapping:
        items = {key: loader.value_for(key) for key in range(records)}
        run_load(lambda: store.load(items))
    else:
        run_load(lambda: store.load(range(records), loader.value_for))
    sim = deployment.sim
    processes = [
        sim.spawn(
            ycsb_worker(
                deployment.compute.cpu.thread(f"faster-{i}"), store,
                deployment.backends[i], YcsbWorkload(ycsb, worker_seed=i + 1),
                ops_per_thread,
            ),
            name=f"faster-{i}",
        )
        for i in range(threads)
    ]

    def drive():
        results = [sim.run_until_complete(p, deadline=300e9) for p in processes]
        return sum(r["ops"] for r in results)

    return deployment, store, drive


@pytest.mark.skipif(sanitize_enabled(), reason="the sanitizer's loop is different code")
@pytest.mark.parametrize("system", sorted(BUDGETS))
def test_calls_per_op_within_budget(system):
    deployment, drive = probe_round(system)
    result, calls = count_calls(drive)
    assert result.total_ops == 800
    assert calls / result.total_ops <= BUDGETS[system]


@pytest.mark.skipif(sanitize_enabled(), reason="the sanitizer's loop is different code")
def test_write_path_calls_per_op_within_budget():
    deployment, store, drive = write_path_round()
    ops, calls = count_calls(drive)
    deployment.close()
    assert ops == 600
    assert store.stats_flushes > 0  # the round does take the write path
    assert calls / ops <= WRITE_PATH_BUDGET


def load_calls_per_record():
    """Calls per record of a second load of the write-path round's
    database from a mapping, on a fresh store over the same
    deployment."""
    deployment, loaded, _drive = write_path_round()
    store = FasterKv(deployment.backends[0], loaded.cost, loaded.config)
    load_backing(deployment, store)
    value_bytes = store.config.value_bytes
    items = {key: bytes([key % 251]) * value_bytes for key in range(4_000)}
    _, calls = count_calls(lambda: store.load(items))
    deployment.close()
    assert len(store.index) == 4_000
    assert store.log.pages_evicted == 99
    return calls / len(items)


@pytest.mark.skipif(sanitize_enabled(), reason="the sanitizer's loop is different code")
def test_load_calls_per_record_within_budget():
    assert load_calls_per_record() <= LOAD_BUDGETS["mapping"]


def test_write_path_reads_cold_pages_in_place():
    """The load defers all 99 of its spilled pages, device pages 0-98, to
    the pool region: it plans for the short last page, whose single
    record would have evicted one more.  The round reads through the
    deferred pages exactly once per device read that lands on one, and
    writes none of them into the region."""
    deployment, store, drive = write_path_round()
    pool = deployment.pool_region()
    assert store.log.pages_evicted == 99
    cold = 99
    assert len(pool._deferred) == cold
    page_bits = store.config.log.page_bits
    pages_read = []
    for backend in deployment.backends:

        def issue_read(thread, offset, length, issue_read=backend.issue_read):
            pages_read.append(offset >> page_bits)
            return issue_read(thread, offset, length)

        backend.issue_read = issue_read
    read_throughs = []

    def read_through(addr, length, read_through=pool._read_through):
        read_throughs.append(addr)
        return read_through(addr, length)

    pool._read_through = read_through
    assert drive() == 600
    assert len(read_throughs) == sum(page < cold for page in pages_read) > 0
    assert len(pool._deferred) == cold
    deployment.close()
