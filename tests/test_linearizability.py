"""Randomized linearizability checking against a sequential model.

Section 4.1/5.3: Cowbird guarantees per-type ordered execution from a
single thread and read-after-write consistency (linearizability), on
both offload engines — even under packet loss.  These tests run seeded
random workloads and check every completion against a sequential
reference model of the remote region: at 1 % random loss over the
whole loss census, with slots that take three packets each, and with
chosen packets dropped on one link (a hypothesis search that shrinks a
failure to a minimal drop set).
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cowbird.api import BufferFullError, CowbirdConfig
from repro.cowbird.wire import RwType, decode_request_id
from repro.experiments.common import build_microbench
from repro.rdma.packets import READ_RESPONSES, WRITES, Opcode
from repro.sim.engine import SimulationError
from repro.sim.network import FaultInjector

REGION_BYTES = 1 << 14
SLOTS = 16
SLOT_BYTES = 64
#: Slots of three packets each at the 1024 B MTU.
TRAIN_SLOT_BYTES = 2560


def random_workload_check(dep, seed, ops=60, deadline=500e9, slot_bytes=SLOT_BYTES):
    """Issue a random read/write mix of ``slot_bytes`` slots; validate
    against a shadow model.  The region must hold ``SLOTS`` slots."""
    inst = dep.instances[0]
    thread = dep.compute.cpu.thread()
    rng = random.Random(seed)
    # Shadow model: per-slot version history.  A read must return some
    # value that was (or became) current while it was outstanding: the
    # value at issue time, or any later write to the slot — Section 4.1
    # guarantees per-type order and read-AFTER-write consistency, but a
    # write issued after an in-flight read may legally be observed by it
    # (both linearization orders are valid for concurrent operations).
    history = {slot: [b"\x00" * slot_bytes] for slot in range(SLOTS)}
    read_window = {}   # request_id -> (slot, index of version at issue)
    issue_order = {"read": [], "write": []}
    completion_order = {"read": [], "write": []}
    version = 0

    def check(events):
        for event in events:
            rw_type, _r, _s = decode_request_id(event.request_id)
            kind = "read" if rw_type is RwType.READ else "write"
            completion_order[kind].append(event.request_id)
            if rw_type is RwType.READ:
                data = inst.fetch_response(event.request_id)
                slot, floor = read_window[event.request_id]
                assert data in history[slot][floor:], (
                    f"read {event.request_id} of slot {slot} returned a value "
                    f"never current during its window (stale or corrupt)"
                )

    def app():
        nonlocal version
        poll = inst.poll_create()
        outstanding = 0
        for _ in range(ops):
            slot = rng.randrange(SLOTS)
            offset = slot * slot_bytes
            if rng.random() < 0.4:
                version += 1
                payload = version.to_bytes(4, "little") * (slot_bytes // 4)
                request_id = yield from inst.async_write(
                    thread, 0, offset, payload
                )
                history[slot].append(payload)
                issue_order["write"].append(request_id)
            else:
                request_id = yield from inst.async_read(
                    thread, 0, offset, slot_bytes
                )
                read_window[request_id] = (slot, len(history[slot]) - 1)
                issue_order["read"].append(request_id)
            inst.poll_add(poll, request_id)
            outstanding += 1
            events = yield from inst.poll_wait(
                thread, poll, max_ret=16,
                timeout=None if outstanding >= 24 else 0,
            )
            check(events)
            outstanding -= len(events)
        while outstanding > 0:
            events = yield from inst.poll_wait(thread, poll, max_ret=16)
            check(events)
            outstanding -= len(events)

    # Run in 1 ms windows: a request the engine gives up on never
    # completes, so the check stops once one is counted instead of
    # waiting out the deadline.
    sim = dep.sim
    process = sim.spawn(app())
    window_end = sim.now
    done = False
    while not done:
        window_end = min(window_end + 1e6, deadline)
        try:
            sim.run_until_complete(process, deadline=window_end)
            done = True
        except SimulationError:
            if (process.completion.done or window_end >= deadline
                    or not sim.pending_events):
                raise
        failed = dep.engine.stats.ops_failed
        assert failed == 0, f"the engine failed {failed} operations"
    # Per-type linearized order (Section 4.1): completions arrive in
    # exactly the order issued, within each operation type.
    for kind in ("read", "write"):
        assert completion_order[kind] == issue_order[kind], (
            f"{kind}s completed out of issue order"
        )
    # Final pool state = last write per slot (writes complete in issue
    # order, so the last issued write is the last applied).
    pool_region = dep.pool_region()
    for slot, versions in history.items():
        actual = pool_region.read(dep.region.translate(slot * slot_bytes),
                                  slot_bytes)
        assert actual == versions[-1], f"slot {slot} diverged from the model"
    # Under REPRO_SANITIZE=1 this also drains the network and fails on a
    # leaked packet or timer.
    dep.close()


def lossless_cases(seeds):
    """``(seed, ops)`` inputs for the lossless runs: every seed at the
    default length, and again at 200 ops, long enough that many reads
    complete out of order with writes."""
    return [pytest.param(seed, 60, id=str(seed)) for seed in seeds] + [
        pytest.param(seed, 200, id=f"{seed}-ops200") for seed in seeds
    ]


def loss_census():
    """``(seed, ops)`` inputs of the loss census: seeds 1–20 at 40 ops
    and seeds 1–60 at 200 ops.  A 200-op case's id is its seed; a 40-op
    case's ends in ``-ops40``."""
    return [pytest.param(seed, 40, id=f"{seed}-ops40") for seed in range(1, 21)] + [
        pytest.param(seed, 200, id=str(seed)) for seed in range(1, 61)
    ]


SPOT_SEEDS = [1, 7, 42]
P4_SEEDS = [3, 11]
#: Seeds of the 3-packet-slot runs under loss, at 200 ops each.
TRAIN_SEEDS = range(1, 21)


def lossy_deployment(system, seed, remote_bytes=REGION_BYTES, **fault):
    """``system`` with every link dropping packets: 1 % at random by
    default, or as ``fault`` tells the injector.  Spot draws its losses
    from ``seed``, P4 from ``seed + 100`` with a 100 µs data-plane
    timeout."""
    fault = fault or {"drop_rate": 0.01}
    if system == "cowbird":
        return build_microbench(
            system, 1, remote_bytes=remote_bytes,
            fault_injector=FaultInjector(seed=seed, **fault),
        )
    return build_microbench(
        system, 1, remote_bytes=remote_bytes,
        fault_injector=FaultInjector(seed=seed + 100, **fault),
        engine_config={"timeout_ns": 100_000},
    )


class TestSpotLinearizability:
    @pytest.mark.parametrize("seed, ops", lossless_cases(SPOT_SEEDS))
    def test_random_mix(self, seed, ops):
        dep = build_microbench("cowbird", 1, remote_bytes=REGION_BYTES)
        random_workload_check(dep, seed, ops=ops)

    @pytest.mark.parametrize("seed, ops", loss_census())
    def test_random_mix_under_loss(self, seed, ops):
        random_workload_check(lossy_deployment("cowbird", seed), seed, ops=ops)

    @pytest.mark.parametrize("seed", TRAIN_SEEDS)
    def test_multi_packet_slots_under_loss(self, seed):
        dep = lossy_deployment("cowbird", seed, remote_bytes=SLOTS * TRAIN_SLOT_BYTES)
        random_workload_check(dep, seed, ops=200, slot_bytes=TRAIN_SLOT_BYTES)


class TestP4Linearizability:
    @pytest.mark.parametrize("seed, ops", lossless_cases(P4_SEEDS))
    def test_random_mix(self, seed, ops):
        dep = build_microbench("cowbird-p4", 1, remote_bytes=REGION_BYTES)
        random_workload_check(dep, seed, ops=ops)

    @pytest.mark.parametrize("seed, ops", loss_census())
    def test_random_mix_under_loss(self, seed, ops):
        random_workload_check(lossy_deployment("cowbird-p4", seed), seed, ops=ops)

    @pytest.mark.parametrize("seed", TRAIN_SEEDS)
    def test_multi_packet_slots_under_loss(self, seed):
        dep = lossy_deployment("cowbird-p4", seed, remote_bytes=SLOTS * TRAIN_SLOT_BYTES)
        random_workload_check(dep, seed, ops=200, slot_bytes=TRAIN_SLOT_BYTES)


#: The workload every drop set is checked on.
DROP_SEED, DROP_OPS = 3, 40


def packet_kind(packet, red_addr):
    """The class a dropped packet is picked from, or None."""
    opcode = packet.opcode
    if opcode is Opcode.RC_RDMA_READ_REQUEST:
        return "read request"
    if opcode in READ_RESPONSES:
        return "read response"
    if opcode is Opcode.RC_ACKNOWLEDGE:
        return "ack or nak"
    if opcode in WRITES and packet.virtual_address == red_addr:
        return "red block write"
    return None


@functools.lru_cache(maxsize=None)
def droppable_packets(system):
    """One lossless pass of the drop-set workload on ``system``: the
    1-based ordinal of every packet on each link, by ``(link, kind)``.

    A link counts the packets it commits, in commit order, which is the
    order its injector is asked about them, so a later run with only
    ``drop_exactly`` loss sees the same packets up to its first drop.
    """
    dep = lossy_deployment(system, DROP_SEED, drop_rate=0.0)
    red_addr = dep.instances[0].bookkeeping.red_addr
    ordinals = {}

    def tap(link):
        commit = link._start
        seen = 0

        def start(packet, at):
            nonlocal seen
            seen += 1
            kind = packet_kind(packet, red_addr)
            if kind is not None:
                ordinals.setdefault((link.name, kind), []).append(seen)
            return commit(packet, at)

        link._start = start

    for host in dep.bed.hosts.values():
        tap(host.uplink)
        tap(host.downlink)
    random_workload_check(dep, DROP_SEED, ops=DROP_OPS)
    return {key: tuple(found) for key, found in sorted(ordinals.items())}


@pytest.mark.parametrize("system", ["cowbird", "cowbird-p4"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_drop_set_on_one_link_keeps_the_model(system, data):
    """Drop a few chosen packets of one kind on one link: read requests,
    read responses, ACKs and NAKs, or red-block writes.  Every completion
    must still match the shadow model, and hypothesis shrinks a failure
    to a minimal drop set."""
    packets = droppable_packets(system)
    link, kind = data.draw(st.sampled_from(sorted(packets)), label="link, kind")
    drops = data.draw(
        st.lists(st.sampled_from(packets[link, kind]), min_size=1, max_size=3, unique=True),
        label="ordinals",
    )
    dep = lossy_deployment(system, DROP_SEED, drop_exactly={link: drops})
    random_workload_check(dep, DROP_SEED, ops=DROP_OPS)


class TestFullMetadataRing:
    """A full metadata ring refuses an op before it takes anything: no
    sequence number is burnt and no data-ring space is held, so every
    op the client accepted still completes in order."""

    @pytest.mark.parametrize("system", ["cowbird", "cowbird-p4"])
    def test_rejected_ops_leave_no_trace(self, system):
        dep = build_microbench(
            system, 1, remote_bytes=REGION_BYTES,
            cowbird_config=CowbirdConfig(metadata_capacity=2),
        )
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        rng = random.Random(system)
        issued = {RwType.READ: [], RwType.WRITE: []}
        completed = {RwType.READ: [], RwType.WRITE: []}
        rejected = 0

        def client_state():
            return (
                inst.metadata_ring.tail, inst.request_data.tail,
                inst.response_data.tail, sorted(inst._reads),
                sorted(inst._writes), inst.requests_issued,
            )

        def record(events):
            for event in events:
                completed[event.rw_type].append(event.request_id)

        def app():
            nonlocal rejected
            poll = inst.poll_create()
            for i in range(60):
                offset = rng.randrange(SLOTS) * SLOT_BYTES
                before = client_state()
                try:
                    if rng.random() < 0.5:
                        request_id = yield from inst.async_write(
                            thread, 0, offset, bytes([i]) * SLOT_BYTES
                        )
                    else:
                        request_id = yield from inst.async_read(
                            thread, 0, offset, SLOT_BYTES
                        )
                except BufferFullError:
                    rejected += 1
                    assert client_state() == before
                    record((yield from inst.poll_wait(thread, poll, max_ret=16)))
                    continue
                rw_type, _region, sequence = decode_request_id(request_id)
                issued[rw_type].append(request_id)
                assert sequence == len(issued[rw_type])  # none burnt
                inst.poll_add(poll, request_id)
            while sum(map(len, completed.values())) < sum(map(len, issued.values())):
                record((yield from inst.poll_wait(thread, poll, max_ret=16)))

        dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=1e9)
        assert rejected > 0
        assert completed == issued
        assert inst.red.read_progress == len(issued[RwType.READ])
        assert inst.red.write_progress == len(issued[RwType.WRITE])
        assert dep.engine.stats.ops_failed == 0
        dep.close()


def fast_failing(engine):
    """A deployment on ``engine`` whose P4 engine gives up on a request
    after two 20 µs timeouts."""
    if engine == "spot":
        return build_microbench("cowbird", 1, remote_bytes=REGION_BYTES)
    return build_microbench(
        "cowbird-p4", 1, remote_bytes=REGION_BYTES,
        engine_config={"timeout_ns": 20_000, "max_retries": 2},
    )


class TestErrorCompletions:
    """A request the transport gives up on fails loudly: the engine
    counts it in ``ops_failed`` and the client never sees it complete,
    so no unwritten staging bytes reach it as data."""

    @pytest.mark.parametrize("engine", ["spot", "p4"])
    def test_read_from_a_dead_pool_fails_and_delivers_nothing(self, engine):
        dep = fast_failing(engine)
        dep.pool_region().write(dep.region.translate(0), b"\x5a" * SLOT_BYTES)
        # Every packet the pool sends is lost: reads never get data back.
        dep.pool_host.uplink.fault_injector = FaultInjector(drop_rate=1.0)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        seen = []

        def app():
            poll = inst.poll_create()
            request_id = yield from inst.async_read(thread, 0, 0, SLOT_BYTES)
            inst.poll_add(poll, request_id)
            seen.extend((yield from inst.poll_wait(
                thread, poll, max_ret=1, timeout=5_000_000,
            )))

        dep.sim.spawn(app())
        dep.sim.run(until=10_000_000)
        dep.close()
        assert dep.engine.stats.ops_failed == 1
        assert seen == []

    @pytest.mark.parametrize("engine", ["spot", "p4"])
    def test_failed_probes_are_not_requests(self, engine):
        """``ops_failed`` counts client requests on both engines: probes
        into a compute node that answers nothing fail, but none of them
        carries a request."""
        dep = fast_failing(engine)
        # Every packet the compute node sends is lost: no probe returns.
        dep.compute.uplink.fault_injector = FaultInjector(drop_rate=1.0)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 0, 0, SLOT_BYTES)

        dep.sim.spawn(app())
        dep.sim.run(until=10_000_000)
        dep.close()
        assert dep.engine.stats.requests_parsed == 0
        assert dep.engine.stats.ops_failed == 0
