"""Randomized linearizability checking against a sequential model.

Section 4.1/5.3: Cowbird guarantees per-type ordered execution from a
single thread and read-after-write consistency (linearizability), on
both offload engines — even under packet loss.  These tests run seeded
random workloads and check every completion against a sequential
reference model of the remote region.
"""

import random

import pytest

from repro.cowbird.deploy import deploy_cowbird
from repro.cowbird.p4_engine import P4EngineConfig
from repro.cowbird.wire import RwType, decode_request_id
from repro.sim.network import FaultInjector

REGION_BYTES = 1 << 14
SLOTS = 16
SLOT_BYTES = 64


def random_workload_check(dep, seed, ops=60, deadline=500e9):
    """Issue a random read/write mix; validate against a shadow model."""
    inst = dep.instances[0]
    thread = dep.compute.cpu.thread()
    rng = random.Random(seed)
    # Shadow model: per-slot version history.  A read must return some
    # value that was (or became) current while it was outstanding: the
    # value at issue time, or any later write to the slot — Section 4.1
    # guarantees per-type order and read-AFTER-write consistency, but a
    # write issued after an in-flight read may legally be observed by it
    # (both linearization orders are valid for concurrent operations).
    history = {slot: [b"\x00" * SLOT_BYTES] for slot in range(SLOTS)}
    read_window = {}   # request_id -> (slot, index of version at issue)
    issue_order = {"read": [], "write": []}
    completion_order = {"read": [], "write": []}
    version = 0

    def app():
        nonlocal version
        poll = inst.poll_create()
        outstanding = 0
        for _ in range(ops):
            slot = rng.randrange(SLOTS)
            offset = slot * SLOT_BYTES
            if rng.random() < 0.4:
                version += 1
                payload = version.to_bytes(4, "little") * (SLOT_BYTES // 4)
                request_id = yield from inst.async_write(
                    thread, 0, offset, payload
                )
                history[slot].append(payload)
                issue_order["write"].append(request_id)
            else:
                request_id = yield from inst.async_read(
                    thread, 0, offset, SLOT_BYTES
                )
                read_window[request_id] = (slot, len(history[slot]) - 1)
                issue_order["read"].append(request_id)
            inst.poll_add(poll, request_id)
            outstanding += 1
            events = yield from inst.poll_wait(
                thread, poll, max_ret=16,
                timeout=None if outstanding >= 24 else 0,
            )
            for event in events:
                rw_type, _r, _s = decode_request_id(event.request_id)
                kind = "read" if rw_type is RwType.READ else "write"
                completion_order[kind].append(event.request_id)
                if rw_type is RwType.READ:
                    data = inst.fetch_response(event.request_id)
                    slot, floor = read_window[event.request_id]
                    assert data in history[slot][floor:], (
                        f"read {event.request_id} returned a value never "
                        f"current during its window (stale or corrupt)"
                    )
            outstanding -= len(events)
        while outstanding > 0:
            events = yield from inst.poll_wait(thread, poll, max_ret=16)
            for event in events:
                rw_type, _r, _s = decode_request_id(event.request_id)
                kind = "read" if rw_type is RwType.READ else "write"
                completion_order[kind].append(event.request_id)
                if rw_type is RwType.READ:
                    data = inst.fetch_response(event.request_id)
                    slot, floor = read_window[event.request_id]
                    assert data in history[slot][floor:]
            outstanding -= len(events)

    dep.sim.run_until_complete(dep.sim.spawn(app()), deadline=deadline)
    # Per-type linearized order (Section 4.1): completions arrive in
    # exactly the order issued, within each operation type.
    assert completion_order["read"] == issue_order["read"]
    assert completion_order["write"] == issue_order["write"]
    # Final pool state = last write per slot (writes complete in issue
    # order, so the last issued write is the last applied).
    pool_region = dep.pool_region()
    for slot, versions in history.items():
        actual = pool_region.read(dep.region.translate(slot * SLOT_BYTES),
                                  SLOT_BYTES)
        assert actual == versions[-1], f"slot {slot} diverged from the model"


def lossless_cases(seeds):
    """``(seed, ops)`` inputs for the lossless runs: every seed at the
    default length, and again at 200 ops, long enough that many reads
    complete out of order with writes."""
    return [pytest.param(seed, 60, id=str(seed)) for seed in seeds] + [
        pytest.param(seed, 200, id=f"{seed}-ops200") for seed in seeds
    ]


SPOT_SEEDS = [1, 7, 42]
P4_SEEDS = [3, 11]


class TestSpotLinearizability:
    @pytest.mark.parametrize("seed, ops", lossless_cases(SPOT_SEEDS))
    def test_random_mix(self, seed, ops):
        dep = deploy_cowbird(engine="spot", remote_bytes=REGION_BYTES)
        random_workload_check(dep, seed, ops=ops)

    @pytest.mark.parametrize("seed", SPOT_SEEDS)
    def test_random_mix_under_loss(self, seed):
        dep = deploy_cowbird(
            engine="spot", remote_bytes=REGION_BYTES,
            fault_injector=FaultInjector(seed=seed, drop_rate=0.01),
        )
        random_workload_check(dep, seed, ops=40)


class TestP4Linearizability:
    @pytest.mark.parametrize("seed, ops", lossless_cases(P4_SEEDS))
    def test_random_mix(self, seed, ops):
        dep = deploy_cowbird(engine="p4", remote_bytes=REGION_BYTES)
        random_workload_check(dep, seed, ops=ops)

    @pytest.mark.parametrize("seed", P4_SEEDS)
    def test_random_mix_under_loss(self, seed):
        dep = deploy_cowbird(
            engine="p4", remote_bytes=REGION_BYTES,
            fault_injector=FaultInjector(seed=seed + 100, drop_rate=0.01),
            p4_config=P4EngineConfig(timeout_ns=100_000),
        )
        random_workload_check(dep, seed, ops=40)
