"""Unit tests for the Cowbird client library (engine-less).

These tests build a client with no offload engine and play the engine
by hand, asserting the exact local-memory protocol of Section 4:
what the client publishes in its green block, how requests are laid out
in the rings, and how progress counters drive poll_wait.
"""

import pickle

import pytest

from repro.cowbird.api import BufferFullError, CowbirdConfig
from repro.cowbird.wire import GreenBlock, RedBlock, RwType, decode_request_id
from tests.client_only import client_only as deploy


def run(dep, generator, deadline=10_000_000):
    return dep.sim.run_until_complete(dep.sim.spawn(generator), deadline=deadline)


def push_red(instance, **fields):
    """Act as the engine: RDMA-write an updated red block."""
    red = RedBlock(**{**instance.red.__dict__, **fields})
    instance.region.remote_write(
        instance.bookkeeping.red_addr, red.pack(), instance.region.rkey
    )


class TestIssueRead:
    def test_returns_typed_request_id(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            return (yield from inst.async_read(thread, 0, 0, 64))

        request_id = run(dep, app())
        rw_type, region_id, seq = decode_request_id(request_id)
        assert rw_type is RwType.READ
        assert region_id == 0
        assert seq == 1

    def test_publishes_green_tail(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 0, 0, 64)
            yield from inst.async_read(thread, 0, 64, 64)

        run(dep, app())
        raw = inst.region.read(inst.bookkeeping.green_addr, GreenBlock.SIZE)
        assert GreenBlock.unpack(raw).request_meta_tail == 2

    def test_metadata_entry_contents(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 0, 128, 256)

        run(dep, app())
        entry = inst.metadata_ring.read_entry(0)
        assert entry.rw_type is RwType.READ
        assert entry.req_addr == dep.region.translate(128)
        assert entry.length == 256
        assert entry.region_id == 0
        # The response address points into the response data ring.
        assert inst.response_data.base_addr <= entry.resp_addr

    def test_only_local_memory_cpu_cost(self):
        """The whole point: issuing costs tens of ns, not ~630 ns."""
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 0, 0, 64)

        run(dep, app())
        comm_ns = thread.stats.cpu_ns.get("comm", 0.0)
        assert comm_ns <= dep.compute.verbs.cost.cowbird_post
        assert comm_ns < 100

    def test_unknown_region_rejected(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 99, 0, 64)

        with pytest.raises(KeyError):
            run(dep, app())

    def test_out_of_range_offset_rejected(self):
        dep = deploy(remote_bytes=1024)
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 0, 1000, 64)

        with pytest.raises(ValueError):
            run(dep, app())


class TestIssueWrite:
    def test_payload_lands_in_request_data_ring(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_write(thread, 0, 0, b"payload-bytes")

        run(dep, app())
        entry = inst.metadata_ring.read_entry(0)
        assert entry.rw_type is RwType.WRITE
        assert inst.request_data.read(entry.req_addr, entry.length) == b"payload-bytes"
        assert entry.resp_addr == dep.region.translate(0)

    def test_write_sequence_independent_of_reads(self):
        """Per-type sequence counters (Section 4.3)."""
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        ids = []

        def app():
            ids.append((yield from inst.async_read(thread, 0, 0, 8)))
            ids.append((yield from inst.async_write(thread, 0, 0, b"x")))
            ids.append((yield from inst.async_read(thread, 0, 8, 8)))

        run(dep, app())
        assert decode_request_id(ids[0])[2] == 1
        assert decode_request_id(ids[1])[2] == 1  # first *write*
        assert decode_request_id(ids[2])[2] == 2

    def test_empty_write_rejected(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_write(thread, 0, 0, b"")

        with pytest.raises(ValueError):
            run(dep, app())


class TestBackpressure:
    def test_metadata_ring_full_raises_buffer_full(self):
        dep = deploy(cowbird_config=CowbirdConfig(metadata_capacity=4))
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            for i in range(5):
                yield from inst.async_read(thread, 0, i * 8, 8)

        with pytest.raises(BufferFullError):
            run(dep, app())

    def test_response_ring_full_raises_buffer_full(self):
        dep = deploy(
            cowbird_config=CowbirdConfig(response_data_capacity=256)
        )
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 0, 0, 100)
            yield from inst.async_read(thread, 0, 100, 100)
            yield from inst.async_read(thread, 0, 200, 100)

        with pytest.raises(BufferFullError):
            run(dep, app())

    def test_full_ring_is_named_and_refused_op_leaves_no_trace(self):
        """Each of the three rings fills on one instance; the refusal names
        it, keeps its message, and changes no ring pointer, sequence
        number or request count."""
        dep = deploy(cowbird_config=CowbirdConfig(
            metadata_capacity=5, request_data_capacity=256,
            response_data_capacity=256,
        ))
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        refused = []

        def state():
            return (
                inst.metadata_ring.head, inst.metadata_ring.tail,
                inst.request_data.head, inst.request_data.tail,
                inst.response_data.head, inst.response_data.tail,
                repr(inst._read_seq), repr(inst._write_seq),
                sorted(inst._reads), sorted(inst._writes), inst.requests_issued,
            )

        def attempt(op):
            before = state()
            try:
                return (yield from op)
            except BufferFullError as exc:
                assert state() == before
                refused.append((exc.ring, str(exc).split(" (")[0]))
                copy = pickle.loads(pickle.dumps(exc))  # as from a worker process
                assert (copy.ring, str(copy)) == (exc.ring, str(exc))
                return None

        def app():
            ids = []
            for _ in range(3):  # the third payload does not fit
                ids.append((yield from attempt(inst.async_write(thread, 0, 0, b"w" * 100))))
            for _ in range(3):  # nor does the third result
                ids.append((yield from attempt(inst.async_read(thread, 0, 0, 100))))
            ids.append((yield from attempt(inst.async_write(thread, 0, 0, b"w" * 8))))
            # Five entries outstanding: both kinds are refused first by
            # the metadata ring, though both data rings have room.
            ids.append((yield from attempt(inst.async_read(thread, 0, 0, 8))))
            ids.append((yield from attempt(inst.async_write(thread, 0, 0, b"w" * 8))))
            return ids

        ids = run(dep, app())
        assert refused == [
            ("request_data", "data ring full"),
            ("response_data", "data ring full"),
            ("metadata", "metadata ring full"),
            ("metadata", "metadata ring full"),
        ]
        assert [None if i is None else decode_request_id(i)[::2] for i in ids] == [
            (RwType.WRITE, 1), (RwType.WRITE, 2), None,
            (RwType.READ, 1), (RwType.READ, 2), None,
            (RwType.WRITE, 3), None, None,
        ]
        assert inst.requests_issued == 5

    def test_engine_head_advance_frees_metadata_ring(self):
        dep = deploy(cowbird_config=CowbirdConfig(metadata_capacity=2))
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            yield from inst.async_read(thread, 0, 0, 8)
            yield from inst.async_read(thread, 0, 8, 8)
            # Engine completes both and advances the head.
            push_red(inst, request_meta_head=2, read_progress=2,
                     response_data_tail=16)
            poll = inst.poll_create()
            yield from inst.poll_wait(thread, poll, max_ret=1, timeout=0)
            yield from inst.async_read(thread, 0, 16, 8)  # fits again

        run(dep, app())
        assert inst.metadata_ring.tail == 3


class TestPollInterface:
    def test_poll_wait_returns_after_progress(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        sim = dep.sim
        got = []

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 0, 32)
            inst.poll_add(poll, rid)
            events = yield from inst.poll_wait(thread, poll, max_ret=4)
            got.extend(events)

        # Engine completes the read at t=5us.
        sim.call_after(5_000, lambda: push_red(inst, read_progress=1,
                                               response_data_tail=32))
        run(dep, app())
        assert len(got) == 1
        assert got[0].rw_type is RwType.READ
        assert sim.now >= 5_000

    def test_poll_wait_timeout_returns_empty(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 0, 32)
            inst.poll_add(poll, rid)
            return (yield from inst.poll_wait(thread, poll, timeout=10_000))

        events = run(dep, app())
        assert events == []
        assert dep.sim.now >= 10_000

    def test_timed_out_waits_leave_no_waiter(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()
        left = []

        def app():
            poll = inst.poll_create()
            inst.poll_add(poll, (yield from inst.async_read(thread, 0, 0, 32)))
            for _ in range(5):
                assert (yield from inst.poll_wait(thread, poll, timeout=5_000)) == []
                left.append(len(inst._progress_waiters))

        run(dep, app())
        assert left == [0, 0, 0, 0, 0]

    def test_zero_timeout_poll_registers_nothing(self):
        class Recording(list):
            added = 0

            def append(self, item):
                self.added += 1
                super().append(item)

        def events_after_progress(timeout):
            dep = deploy()
            inst = dep.instances[0]
            thread = dep.compute.cpu.thread()

            def app():
                poll = inst.poll_create()
                for offset in (0, 64):
                    rid = yield from inst.async_read(thread, 0, offset, 32)
                    inst.poll_add(poll, rid)
                inst._progress_waiters = waiters = Recording()
                assert (yield from inst.poll_wait(thread, poll, timeout=0)) == []
                push_red(inst, read_progress=2, response_data_tail=64)
                inst._progress_waiters = waiters
                events = yield from inst.poll_wait(thread, poll, timeout=timeout)
                return events, waiters.added

            return run(dep, app())

        events, added = events_after_progress(timeout=0)
        assert added == 0
        assert len(events) == 2
        assert events == events_after_progress(timeout=None)[0]

    @pytest.mark.parametrize("path", ["local", "remote"])
    def test_red_block_write_seen_by_next_poll(self, path):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 0, 32)
            inst.poll_add(poll, rid)
            assert (yield from inst.poll_wait(thread, poll, timeout=0)) == []
            red = RedBlock(read_progress=1, response_data_tail=32).pack()
            if path == "local":
                inst.region.write(inst.bookkeeping.red_addr, red)
            else:
                inst.region.remote_write(
                    inst.bookkeeping.red_addr, red, inst.region.rkey
                )
            events = yield from inst.poll_wait(thread, poll, timeout=0)
            return rid, events

        rid, events = run(dep, app())
        assert [event.request_id for event in events] == [rid]

    def test_poll_remove_drops_interest(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 0, 32)
            inst.poll_add(poll, rid)
            inst.poll_remove(poll, rid)
            push_red(inst, read_progress=1, response_data_tail=32)
            return (yield from inst.poll_wait(thread, poll, timeout=1_000))

        events = run(dep, app())
        assert events == []

    def test_write_and_read_completions_tracked_separately(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 0, 32)
            wid = yield from inst.async_write(thread, 0, 64, b"w" * 8)
            inst.poll_add(poll, rid)
            inst.poll_add(poll, wid)
            push_red(inst, write_progress=1)  # only the write finished
            events = yield from inst.poll_wait(thread, poll, max_ret=4,
                                               timeout=1_000)
            return events

        events = run(dep, app())
        assert len(events) == 1
        assert events[0].rw_type is RwType.WRITE

    def test_unknown_poll_id_raises(self):
        dep = deploy()
        inst = dep.instances[0]
        with pytest.raises(KeyError):
            inst.poll_add(999, 1)


class TestResponseConsumption:
    def test_fetch_response_returns_engine_written_bytes(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            poll = inst.poll_create()
            rid = yield from inst.async_read(thread, 0, 0, 16)
            inst.poll_add(poll, rid)
            # Engine writes the data, then the red block.
            entry = inst.metadata_ring.read_entry(0)
            inst.region.remote_write(entry.resp_addr, b"A" * 16, inst.region.rkey)
            push_red(inst, read_progress=1, response_data_tail=16)
            events = yield from inst.poll_wait(thread, poll)
            return inst.fetch_response(events[0].request_id)

        assert run(dep, app()) == b"A" * 16

    def test_fetch_before_completion_raises(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            rid = yield from inst.async_read(thread, 0, 0, 16)
            inst.fetch_response(rid)

        with pytest.raises(RuntimeError, match="not complete"):
            run(dep, app())

    def test_fetch_frees_response_ring_in_order(self):
        dep = deploy(cowbird_config=CowbirdConfig(response_data_capacity=1024))
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            rids = []
            for i in range(3):
                rids.append((yield from inst.async_read(thread, 0, i * 100, 100)))
            push_red(inst, read_progress=3, response_data_tail=300)
            inst._sync_red()
            return rids

        rids = run(dep, app())
        head_before = inst.response_data.head
        inst.fetch_response(rids[1])  # out of order: head cannot move yet
        assert inst.response_data.head == head_before
        inst.fetch_response(rids[0])  # now reads 1 and 2 are consumed
        assert inst.response_data.head == 200

    def test_write_has_no_response_payload(self):
        dep = deploy()
        inst = dep.instances[0]
        thread = dep.compute.cpu.thread()

        def app():
            return (yield from inst.async_write(thread, 0, 0, b"abc"))

        wid = run(dep, app())
        with pytest.raises(ValueError, match="only reads"):
            inst.fetch_response(wid)


class TestMultiInstance:
    def test_instances_have_disjoint_regions(self):
        dep = deploy(threads=3)
        regions = [inst.region for inst in dep.instances]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert a.end_addr <= b.base_addr or b.end_addr <= a.base_addr

    def test_shared_remote_region_visible_to_all(self):
        dep = deploy(threads=2)
        for inst in dep.instances:
            assert 0 in inst.remote_regions

    def test_descriptor_reflects_layout(self):
        dep = deploy()
        inst = dep.instances[0]
        descriptor = inst.descriptor()
        assert descriptor.node == "compute"
        assert descriptor.rkey == inst.region.rkey
        assert descriptor.metadata_base == inst.metadata_ring.base_addr
        assert descriptor.remote_regions[0].node == "pool"
