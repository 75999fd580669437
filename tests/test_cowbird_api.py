"""Unit tests for the Cowbird client library (engine-less).

These tests build a client with no offload engine and play the engine
by hand, asserting the exact local-memory protocol of Section 4:
what the client publishes in its green block, how requests are laid out
in the rings, and how progress counters drive poll_wait.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.backends import CowbirdBackend
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


class TestPollRelease:
    """``poll_release`` frees completed reads' response slots without a
    copy; the rings, the outstanding requests and the groups must end
    exactly as ``poll_reap`` followed by ``fetch_response`` of each read
    leaves them, whatever order the groups complete in."""

    @staticmethod
    def _state(inst):
        return (
            inst.response_data.head, list(inst._read_order),
            sorted((s, e.consumed) for s, e in inst._reads.items()),
            sorted(inst._writes), inst.requests_completed,
            sorted((p, len(g)) for p, g in inst._poll_groups.items()),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_poll_reap_and_fetch_response(self, data):
        config = CowbirdConfig(response_data_capacity=1024)
        sides = [deploy(cowbird_config=config).instances[0] for _ in range(2)]
        requests = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(1, 60), st.integers(0, 2)),
            min_size=1, max_size=12,
        ))
        for inst in sides:
            # A consumed 500 B read first, so the drawn reads wrap the ring.
            filler = inst.poll_create()
            request_id, _ = inst.post_read(0, 0, 500)
            inst.poll_add(filler, request_id)
            push_red(inst, read_progress=1)
            _, done, _ = inst.poll_check(filler, 1, inst.sim.now)
            inst.poll_reap(filler, done)
            inst.fetch_response(request_id)
            polls = [inst.poll_create() for _ in range(3)]
            reads, writes = 1, 0
            for is_read, length, group in requests:
                if is_read:
                    request_id, _ = inst.post_read(0, 0, length)
                    reads += 1
                else:
                    request_id, _ = inst.post_write(0, 0, b"w" * length)
                    writes += 1
                inst.poll_add(polls[group], request_id)
        steps = data.draw(st.lists(
            st.tuples(st.integers(0, reads), st.integers(0, writes),
                      st.integers(0, 2), st.integers(1, 4)),
            max_size=10,
        ))
        reference, released = sides
        steps.append((reads, writes, 0, 64))
        steps += [(reads, writes, g, 64) for g in (1, 2)]
        for read_progress, write_progress, group, max_ret in steps:
            for inst in sides:
                red = inst.red
                push_red(
                    inst, read_progress=max(red.read_progress, read_progress),
                    write_progress=max(red.write_progress, write_progress),
                )
            poll = polls[group]
            _, done, _ = reference.poll_check(poll, max_ret, reference.sim.now)
            _, got, _ = released.poll_check(poll, max_ret, released.sim.now)
            assert got == done
            if done is None:
                continue  # nothing in the group completed yet
            for event in reference.poll_reap(poll, done):
                if event.rw_type is RwType.READ:
                    reference.fetch_response(event.request_id)
            released.poll_release(poll, got)
            assert self._state(released) == self._state(reference)
        assert not released._reads and not released._writes
        assert released.response_data.head == released.response_data.tail

    def test_drain_one_under_buffer_full_matches_the_reference(self):
        """A backend whose response ring fills drains completions inside
        ``issue_read``; it returns the same tokens at the same times, and
        frees the ring as one that consumes ``CompletionEvent``s with
        ``fetch_response`` does."""

        class ReferenceBackend(CowbirdBackend):
            def _drain_one(self, thread):
                events = yield from self.instance.poll_wait(
                    thread, self.poll_id, max_ret=64
                )
                for event in events:
                    self._consume(event)
                self._pre_drained.extend(event.request_id for event in events)

            def _consume(self, event):
                self._outstanding -= 1
                if event.rw_type is RwType.READ:
                    self.instance.fetch_response(event.request_id)

            def poll_completions(self, thread, max_ret=64, block=False):
                out = self._pre_drained[:max_ret]
                if out:
                    self._pre_drained = self._pre_drained[len(out):]
                    return out
                timeout = None if block and self._outstanding else 0.0
                events = yield from self.instance.poll_wait(
                    thread, self.poll_id, max_ret, timeout=timeout
                )
                for event in events:
                    self._consume(event)
                return [event.request_id for event in events]

        def scenario(backend_class):
            config = CowbirdConfig(response_data_capacity=512)
            dep = deploy(cowbird_config=config)
            inst = dep.instances[0]
            backend = backend_class(inst)
            thread = dep.compute.cpu.thread()
            trace, drains = [], []
            drain_one = backend._drain_one

            def counted_drain(thread):
                drains.append(dep.sim.now)
                yield from drain_one(thread)

            backend._drain_one = counted_drain

            def engine():  # completes two more requests of each type a tick
                while True:
                    yield dep.sim.timeout(700)
                    red = inst.red
                    push_red(
                        inst,
                        read_progress=min(red.read_progress + 2, reads_issued[0]),
                        write_progress=min(red.write_progress + 1, writes_issued[0]),
                    )

            reads_issued, writes_issued = [0], [0]

            def app():
                for i in range(24):
                    yield from backend.issue_read(thread, 0, 100 + i)
                    reads_issued[0] += 1
                    if i % 5 == 0:
                        yield from backend.issue_write(thread, 0, b"x" * 16)
                        writes_issued[0] += 1
                    tokens = yield from backend.poll_completions(thread, max_ret=3)
                    trace.append((dep.sim.now, tokens, inst.response_data.head))
                while backend.outstanding():
                    tokens = yield from backend.poll_completions(thread, block=True)
                    trace.append((dep.sim.now, tokens, inst.response_data.head))

            dep.sim.spawn(engine())
            run(dep, app(), deadline=1e9)
            return trace, drains, inst.response_data.head, inst.response_data.tail

        got = scenario(CowbirdBackend)
        assert got[1]  # the ring did fill: issue_read drained
        assert got[2] == got[3]  # every response slot freed
        assert got == scenario(ReferenceBackend)
