"""Unit tests for the engine-side request core both Cowbird engines share."""

from dataclasses import dataclass

from repro.cowbird.api import InstanceDescriptor
from repro.cowbird.engine_core import RequestCore
from repro.cowbird.wire import RedBlock, RequestMetadata, RwType


def make_core(metadata_capacity=8, data_capacity=256, red=None):
    descriptor = InstanceDescriptor(
        instance_id=0, node="compute", rkey=1, bookkeeping_addr=0x1000,
        metadata_base=0x2000, metadata_capacity=metadata_capacity,
        request_data_base=0x8000, request_data_capacity=data_capacity,
        response_data_base=0x9000, response_data_capacity=data_capacity,
    )
    return RequestCore(descriptor, red)


def entry(rw_type, length=64):
    return RequestMetadata(
        rw_type=rw_type, req_addr=0x4000, resp_addr=0x9000, length=length,
        region_id=0,
    )


def run_of(*entries):
    return b"".join(e.pack() for e in entries)


@dataclass(eq=False)
class Op:
    metadata: RequestMetadata
    sequence: int
    ring_index: int
    completed: bool = False


def parse_all(core, payload, start, end):
    return core.parse(payload, start, end, Op)


class TestFetchAndParse:
    def test_parse_numbers_each_type_in_ring_order(self):
        core = make_core()
        core.see_tail(4)
        start, end, addr, length = core.next_fetch()
        assert (start, end, addr, length) == (0, 4, 0x2000, 4 * 32)
        ops = parse_all(core, run_of(
            entry(RwType.READ, 10), entry(RwType.WRITE, 20),
            entry(RwType.READ, 30), entry(RwType.WRITE, 40),
        ), start, end)
        assert [op.metadata.length for op in ops] == [10, 20, 30, 40]
        assert [(op.metadata.rw_type, op.sequence, op.ring_index) for op in ops] == [
            (RwType.READ, 1, 0), (RwType.WRITE, 1, 1),
            (RwType.READ, 2, 2), (RwType.WRITE, 2, 3),
        ]
        assert core.parsed_meta == 4
        assert not core.has_unparsed()
        assert list(core.in_order) == ops

    def test_parse_stops_at_invalid_entry(self):
        """The client writes rw_type last: an INVALID entry is an append
        in progress, so the parse stops there and refetches it later."""
        core = make_core()
        core.see_tail(3)
        start, end, _addr, _length = core.next_fetch()
        payload = run_of(entry(RwType.READ), entry(RwType.INVALID), entry(RwType.READ))
        ops = parse_all(core, payload, start, end)
        assert [op.ring_index for op in ops] == [0]
        assert core.parsed_meta == 1
        assert core.has_unparsed()
        assert core.next_fetch()[:2] == (1, 3)
        later = parse_all(core, run_of(entry(RwType.WRITE), entry(RwType.READ)), 1, 3)
        assert [(op.sequence, op.ring_index) for op in later] == [(1, 1), (2, 2)]

    def test_fetch_stops_at_ring_end(self):
        core = make_core(metadata_capacity=8)
        core.parsed_meta = core.seen_meta_tail = 6
        core.see_tail(11)
        assert core.next_fetch() == (6, 8, 0x2000 + 6 * 32, 2 * 32)
        parse_all(core, run_of(entry(RwType.READ), entry(RwType.READ)), 6, 8)
        assert core.next_fetch() == (8, 11, 0x2000, 3 * 32)

    def test_stale_probe_never_moves_tail_back(self):
        core = make_core()
        core.see_tail(5)
        core.see_tail(3)
        assert core.seen_meta_tail == 5


class TestPublish:
    def test_publishes_only_the_completed_prefix(self):
        # Both data rings start 56 B short of their 256 B boundary.
        core = make_core(
            data_capacity=256,
            red=RedBlock(request_data_head=200, response_data_tail=200),
        )
        core.see_tail(4)
        read1, write1, read2, write2 = parse_all(core, run_of(
            entry(RwType.READ, 100), entry(RwType.WRITE, 100),
            entry(RwType.READ, 100), entry(RwType.WRITE, 100),
        ), 0, 4)
        read2.completed = write2.completed = True
        core.publish()
        # read1 is incomplete, so nothing after it is published.
        assert core.red == RedBlock(request_data_head=200, response_data_tail=200)
        read1.completed = True
        core.publish()
        # read1 does not fit before the boundary: its slot starts at the
        # ring base, past 56 pad bytes.
        assert core.red == RedBlock(
            request_meta_head=1, request_data_head=200,
            response_data_tail=356, write_progress=0, read_progress=1,
        )
        write1.completed = True
        core.publish()
        assert core.red == RedBlock(
            request_meta_head=4, request_data_head=456,
            response_data_tail=456, write_progress=2, read_progress=2,
        )
        assert not core.in_order

    def test_resumes_from_a_published_red_block(self):
        red = RedBlock(
            request_meta_head=5, request_data_head=64,
            response_data_tail=192, write_progress=2, read_progress=3,
        )
        core = make_core(red=red)
        assert (core.parsed_meta, core.seen_meta_tail) == (5, 5)
        assert (core.read_count, core.write_count) == (3, 2)
        core.see_tail(6)
        (op,) = parse_all(core, run_of(entry(RwType.READ, 64)), *core.next_fetch()[:2])
        assert (op.sequence, op.ring_index) == (4, 5)
        op.completed = True
        core.publish()
        assert core.red.request_meta_head == 6
        assert core.red.read_progress == 4
        assert core.red.response_data_tail == 256

