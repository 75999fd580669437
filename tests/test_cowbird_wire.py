"""Unit tests for Cowbird wire formats and ring buffers."""

import pytest

from repro.cowbird.buffers import DataRing, MetadataRing, RingFullError, skip_pad
from repro.cowbird.engine_core import place
from repro.cowbird.wire import (
    BookkeepingLayout,
    GreenBlock,
    METADATA_ENTRY_BYTES,
    RedBlock,
    RequestMetadata,
    RwType,
    decode_request_id,
    encode_request_id,
)
from repro.memory.region import MemoryRegion


def make_region(length=8192):
    return MemoryRegion(base_addr=0x1000, length=length, lkey=1, rkey=2)


class TestRequestMetadata:
    def entry(self, **kwargs):
        defaults = dict(
            rw_type=RwType.READ, req_addr=0x4000_0000, resp_addr=0x2000,
            length=256, region_id=3,
        )
        defaults.update(kwargs)
        return RequestMetadata(**defaults)

    def test_round_trip(self):
        entry = self.entry()
        assert RequestMetadata.unpack(entry.pack()) == entry

    def test_packed_size_is_32_bytes(self):
        """Fixed-size entries are R1: parsable without conditionals."""
        assert len(self.entry().pack()) == 32
        assert METADATA_ENTRY_BYTES == 32

    def test_write_entry_round_trip(self):
        entry = self.entry(rw_type=RwType.WRITE, req_addr=0x3000,
                           resp_addr=0x4000_0100)
        assert RequestMetadata.unpack(entry.pack()) == entry

    def test_invalid_marker_survives(self):
        entry = self.entry(rw_type=RwType.INVALID)
        assert RequestMetadata.unpack(entry.pack()).rw_type is RwType.INVALID

    def test_zeroed_memory_parses_as_invalid(self):
        """Fresh ring memory must read as not-ready, never as a request."""
        assert RequestMetadata.unpack(b"\x00" * 32).rw_type is RwType.INVALID

    def test_field_ranges_enforced(self):
        with pytest.raises(ValueError):
            self.entry(region_id=1 << 16)
        with pytest.raises(ValueError):
            self.entry(length=1 << 32)
        with pytest.raises(ValueError):
            self.entry(req_addr=-1)

    def test_truncated_unpack_raises(self):
        with pytest.raises(ValueError):
            RequestMetadata.unpack(b"\x00" * 8)

    #: Fixed entries and their packed bytes: rw_type u16, region_id u16,
    #: length u32, req_addr u64, resp_addr u64, little-endian, then
    #: 8 bytes of padding.
    PINNED = [
        (
            (RwType.READ, 0x4000_0000, 0x2000, 256, 3),
            "0100" "0300" "00010000" "0000004000000000" "0020000000000000"
            + "00" * 8,
        ),
        (
            (RwType.WRITE, 0x1122334455667788, (1 << 64) - 1, (1 << 32) - 1, 0xFFFF),
            "0200" "ffff" "ffffffff" "8877665544332211" "ffffffffffffffff"
            + "00" * 8,
        ),
        (
            (RwType.READ, 0, 0, 0, 0),
            "0100" + "00" * 30,
        ),
    ]

    @pytest.mark.parametrize("fields, packed", PINNED)
    def test_pack_is_pinned(self, fields, packed):
        assert RequestMetadata(*fields).pack() == bytes.fromhex(packed)

    @pytest.mark.parametrize("fields, packed", PINNED)
    def test_unpack_of_pinned_bytes(self, fields, packed):
        entry = RequestMetadata.unpack(bytes.fromhex(packed))
        assert entry == RequestMetadata(*fields)
        assert entry.rw_type is fields[0]
        assert (entry.req_addr, entry.resp_addr, entry.length, entry.region_id) == (
            fields[1:]
        )

    def test_unpack_at_an_offset(self):
        """An engine parses a fetched run in place, entry by entry."""
        entries = [RequestMetadata(*fields) for fields, _packed in self.PINNED]
        run = b"".join(entry.pack() for entry in entries)
        assert [
            RequestMetadata.unpack(run, offset)
            for offset in range(0, len(run), METADATA_ENTRY_BYTES)
        ] == entries
        with pytest.raises(ValueError):
            RequestMetadata.unpack(run, len(run) - 8)

    @pytest.mark.parametrize("bad", [
        dict(region_id=0x10000), dict(region_id=-1),
        dict(length=1 << 32), dict(length=-1),
        dict(req_addr=-1), dict(resp_addr=-1),
    ])
    def test_client_constructor_checks_each_field(self, bad):
        with pytest.raises(ValueError):
            self.entry(**bad)

    def test_unknown_rw_type_is_refused(self):
        with pytest.raises(ValueError):
            RequestMetadata.unpack(b"\x07" + b"\x00" * 31)


class TestBookkeepingBlocks:
    def test_green_round_trip(self):
        green = GreenBlock(request_meta_tail=123, request_data_tail=456789)
        assert GreenBlock.unpack(green.pack()) == green

    def test_red_round_trip(self):
        red = RedBlock(
            request_meta_head=1, request_data_head=2, response_data_tail=3,
            write_progress=4, read_progress=5,
        )
        assert RedBlock.unpack(red.pack()) == red

    def test_blocks_fit_single_rdma_ops(self):
        """R3: each block must be readable/writable in one small RDMA op."""
        assert GreenBlock.SIZE == 16
        assert RedBlock.SIZE == 40

    def test_layout_separates_cache_lines(self):
        layout = BookkeepingLayout(base_addr=0x100)
        assert layout.red_addr - layout.green_addr >= 64
        assert layout.TOTAL_BYTES >= layout.RED_OFFSET + RedBlock.SIZE


class TestRequestIdEncoding:
    def test_round_trip(self):
        request_id = encode_request_id(RwType.READ, region_id=7, sequence=1234)
        assert decode_request_id(request_id) == (RwType.READ, 7, 1234)

    def test_types_do_not_collide(self):
        read_id = encode_request_id(RwType.READ, 1, 5)
        write_id = encode_request_id(RwType.WRITE, 1, 5)
        assert read_id != write_id

    def test_regions_do_not_collide(self):
        a = encode_request_id(RwType.READ, 1, 5)
        b = encode_request_id(RwType.READ, 2, 5)
        assert a != b

    def test_sequence_comparable_by_integer_arithmetic(self):
        """Section 4.3: completion checks are plain integer compares."""
        earlier = encode_request_id(RwType.READ, 1, 10)
        later = encode_request_id(RwType.READ, 1, 11)
        assert later - earlier == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            encode_request_id(RwType.READ, -1, 1)
        with pytest.raises(ValueError):
            encode_request_id(RwType.READ, 0, 0)


class TestSkipPad:
    def test_no_pad_when_fits(self):
        assert skip_pad(100, 200, 1024) == 0

    def test_pad_at_boundary(self):
        assert skip_pad(900, 200, 1024) == 124

    def test_exact_fit_needs_no_pad(self):
        assert skip_pad(824, 200, 1024) == 0

    def test_wrapped_pointer(self):
        assert skip_pad(1024 + 900, 200, 1024) == 124


class TestMetadataRing:
    def make_ring(self, capacity=8):
        region = make_region()
        return MetadataRing(region, region.base_addr, capacity)

    def entry(self, length=64):
        return RequestMetadata(
            rw_type=RwType.READ, req_addr=0x4000_0000, resp_addr=0x2000,
            length=length, region_id=0,
        )

    def test_append_and_read_back(self):
        ring = self.make_ring()
        index = ring.append(self.entry())
        assert index == 0
        assert ring.read_entry(0) == self.entry()

    def test_fills_then_rejects(self):
        ring = self.make_ring(capacity=4)
        for _ in range(4):
            ring.append(self.entry())
        with pytest.raises(RingFullError):
            ring.append(self.entry())

    def test_head_advance_frees_space(self):
        ring = self.make_ring(capacity=2)
        ring.append(self.entry())
        ring.append(self.entry())
        ring.advance_head(1)
        ring.append(self.entry())  # no raise
        assert ring.tail == 3

    def test_wraparound_addressing(self):
        ring = self.make_ring(capacity=4)
        assert ring.addr_of(0) == ring.addr_of(4)
        assert ring.addr_of(5) == ring.addr_of(1)

    def test_head_cannot_move_backwards_or_past_tail(self):
        ring = self.make_ring()
        ring.append(self.entry())
        ring.advance_head(1)
        with pytest.raises(ValueError):
            ring.advance_head(0)
        with pytest.raises(ValueError):
            ring.advance_head(5)

    def test_ring_must_fit_region(self):
        region = make_region(length=64)
        with pytest.raises(ValueError):
            MetadataRing(region, region.base_addr, capacity=1024)


class TestDataRing:
    def make_ring(self, capacity=1024):
        region = make_region(4096)
        return DataRing(region, region.base_addr, capacity)

    def test_reserve_write_read(self):
        ring = self.make_ring()
        addr = ring.reserve(11)
        ring.write(addr, b"hello ring!")
        assert ring.read(addr, 11) == b"hello ring!"

    def test_sequential_reservations_are_contiguous(self):
        ring = self.make_ring()
        first = ring.reserve(100)
        second = ring.reserve(100)
        assert second == first + 100

    def test_no_wrap_rule_pads(self):
        ring = self.make_ring(capacity=256)
        ring.reserve(100)
        ring.reserve(100)
        ring.advance_head(200)  # free both
        addr = ring.reserve(100)  # would straddle: skips 56 pad bytes
        assert addr == ring.base_addr  # restarts at the ring base
        assert ring.tail == 256 + 100

    def test_full_ring_rejects(self):
        ring = self.make_ring(capacity=256)
        ring.reserve(128)
        ring.reserve(100)
        with pytest.raises(RingFullError):
            ring.reserve(100)

    def test_oversized_allocation_rejected(self):
        """Allocations above half the capacity are rejected outright."""
        ring = self.make_ring(capacity=64)
        with pytest.raises(ValueError):
            ring.reserve(33)

    def test_zero_length_rejected(self):
        ring = self.make_ring()
        with pytest.raises(ValueError):
            ring.reserve(0)

    def test_place_matches_reserve(self):
        """The engine's cursor replay must equal the client's layout."""
        ring = self.make_ring(capacity=256)
        cursor = 0
        lengths = [100, 100, 30, 90, 128, 16]
        for length in lengths:
            # Free everything so the client never blocks on capacity.
            ring.advance_head(ring.tail)
            client_addr = ring.reserve(length)
            start, cursor = place(cursor, length, ring.capacity)
            assert ring.addr_at(start) == client_addr
            assert cursor == ring.tail
