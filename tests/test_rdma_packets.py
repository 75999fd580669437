"""Unit tests for the RoCEv2 wire format (repro.rdma.packets)."""

import pytest

from repro.cowbird.wire import (
    RW_TYPE_BY_VALUE,
    RequestMetadata,
    RwType,
    decode_request_id,
    encode_request_id,
)
from repro.rdma.packets import (
    AETH_BYTES,
    CARRIES_AETH,
    CARRIES_PAYLOAD,
    CARRIES_RETH,
    HEADER_BYTES_BY_OPCODE,
    OPCODE_BY_VALUE,
    READ_RESPONSE_TAILS,
    READ_RESPONSES,
    RETH_BYTES,
    WRITE_TAILS,
    WRITES,
    AddressBook,
    Aeth,
    Bth,
    HEADER_OVERHEAD_BYTES,
    Opcode,
    PSN_MODULUS,
    PacketPool,
    READ_RESPONSE_TO_WRITE,
    Reth,
    RocePacket,
    SYNDROME_ACK,
    SYNDROME_NAK_PSN_ERROR,
    psn_add,
    psn_distance,
)


class TestPsnArithmetic:
    def test_add_wraps_at_24_bits(self):
        assert psn_add(PSN_MODULUS - 1, 1) == 0
        assert psn_add(PSN_MODULUS - 1, 2) == 1

    def test_add_negative_delta(self):
        assert psn_add(0, -1) == PSN_MODULUS - 1

    def test_distance_forward(self):
        assert psn_distance(10, 15) == 5

    def test_distance_across_wrap(self):
        assert psn_distance(PSN_MODULUS - 2, 3) == 5


class TestBth:
    def test_round_trip(self):
        bth = Bth(
            opcode=Opcode.RC_RDMA_READ_REQUEST,
            dest_qp=0x1234,
            psn=0xABCDE,
            ack_request=True,
            solicited=True,
        )
        assert Bth.unpack(bth.pack()) == bth

    def test_packed_size_is_12_bytes(self):
        bth = Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0)
        assert len(bth.pack()) == 12

    def test_opcode_is_first_byte(self):
        bth = Bth(opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=1, psn=0)
        assert bth.pack()[0] == int(Opcode.RC_RDMA_WRITE_ONLY)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(ValueError):
            Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1 << 24, psn=0).pack()
        with pytest.raises(ValueError):
            Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=PSN_MODULUS).pack()


class TestReth:
    def test_round_trip(self):
        reth = Reth(virtual_address=0xDEADBEEF_CAFE, remote_key=0x8000_0001, dma_length=4096)
        assert Reth.unpack(reth.pack()) == reth

    def test_packed_size_is_16_bytes(self):
        assert len(Reth(virtual_address=0, remote_key=0, dma_length=0).pack()) == 16

    def test_rejects_oversized_length(self):
        with pytest.raises(ValueError):
            Reth(virtual_address=0, remote_key=0, dma_length=1 << 32).pack()


class TestAeth:
    def test_round_trip(self):
        aeth = Aeth(syndrome=SYNDROME_NAK_PSN_ERROR, msn=0x123)
        assert Aeth.unpack(aeth.pack()) == aeth

    def test_packed_size_is_4_bytes(self):
        assert len(Aeth(syndrome=0, msn=0).pack()) == 4

    def test_ack_and_nak_classification(self):
        assert Aeth(syndrome=SYNDROME_ACK, msn=0).is_ack
        assert not Aeth(syndrome=SYNDROME_ACK, msn=0).is_nak
        assert Aeth(syndrome=SYNDROME_NAK_PSN_ERROR, msn=0).is_nak
        assert not Aeth(syndrome=SYNDROME_NAK_PSN_ERROR, msn=0).is_ack


class TestOpcodeProperties:
    def test_reth_on_read_request_and_write_head(self):
        assert Opcode.RC_RDMA_READ_REQUEST.carries_reth
        assert Opcode.RC_RDMA_WRITE_FIRST.carries_reth
        assert Opcode.RC_RDMA_WRITE_ONLY.carries_reth
        assert not Opcode.RC_RDMA_WRITE_MIDDLE.carries_reth
        assert not Opcode.RC_RDMA_WRITE_LAST.carries_reth

    def test_aeth_on_responses_and_acks(self):
        assert Opcode.RC_ACKNOWLEDGE.carries_aeth
        assert Opcode.RC_RDMA_READ_RESPONSE_FIRST.carries_aeth
        assert Opcode.RC_RDMA_READ_RESPONSE_ONLY.carries_aeth
        assert not Opcode.RC_RDMA_READ_RESPONSE_MIDDLE.carries_aeth

    def test_read_response_to_write_conversion_map(self):
        """Section 5.2: Response First/Middle/Last map to Write
        First/Middle/Last when Cowbird-P4 recycles them."""
        assert (
            READ_RESPONSE_TO_WRITE[Opcode.RC_RDMA_READ_RESPONSE_FIRST]
            is Opcode.RC_RDMA_WRITE_FIRST
        )
        assert (
            READ_RESPONSE_TO_WRITE[Opcode.RC_RDMA_READ_RESPONSE_MIDDLE]
            is Opcode.RC_RDMA_WRITE_MIDDLE
        )
        assert (
            READ_RESPONSE_TO_WRITE[Opcode.RC_RDMA_READ_RESPONSE_LAST]
            is Opcode.RC_RDMA_WRITE_LAST
        )
        assert (
            READ_RESPONSE_TO_WRITE[Opcode.RC_RDMA_READ_RESPONSE_ONLY]
            is Opcode.RC_RDMA_WRITE_ONLY
        )


def _header_rules(opcode):
    """InfiniBand RC header rules, from the opcode's name alone."""
    name = opcode.name
    write = name.startswith("RC_RDMA_WRITE_")
    read_response = name.startswith("RC_RDMA_READ_RESPONSE_")
    position = name.rsplit("_", 1)[1]
    return {
        "reth": opcode is Opcode.RC_RDMA_READ_REQUEST
        or (write and position in ("FIRST", "ONLY")),
        "aeth": opcode is Opcode.RC_ACKNOWLEDGE
        or (read_response and position != "MIDDLE"),
        "payload": opcode not in (Opcode.RC_RDMA_READ_REQUEST, Opcode.RC_ACKNOWLEDGE),
        "read_response": read_response,
        "write": write,
        "tail": position in ("LAST", "ONLY"),
    }


class TestOpcodeTables:
    """The import-time opcode tables the per-packet paths use."""

    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_tables_match_header_rules(self, opcode):
        rules = _header_rules(opcode)
        assert (opcode in CARRIES_RETH) is rules["reth"]
        assert (opcode in CARRIES_AETH) is rules["aeth"]
        assert (opcode in CARRIES_PAYLOAD) is rules["payload"]
        assert (opcode in READ_RESPONSES) is rules["read_response"]
        assert (opcode in WRITES) is rules["write"]
        assert (opcode in WRITE_TAILS) is (rules["write"] and rules["tail"])
        assert (opcode in READ_RESPONSE_TAILS) is (rules["read_response"] and rules["tail"])
        assert HEADER_BYTES_BY_OPCODE[opcode] == (
            HEADER_OVERHEAD_BYTES
            + RETH_BYTES * rules["reth"]
            + AETH_BYTES * rules["aeth"]
        )

    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_public_properties_still_work(self, opcode):
        rules = _header_rules(opcode)
        assert opcode.carries_reth is rules["reth"]
        assert opcode.carries_aeth is rules["aeth"]
        assert opcode.carries_payload is rules["payload"]
        assert opcode.is_read_response is rules["read_response"]
        assert opcode.is_write is rules["write"]

    @pytest.mark.parametrize(
        "opcode,payload_bytes",
        [
            (opcode, payload_bytes)
            for opcode in Opcode
            for payload_bytes in (0, 1, 1024)  # none, one byte, one MTU
            if payload_bytes == 0 or _header_rules(opcode)["payload"]
        ],
    )
    def test_size_bytes_equals_packed_length(self, opcode, payload_bytes):
        rules = _header_rules(opcode)
        packet = RocePacket(
            src="a", dst="b",
            bth=Bth(opcode=opcode, dest_qp=3, psn=PSN_MODULUS - 1),
            reth=Reth(virtual_address=0x1000, remote_key=7, dma_length=payload_bytes)
            if rules["reth"] else None,
            aeth=Aeth(syndrome=SYNDROME_ACK, msn=2) if rules["aeth"] else None,
            payload=bytes(payload_bytes),
        )
        book = AddressBook()
        wire = packet.pack(book)
        assert packet.size_bytes == len(wire)
        assert RocePacket.unpack(wire, book).size_bytes == len(wire)

    def test_opcode_by_value_covers_every_byte(self):
        assert len(OPCODE_BY_VALUE) == 256
        for value, opcode in enumerate(OPCODE_BY_VALUE):
            if value in Opcode._value2member_map_:
                assert opcode is Opcode(value)
            else:
                assert opcode is None

    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_decoding_returns_the_enum_members(self, opcode):
        assert Bth.unpack(Bth(opcode=opcode, dest_qp=1, psn=2).pack()).opcode is opcode
        packet = RocePacket(
            src="a", dst="b", bth=Bth(opcode=opcode, dest_qp=1, psn=2),
            reth=Reth(0, 0, 0) if opcode in CARRIES_RETH else None,
            aeth=Aeth(SYNDROME_ACK, 0) if opcode in CARRIES_AETH else None,
        )
        book = AddressBook()
        assert RocePacket.unpack(packet.pack(book), book).opcode is opcode

    def test_unknown_opcode_byte_rejected(self):
        raw = bytearray(Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=2).pack())
        raw[0] = 0x7F
        with pytest.raises(ValueError, match="not a valid Opcode"):
            Bth.unpack(bytes(raw))

    @pytest.mark.parametrize("rw_type", list(RwType))
    def test_request_decoding_returns_the_enum_members(self, rw_type):
        assert decode_request_id(encode_request_id(rw_type, 5, 9))[0] is rw_type
        entry = RequestMetadata(
            rw_type=rw_type, req_addr=1, resp_addr=2, length=3, region_id=4
        )
        assert RequestMetadata.unpack(entry.pack()).rw_type is rw_type

    def test_request_type_table_is_keyed_by_value(self):
        for value, member in enumerate(RW_TYPE_BY_VALUE):
            assert member is None or member.value == value
        assert {m for m in RW_TYPE_BY_VALUE if m is not None} == set(RwType)

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ValueError, match="not a valid RwType"):
            decode_request_id((3 << 48) | 1)


class TestRocePacket:
    def make_read_request(self):
        return RocePacket(
            src="compute",
            dst="pool",
            bth=Bth(opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=7, psn=42),
            reth=Reth(virtual_address=0x4000_0000, remote_key=0x8000_0001, dma_length=256),
        )

    def test_header_validation_missing_reth(self):
        with pytest.raises(ValueError, match="requires a RETH"):
            RocePacket(
                src="a", dst="b",
                bth=Bth(opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=1, psn=0),
            )

    def test_header_validation_unexpected_reth(self):
        with pytest.raises(ValueError, match="must not carry"):
            RocePacket(
                src="a", dst="b",
                bth=Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0),
                reth=Reth(virtual_address=0, remote_key=0, dma_length=0),
                aeth=Aeth(syndrome=SYNDROME_ACK, msn=0),
            )

    def test_header_validation_missing_aeth(self):
        with pytest.raises(ValueError, match="requires an AETH"):
            RocePacket(
                src="a", dst="b",
                bth=Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0),
            )

    def test_ack_with_payload_rejected(self):
        with pytest.raises(ValueError, match="no payload"):
            RocePacket(
                src="a", dst="b",
                bth=Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0),
                aeth=Aeth(syndrome=SYNDROME_ACK, msn=0),
                payload=b"x",
            )

    def test_size_accounting_read_request(self):
        packet = self.make_read_request()
        # Eth(14) + IP(20) + UDP(8) + BTH(12) + RETH(16) + ICRC(4) = 74
        assert packet.size_bytes == HEADER_OVERHEAD_BYTES + 16
        assert packet.size_bytes == 74

    def test_size_accounting_with_payload(self):
        packet = RocePacket(
            src="a", dst="b",
            bth=Bth(opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY, dest_qp=1, psn=0),
            aeth=Aeth(syndrome=SYNDROME_ACK, msn=0),
            payload=b"z" * 256,
        )
        assert packet.size_bytes == HEADER_OVERHEAD_BYTES + 4 + 256

    def test_pack_produces_exactly_size_bytes(self):
        book = AddressBook()
        packet = self.make_read_request()
        assert len(packet.pack(book)) == packet.size_bytes

    def test_pack_unpack_round_trip(self):
        book = AddressBook()
        packet = self.make_read_request()
        restored = RocePacket.unpack(packet.pack(book), book)
        assert restored.src == "compute"
        assert restored.dst == "pool"
        assert restored.bth == packet.bth
        assert restored.reth == packet.reth
        assert restored.payload == b""

    def test_pack_unpack_round_trip_with_payload(self):
        book = AddressBook()
        packet = RocePacket(
            src="pool", dst="compute",
            bth=Bth(opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY, dest_qp=5, psn=9),
            aeth=Aeth(syndrome=SYNDROME_ACK, msn=1),
            payload=bytes(range(200)),
        )
        restored = RocePacket.unpack(packet.pack(book), book)
        assert restored.payload == bytes(range(200))
        assert restored.aeth == packet.aeth

    def test_udp_port_is_4791(self):
        book = AddressBook()
        wire = self.make_read_request().pack(book)
        # UDP header starts after Eth(14) + IP(20); dst port is bytes 2-4.
        udp_start = 34
        dst_port = int.from_bytes(wire[udp_start + 2 : udp_start + 4], "big")
        assert dst_port == 4791

    def test_unpack_rejects_non_roce(self):
        book = AddressBook()
        wire = bytearray(self.make_read_request().pack(book))
        wire[36] = 0  # clobber UDP destination port
        wire[37] = 80
        with pytest.raises(ValueError, match="not a RoCEv2"):
            RocePacket.unpack(bytes(wire), book)

    def test_unpack_rejects_truncated(self):
        with pytest.raises(ValueError, match="too short"):
            RocePacket.unpack(b"\x00" * 10)


class TestAddressBook:
    def test_assignments_are_stable(self):
        book = AddressBook()
        ip1 = book.ip_of("alpha")
        assert book.ip_of("alpha") == ip1

    def test_distinct_names_distinct_ips(self):
        book = AddressBook()
        assert book.ip_of("a") != book.ip_of("b")

    def test_reverse_lookup(self):
        book = AddressBook()
        ip = book.ip_of("host-1")
        assert book.name_of(ip) == "host-1"

    def test_unknown_ip_raises(self):
        book = AddressBook()
        with pytest.raises(KeyError):
            book.name_of(0x7F000001)

    def test_mac_derivation(self):
        book = AddressBook()
        mac = book.mac_of("x")
        assert len(mac) == 6
        assert mac[:2] == b"\x02\x00"  # locally administered


class TestZeroCopyUnpack:
    """The memoryview fast path: unpack slices, it does not copy."""

    def make_response(self, payload=bytes(range(200))):
        return RocePacket(
            src="pool", dst="compute",
            bth=Bth(opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY, dest_qp=5, psn=9),
            aeth=Aeth(syndrome=SYNDROME_ACK, msn=1),
            payload=payload,
        )

    def test_unpacked_payload_is_memoryview_slice(self):
        book = AddressBook()
        restored = RocePacket.unpack(self.make_response().pack(book), book)
        assert isinstance(restored.payload, memoryview)
        assert bytes(restored.payload) == bytes(range(200))

    def test_extension_headers_parse_lazily(self):
        book = AddressBook()
        restored = RocePacket.unpack(self.make_response().pack(book), book)
        assert restored._aeth is None  # not parsed yet
        assert restored.aeth == Aeth(syndrome=SYNDROME_ACK, msn=1)
        assert restored._aeth is not None  # cached after first access

    def test_repack_after_unpack_round_trips(self):
        book = AddressBook()
        wire = self.make_response().pack(book)
        assert RocePacket.unpack(wire, book).pack(book) == wire

    def test_size_bytes_correct_without_parsing_extensions(self):
        book = AddressBook()
        original = self.make_response()
        restored = RocePacket.unpack(original.pack(book), book)
        assert restored.size_bytes == original.size_bytes
        assert restored._aeth is None  # size never forced a parse


class TestRecycle:
    """In-place read-response -> write conversion (the P4 primitive)."""

    def recycled_write(self, payload=bytes(range(64))):
        book = AddressBook()
        response = RocePacket(
            src="pool", dst="compute",
            bth=Bth(opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY, dest_qp=5, psn=9),
            aeth=Aeth(syndrome=SYNDROME_ACK, msn=1),
            payload=payload,
        )
        arriving = RocePacket.unpack(response.pack(book), book)
        reth = Reth(virtual_address=0x1000, remote_key=0x77, dma_length=len(payload))
        arriving.recycle(
            src="switch", dst="pool",
            opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=3, psn=100,
            ack_request=True, reth=reth,
        )
        return arriving, reth, book

    def test_recycle_matches_fresh_packet_bytes(self):
        recycled, reth, book = self.recycled_write()
        fresh = RocePacket(
            src="switch", dst="pool",
            bth=Bth(opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=3, psn=100,
                    ack_request=True),
            reth=reth,
            payload=bytes(range(64)),
        )
        assert recycled.pack(book) == fresh.pack(book)
        assert recycled == fresh

    def test_recycle_leaves_payload_view_untouched(self):
        recycled, _reth, _book = self.recycled_write()
        assert isinstance(recycled.payload, memoryview)
        assert bytes(recycled.payload) == bytes(range(64))

    def test_recycle_round_trips_through_wire(self):
        recycled, reth, book = self.recycled_write()
        restored = RocePacket.unpack(recycled.pack(book), book)
        assert restored.bth == recycled.bth
        assert restored.reth == reth
        assert restored.payload == bytes(range(64))


class TestPacketPool:
    def make_request(self, pool):
        return pool.acquire(
            src="switch", dst="pool",
            bth=Bth(opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=7, psn=42),
            reth=Reth(virtual_address=0x4000, remote_key=0x8, dma_length=256),
        )

    def test_release_then_acquire_reuses_shell(self):
        pool = PacketPool()
        first = self.make_request(pool)
        first.release()
        assert len(pool) == 1
        second = self.make_request(pool)
        assert second is first  # the shell came off the free-list
        assert len(pool) == 0

    def test_release_clears_buffers(self):
        pool = PacketPool()
        packet = pool.acquire(
            src="a", dst="b",
            bth=Bth(opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=1, psn=0),
            reth=Reth(virtual_address=0, remote_key=0, dma_length=4),
            payload=b"data",
        )
        packet.release()
        assert packet.payload == b""
        assert packet._wire is None

    def test_double_release_is_idempotent(self):
        pool = PacketPool()
        packet = self.make_request(pool)
        packet.release()
        packet.release()
        assert len(pool) == 1

    def test_foreign_packet_release_ignored(self):
        pool = PacketPool()
        outsider = RocePacket(
            src="a", dst="b",
            bth=Bth(opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0),
            aeth=Aeth(syndrome=SYNDROME_ACK, msn=0),
        )
        outsider.release()  # no pool: no-op
        pool.release(outsider)  # not ours: ignored
        assert len(pool) == 0

    def test_maxsize_bounds_free_list(self):
        pool = PacketPool(maxsize=2)
        packets = [self.make_request(pool) for _ in range(4)]
        for packet in packets:
            packet.release()
        assert len(pool) == 2

    def test_acquired_shell_packs_like_fresh(self):
        book = AddressBook()
        pool = PacketPool()
        self.make_request(pool).release()
        reused = self.make_request(pool)
        fresh = RocePacket(
            src="switch", dst="pool",
            bth=Bth(opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=7, psn=42),
            reth=Reth(virtual_address=0x4000, remote_key=0x8, dma_length=256),
        )
        assert reused.pack(book) == fresh.pack(book)
