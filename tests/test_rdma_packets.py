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
    HEADER_OVERHEAD_BYTES,
    Opcode,
    PSN_MODULUS,
    PacketPool,
    RocePacket,
    SYNDROME_ACK,
    SYNDROME_NAK_PSN_ERROR,
    SYNDROME_NAK_REMOTE_ACCESS,
    psn_add,
    psn_distance,
)

#: Wire offsets: Eth(14) + IPv4(20) + UDP(8) precede the BTH (12), and
#: the RETH or AETH follows it.
BTH_OFFSET = 42
EXT_OFFSET = BTH_OFFSET + 12


def ack(syndrome=SYNDROME_ACK, msn=0, psn=0):
    return RocePacket(
        src="a", dst="b", opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=psn,
        syndrome=syndrome, msn=msn,
    )


def round_trip(packet):
    book = AddressBook()
    return RocePacket.unpack(packet.pack(book), book)


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
        packet = RocePacket(
            src="a", dst="b",
            opcode=Opcode.RC_RDMA_WRITE_MIDDLE,
            dest_qp=0x1234,
            psn=0xABCDE,
            ack_request=True,
            payload=b"x",
        )
        restored = round_trip(packet)
        assert restored == packet
        assert (restored.opcode, restored.dest_qp, restored.psn, restored.ack_request) == (
            Opcode.RC_RDMA_WRITE_MIDDLE, 0x1234, 0xABCDE, True,
        )

    def test_packed_size_is_12_bytes(self):
        # A SEND without payload carries the BTH and no extension header.
        packet = RocePacket(src="a", dst="b", opcode=Opcode.RC_SEND_ONLY, dest_qp=1, psn=0)
        wire = packet.pack(AddressBook())
        assert len(wire) - BTH_OFFSET - 4 == 12  # 4: the ICRC trailer

    def test_opcode_is_first_byte(self):
        packet = RocePacket(
            src="a", dst="b", opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=1, psn=0
        )
        assert packet.pack(AddressBook())[BTH_OFFSET] == int(Opcode.RC_RDMA_WRITE_ONLY)

    def test_byte_layout(self):
        packet = RocePacket(
            src="a", dst="b", opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=0x1234,
            psn=0xABCDE, ack_request=True,
        )
        bth = packet.pack(AddressBook())[BTH_OFFSET : BTH_OFFSET + 12]
        assert bth == bytes.fromhex("0c00ffff" "00001234" "800abcde")

    def test_out_of_range_fields_rejected(self):
        for dest_qp, seq, field in ((1 << 24, 0, "dest_qp"), (1, PSN_MODULUS, "psn")):
            packet = RocePacket(
                src="a", dst="b", opcode=Opcode.RC_SEND_ONLY, dest_qp=dest_qp, psn=seq
            )
            with pytest.raises(ValueError, match=field):
                packet.pack()


class TestReth:
    def make(self, **reth):
        return RocePacket(
            src="a", dst="b", opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=1, psn=0, **reth
        )

    def test_round_trip(self):
        packet = self.make(
            virtual_address=0xDEADBEEF_CAFE, remote_key=0x8000_0001, dma_length=4096
        )
        restored = round_trip(packet)
        assert restored == packet
        assert (restored.virtual_address, restored.remote_key, restored.dma_length) == (
            0xDEADBEEF_CAFE, 0x8000_0001, 4096,
        )

    def test_packed_size_is_16_bytes(self):
        wire = self.make().pack(AddressBook())
        assert len(wire) - EXT_OFFSET - 4 == 16

    def test_byte_layout(self):
        packet = self.make(
            virtual_address=0xDEADBEEF_CAFE, remote_key=0x8000_0001, dma_length=4096
        )
        reth = packet.pack(AddressBook())[EXT_OFFSET : EXT_OFFSET + 16]
        assert reth == bytes.fromhex("0000deadbeefcafe" "80000001" "00001000")

    def test_rejects_oversized_length(self):
        with pytest.raises(ValueError, match="dma_length"):
            self.make(dma_length=1 << 32).pack()

    def test_rejects_oversized_address(self):
        with pytest.raises(ValueError, match="virtual address"):
            self.make(virtual_address=1 << 64).pack()


class TestAeth:
    def test_round_trip(self):
        packet = ack(syndrome=SYNDROME_NAK_PSN_ERROR, msn=0x123)
        restored = round_trip(packet)
        assert restored == packet
        assert (restored.syndrome, restored.msn) == (SYNDROME_NAK_PSN_ERROR, 0x123)

    def test_packed_size_is_4_bytes(self):
        wire = ack().pack(AddressBook())
        assert len(wire) - EXT_OFFSET - 4 == 4

    def test_byte_layout(self):
        aeth = ack(syndrome=SYNDROME_NAK_PSN_ERROR, msn=0x123).pack(AddressBook())
        assert aeth[EXT_OFFSET : EXT_OFFSET + 4] == bytes.fromhex("60000123")

    def test_rejects_oversized_msn(self):
        with pytest.raises(ValueError, match="msn"):
            ack(msn=1 << 24).pack()

    def test_ack_and_nak_classification(self):
        assert not ack(SYNDROME_ACK).is_nak
        assert ack(SYNDROME_NAK_PSN_ERROR).is_nak
        assert ack(SYNDROME_NAK_REMOTE_ACCESS).is_nak
        # Packets without an AETH read syndrome 0: never a NAK.
        assert not RocePacket(
            src="a", dst="b", opcode=Opcode.RC_RDMA_READ_RESPONSE_MIDDLE, dest_qp=1, psn=0
        ).is_nak


class TestOpcodeProperties:
    def test_reth_on_read_request_and_write_head(self):
        assert Opcode.RC_RDMA_READ_REQUEST in CARRIES_RETH
        assert Opcode.RC_RDMA_WRITE_FIRST in CARRIES_RETH
        assert Opcode.RC_RDMA_WRITE_ONLY in CARRIES_RETH
        assert Opcode.RC_RDMA_WRITE_MIDDLE not in CARRIES_RETH
        assert Opcode.RC_RDMA_WRITE_LAST not in CARRIES_RETH

    def test_aeth_on_responses_and_acks(self):
        assert Opcode.RC_ACKNOWLEDGE in CARRIES_AETH
        assert Opcode.RC_RDMA_READ_RESPONSE_FIRST in CARRIES_AETH
        assert Opcode.RC_RDMA_READ_RESPONSE_ONLY in CARRIES_AETH
        assert Opcode.RC_RDMA_READ_RESPONSE_MIDDLE not in CARRIES_AETH

    def test_read_response_to_write_conversion_map(self):
        """Section 5.2: Response First/Middle/Last/Only recycle into Write
        First/Middle/Last/Only with the payload untouched; each result is
        the packet a sender would have built."""
        book = AddressBook()
        for position in ("FIRST", "MIDDLE", "LAST", "ONLY"):
            response = Opcode[f"RC_RDMA_READ_RESPONSE_{position}"]
            write = Opcode[f"RC_RDMA_WRITE_{position}"]
            aeth = {"syndrome": SYNDROME_ACK, "msn": 4} if response in CARRIES_AETH else {}
            reth = (
                {"virtual_address": 0x1000, "remote_key": 0x77, "dma_length": 3000}
                if write in CARRIES_RETH else {}
            )
            tail = position in ("LAST", "ONLY")
            arriving = RocePacket.unpack(
                RocePacket(
                    src="pool", dst="switch", opcode=response, dest_qp=5, psn=9,
                    payload=b"p" * 64, **aeth,
                ).pack(book),
                book,
            )
            arriving.recycle("switch", "compute", write, 3, 100, tail, **reth)
            fresh = RocePacket(
                src="switch", dst="compute", opcode=write, dest_qp=3, psn=100,
                ack_request=tail, payload=b"p" * 64, **reth,
            )
            assert arriving == fresh
            assert arriving.pack(book) == fresh.pack(book)


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
        """The header fields are public attributes of the packet: the
        groups an opcode carries survive the wire, the others read 0
        and are rejected at construction."""
        rules = _header_rules(opcode)
        reth = {"virtual_address": 0x1000, "remote_key": 7, "dma_length": 64}
        aeth = {"syndrome": SYNDROME_NAK_PSN_ERROR, "msn": 2}
        fields = {**(reth if rules["reth"] else {}), **(aeth if rules["aeth"] else {})}
        restored = round_trip(
            RocePacket(src="a", dst="b", opcode=opcode, dest_qp=3, psn=4, **fields)
        )
        for name in (*reth, *aeth):
            assert getattr(restored, name) == fields.get(name, 0)
        assert restored.is_nak is rules["aeth"]
        if not rules["reth"]:
            with pytest.raises(ValueError, match="must not carry a RETH"):
                RocePacket(src="a", dst="b", opcode=opcode, dest_qp=3, psn=4, **reth)
        if not rules["aeth"]:
            with pytest.raises(ValueError, match="must not carry an AETH"):
                RocePacket(src="a", dst="b", opcode=opcode, dest_qp=3, psn=4, **aeth)

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
        reth = {"virtual_address": 0x1000, "remote_key": 7, "dma_length": payload_bytes}
        aeth = {"syndrome": SYNDROME_ACK, "msn": 2}
        packet = RocePacket(
            src="a", dst="b", opcode=opcode, dest_qp=3, psn=PSN_MODULUS - 1,
            payload=bytes(payload_bytes),
            **(reth if rules["reth"] else {}),
            **(aeth if rules["aeth"] else {}),
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
        packet = RocePacket(src="a", dst="b", opcode=opcode, dest_qp=1, psn=2)
        assert round_trip(packet).opcode is opcode

    def test_unknown_opcode_byte_rejected(self):
        book = AddressBook()
        raw = bytearray(ack(psn=2).pack(book))
        raw[BTH_OFFSET] = 0x7F
        with pytest.raises(ValueError, match="not a valid Opcode"):
            RocePacket.unpack(bytes(raw), book)

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
            opcode=Opcode.RC_RDMA_READ_REQUEST,
            dest_qp=7,
            psn=42,
            virtual_address=0x4000_0000,
            remote_key=0x8000_0001,
            dma_length=256,
        )

    def test_header_validation_missing_reth(self):
        """A flat record cannot lack a header: a READ request built
        without RETH fields still carries a (zero) RETH on the wire."""
        packet = RocePacket(
            src="a", dst="b", opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=1, psn=0
        )
        wire = packet.pack(AddressBook())
        assert len(wire) == packet.size_bytes == HEADER_OVERHEAD_BYTES + RETH_BYTES
        assert wire[EXT_OFFSET : EXT_OFFSET + RETH_BYTES] == bytes(RETH_BYTES)

    def test_header_validation_missing_aeth(self):
        """An ACK built without AETH fields carries syndrome 0 (an ACK,
        never a NAK) and MSN 0."""
        packet = RocePacket(src="a", dst="b", opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0)
        wire = packet.pack(AddressBook())
        assert len(wire) == packet.size_bytes == HEADER_OVERHEAD_BYTES + AETH_BYTES
        assert wire[EXT_OFFSET : EXT_OFFSET + AETH_BYTES] == bytes(AETH_BYTES)
        assert not packet.is_nak

    def test_header_validation_unexpected_reth(self):
        with pytest.raises(ValueError, match="must not carry a RETH"):
            RocePacket(
                src="a", dst="b", opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0,
                remote_key=5, syndrome=SYNDROME_ACK,
            )

    def test_header_validation_unexpected_aeth(self):
        with pytest.raises(ValueError, match="must not carry an AETH"):
            RocePacket(
                src="a", dst="b", opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=1, psn=0,
                msn=3,
            )

    def test_ack_with_payload_rejected(self):
        with pytest.raises(ValueError, match="no payload"):
            RocePacket(
                src="a", dst="b", opcode=Opcode.RC_ACKNOWLEDGE, dest_qp=1, psn=0,
                syndrome=SYNDROME_ACK, payload=b"x",
            )

    def test_read_request_with_payload_rejected(self):
        with pytest.raises(ValueError, match="no payload"):
            RocePacket(
                src="a", dst="b", opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=1, psn=0,
                payload=b"x",
            )

    def test_size_accounting_read_request(self):
        packet = self.make_read_request()
        # Eth(14) + IP(20) + UDP(8) + BTH(12) + RETH(16) + ICRC(4) = 74
        assert packet.size_bytes == HEADER_OVERHEAD_BYTES + 16
        assert packet.size_bytes == 74

    def test_size_accounting_with_payload(self):
        packet = RocePacket(
            src="a", dst="b", opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY, dest_qp=1, psn=0,
            syndrome=SYNDROME_ACK, payload=b"z" * 256,
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
        assert restored == packet
        assert restored.payload == b""

    def test_pack_unpack_round_trip_with_payload(self):
        book = AddressBook()
        packet = RocePacket(
            src="pool", dst="compute", opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY,
            dest_qp=5, psn=9, syndrome=SYNDROME_ACK, msn=1, payload=bytes(range(200)),
        )
        restored = RocePacket.unpack(packet.pack(book), book)
        assert restored.payload == bytes(range(200))
        assert (restored.syndrome, restored.msn) == (SYNDROME_ACK, 1)
        assert restored == packet

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

    def test_unpack_rejects_truncated_extension_header(self):
        book = AddressBook()
        wire = self.make_read_request().pack(book)
        with pytest.raises(ValueError, match="too short for RC_RDMA_READ_REQUEST"):
            RocePacket.unpack(wire[:EXT_OFFSET + 8], book)


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
            src="pool", dst="compute", opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY,
            dest_qp=5, psn=9, syndrome=SYNDROME_ACK, msn=1, payload=payload,
        )

    def test_unpacked_payload_is_memoryview_slice(self):
        book = AddressBook()
        restored = RocePacket.unpack(self.make_response().pack(book), book)
        assert isinstance(restored.payload, memoryview)
        assert bytes(restored.payload) == bytes(range(200))

    def test_repack_after_unpack_round_trips(self):
        book = AddressBook()
        wire = self.make_response().pack(book)
        assert RocePacket.unpack(wire, book).pack(book) == wire


class TestRecycle:
    """In-place read-response -> write conversion (the P4 primitive)."""

    RETH = {"virtual_address": 0x1000, "remote_key": 0x77, "dma_length": 64}

    def recycled_write(self, payload=bytes(range(64))):
        book = AddressBook()
        response = RocePacket(
            src="pool", dst="compute", opcode=Opcode.RC_RDMA_READ_RESPONSE_ONLY,
            dest_qp=5, psn=9, syndrome=SYNDROME_ACK, msn=1, payload=payload,
        )
        arriving = RocePacket.unpack(response.pack(book), book)
        arriving.recycle(
            src="switch", dst="pool",
            opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=3, psn=100,
            ack_request=True, **self.RETH,
        )
        return arriving, book

    def test_recycle_matches_fresh_packet_bytes(self):
        recycled, book = self.recycled_write()
        fresh = RocePacket(
            src="switch", dst="pool", opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=3,
            psn=100, ack_request=True, payload=bytes(range(64)), **self.RETH,
        )
        assert recycled.pack(book) == fresh.pack(book)
        assert recycled == fresh

    def test_recycle_leaves_payload_view_untouched(self):
        recycled, _book = self.recycled_write()
        assert isinstance(recycled.payload, memoryview)
        assert bytes(recycled.payload) == bytes(range(64))

    def test_recycle_round_trips_through_wire(self):
        recycled, book = self.recycled_write()
        restored = RocePacket.unpack(recycled.pack(book), book)
        assert restored == recycled
        assert (restored.virtual_address, restored.remote_key, restored.dma_length) == (
            0x1000, 0x77, 64,
        )
        assert restored.payload == bytes(range(64))


class TestPacketPool:
    def make_request(self, pool):
        return pool.acquire(
            src="switch", dst="pool", opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=7,
            psn=42, virtual_address=0x4000, remote_key=0x8, dma_length=256,
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
            src="a", dst="b", opcode=Opcode.RC_RDMA_WRITE_ONLY, dest_qp=1, psn=0,
            dma_length=4, payload=b"data",
        )
        packet.release()
        assert packet.payload == b""

    def test_double_release_is_idempotent(self):
        pool = PacketPool()
        packet = self.make_request(pool)
        packet.release()
        packet.release()
        assert len(pool) == 1

    def test_foreign_packet_release_ignored(self):
        pool = PacketPool()
        outsider = ack()
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
        pool.acquire(
            "switch", "compute", Opcode.RC_RDMA_WRITE_MIDDLE, 3, 5, payload=b"m" * 900
        ).release()
        reused = self.make_request(pool)
        fresh = RocePacket(
            src="switch", dst="pool", opcode=Opcode.RC_RDMA_READ_REQUEST, dest_qp=7,
            psn=42, virtual_address=0x4000, remote_key=0x8, dma_length=256,
        )
        assert reused == fresh
        assert reused.size_bytes == fresh.size_bytes
        assert reused.pack(book) == fresh.pack(book)
