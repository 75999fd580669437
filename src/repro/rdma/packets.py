"""RoCEv2 packet formats, packed bit-for-bit.

RDMA over Converged Ethernet v2 carries InfiniBand transport packets in
UDP (destination port 4791) over IPv4 over Ethernet.  The headers the
paper's Table 4 lists — BTH for all packets, RETH on READ/WRITE
requests, AETH on read responses and acknowledgments — are implemented
here with ``struct``-level pack/unpack, because Cowbird-P4's central
mechanism is *recycling*: taking a received packet, stripping one
header, prepending another, and re-emitting it.  Tests assert on the
resulting byte layout.

Like the paper's prototype (footnote 1), we do not compute real ICRCs —
programmable switches cannot — and carry a placeholder trailer instead.

Hot-path design notes:

* A packet is one flat ``__slots__`` record: the BTH, RETH and AETH
  fields are plain attributes of :class:`RocePacket`, and the fields of
  a header the opcode does not carry are zero.  Reading a PSN or an
  rkey is one attribute load, and the switch's header rewrite is a few
  attribute stores.
* ``size_bytes`` is a slot, set wherever the opcode or payload is set:
  by the constructor, :meth:`RocePacket.unpack`,
  :meth:`PacketPool.acquire` and :meth:`RocePacket.recycle`.  Every hop
  (``Link`` start, NIC transmit and receive) reads it without a call.
* All ``struct`` formats are compiled once at module level.
* Opcode predicates (which extension header an opcode carries, whether
  it is a write or a read response) are frozensets, and the per-opcode
  header size a dict, all computed once at import; decoding maps the
  raw opcode byte to its ``Opcode`` member through a tuple.  Per
  packet, nothing evaluates an enum property or calls ``Opcode(...)``.
* :meth:`RocePacket.unpack` decodes every header field eagerly and
  exposes the payload as a zero-copy ``memoryview`` slice of the input.
* :meth:`RocePacket.recycle` is the switch primitive — strip one header,
  prepend another — as an in-place header rewrite that never touches
  the payload.
* :class:`PacketPool` is a small free-list of packet shells so that the
  P4 engine's steady-state probe/execute loop allocates no new packet
  objects.
"""

from __future__ import annotations

import enum
import struct
from typing import Any, Optional, Union

from repro.sim.network import PRIORITY_NORMAL

__all__ = [
    "AddressBook",
    "CARRIES_AETH",
    "CARRIES_PAYLOAD",
    "CARRIES_RETH",
    "HEADER_BYTES_BY_OPCODE",
    "HEADER_OVERHEAD_BYTES",
    "OPCODE_BY_VALUE",
    "Opcode",
    "PacketPool",
    "PSN_MASK",
    "PSN_MODULUS",
    "READ_RESPONSES",
    "READ_RESPONSE_TAILS",
    "RocePacket",
    "ROCE_UDP_PORT",
    "SYNDROME_ACK",
    "SYNDROME_NAK_PSN_ERROR",
    "SYNDROME_NAK_REMOTE_ACCESS",
    "WRITES",
    "WRITE_TAILS",
    "psn_add",
    "psn_distance",
]

ROCE_UDP_PORT = 4791
ETHERTYPE_IPV4 = 0x0800

ETH_HEADER_BYTES = 14
IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
BTH_BYTES = 12
RETH_BYTES = 16
AETH_BYTES = 4
ICRC_BYTES = 4

#: Fixed overhead of every RoCEv2 packet (Eth + IPv4 + UDP + BTH + ICRC).
HEADER_OVERHEAD_BYTES = (
    ETH_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + BTH_BYTES + ICRC_BYTES
)

#: PSNs are 24-bit serial numbers.
PSN_MODULUS = 1 << 24
#: ``x & PSN_MASK`` is ``x % PSN_MODULUS``, negative ``x`` included: hot
#: paths add and subtract PSNs with it inline.
PSN_MASK = PSN_MODULUS - 1

#: AETH syndrome for a positive acknowledgment (credit field saturated).
SYNDROME_ACK = 0x1F
#: AETH syndrome for a NAK / PSN sequence error (triggers Go-Back-N).
SYNDROME_NAK_PSN_ERROR = 0x60
#: AETH syndrome for a NAK / remote access error (NAK code 2): a bad rkey
#: or an access outside the region.  Fatal to the work request.
SYNDROME_NAK_REMOTE_ACCESS = 0x62

# Precompiled wire formats — compiled once, shared by every pack/unpack.
_BTH_STRUCT = struct.Struct(">BBHII")
_RETH_STRUCT = struct.Struct(">QII")
_AETH_STRUCT = struct.Struct(">I")
_IPV4_STRUCT = struct.Struct(">BBHHHBBHII")
_UDP_STRUCT = struct.Struct(">HHHH")
_U16_STRUCT = struct.Struct(">H")
_U32_STRUCT = struct.Struct(">I")
_ETHERTYPE_IPV4_BYTES = _U16_STRUCT.pack(ETHERTYPE_IPV4)
_ICRC_PLACEHOLDER = b"\x00" * ICRC_BYTES

#: Offsets of the UDP header, the BTH and the extension header (RETH or
#: AETH) in the wire image.  RETH and AETH never appear together, so the
#: extension offset is a constant.
_UDP_OFFSET = ETH_HEADER_BYTES + IPV4_HEADER_BYTES
_BTH_OFFSET = _UDP_OFFSET + UDP_HEADER_BYTES
_EXT_OFFSET = _BTH_OFFSET + BTH_BYTES


def psn_add(psn: int, delta: int) -> int:
    """24-bit wrapping PSN addition."""
    return (psn + delta) & PSN_MASK


def psn_distance(start: int, end: int) -> int:
    """Forward distance from ``start`` to ``end`` in PSN space."""
    return (end - start) & PSN_MASK


class Opcode(enum.IntEnum):
    """InfiniBand RC transport opcodes used by the reproduction."""

    RC_SEND_ONLY = 0x04
    RC_RDMA_WRITE_FIRST = 0x06
    RC_RDMA_WRITE_MIDDLE = 0x07
    RC_RDMA_WRITE_LAST = 0x08
    RC_RDMA_WRITE_ONLY = 0x0A
    RC_RDMA_READ_REQUEST = 0x0C
    RC_RDMA_READ_RESPONSE_FIRST = 0x0D
    RC_RDMA_READ_RESPONSE_MIDDLE = 0x0E
    RC_RDMA_READ_RESPONSE_LAST = 0x0F
    RC_RDMA_READ_RESPONSE_ONLY = 0x10
    RC_ACKNOWLEDGE = 0x11


# Opcode predicate tables, computed once at import.  Hot paths use these
# (and the module-level opcode constants) rather than ``Opcode.X``
# class-attribute lookups, which cost several times a set or dict lookup
# on CPython.
OP_SEND_ONLY = Opcode.RC_SEND_ONLY
OP_WRITE_FIRST = Opcode.RC_RDMA_WRITE_FIRST
OP_WRITE_MIDDLE = Opcode.RC_RDMA_WRITE_MIDDLE
OP_WRITE_LAST = Opcode.RC_RDMA_WRITE_LAST
OP_WRITE_ONLY = Opcode.RC_RDMA_WRITE_ONLY
OP_READ_REQUEST = Opcode.RC_RDMA_READ_REQUEST
OP_READ_RESPONSE_FIRST = Opcode.RC_RDMA_READ_RESPONSE_FIRST
OP_READ_RESPONSE_MIDDLE = Opcode.RC_RDMA_READ_RESPONSE_MIDDLE
OP_READ_RESPONSE_LAST = Opcode.RC_RDMA_READ_RESPONSE_LAST
OP_READ_RESPONSE_ONLY = Opcode.RC_RDMA_READ_RESPONSE_ONLY
OP_ACKNOWLEDGE = Opcode.RC_ACKNOWLEDGE

#: RETH: READ requests and the first/only packet of a WRITE.
CARRIES_RETH = frozenset({OP_READ_REQUEST, OP_WRITE_FIRST, OP_WRITE_ONLY})
#: AETH: read responses other than MIDDLE, and ACKs.
CARRIES_AETH = frozenset(
    {OP_READ_RESPONSE_FIRST, OP_READ_RESPONSE_LAST, OP_READ_RESPONSE_ONLY, OP_ACKNOWLEDGE}
)
WRITES = frozenset({OP_WRITE_FIRST, OP_WRITE_MIDDLE, OP_WRITE_LAST, OP_WRITE_ONLY})
READ_RESPONSES = frozenset(
    {
        OP_READ_RESPONSE_FIRST,
        OP_READ_RESPONSE_MIDDLE,
        OP_READ_RESPONSE_LAST,
        OP_READ_RESPONSE_ONLY,
    }
)
CARRIES_PAYLOAD = frozenset({OP_SEND_ONLY}) | WRITES | READ_RESPONSES
#: The packets that end a WRITE train or a read-response train.
WRITE_TAILS = frozenset({OP_WRITE_LAST, OP_WRITE_ONLY})
READ_RESPONSE_TAILS = frozenset({OP_READ_RESPONSE_LAST, OP_READ_RESPONSE_ONLY})

#: Wire size of a packet of each opcode, excluding its payload: the fixed
#: RoCEv2 overhead plus the extension header the opcode carries.
HEADER_BYTES_BY_OPCODE = {
    opcode: HEADER_OVERHEAD_BYTES
    + (RETH_BYTES if opcode in CARRIES_RETH else 0)
    + (AETH_BYTES if opcode in CARRIES_AETH else 0)
    for opcode in Opcode
}

#: Raw BTH opcode byte -> the ``Opcode`` member (``None`` where unused),
#: so decoding a header returns the shared member objects without going
#: through ``Opcode(value)``.
OPCODE_BY_VALUE = tuple(Opcode._value2member_map_.get(value) for value in range(256))


class AddressBook:
    """Deterministic node-name <-> IPv4/MAC assignment for packing.

    The simulator routes by node name; the wire format needs numeric
    addresses.  Names are assigned sequential addresses in 10.0.0.0/24
    on first use, and unpacking reverses the mapping.
    """

    def __init__(self) -> None:
        self._name_to_ip: dict[str, int] = {}
        self._ip_to_name: dict[int, str] = {}

    def ip_of(self, name: str) -> int:
        ip = self._name_to_ip.get(name)
        if ip is None:
            ip = (10 << 24) | (len(self._name_to_ip) + 1)
            self._name_to_ip[name] = ip
            self._ip_to_name[ip] = name
        return ip

    def name_of(self, ip: int) -> str:
        try:
            return self._ip_to_name[ip]
        except KeyError:
            raise KeyError(f"unknown IP {ip:#010x}") from None

    def mac_of(self, name: str) -> bytes:
        return b"\x02\x00" + _U32_STRUCT.pack(self.ip_of(name))


#: Module-default address book (tests may supply their own).
DEFAULT_ADDRESS_BOOK = AddressBook()


class RocePacket:
    """A complete RoCEv2 packet as one flat record.

    Satisfies the network layer's Packet protocol (``src``/``dst``/
    ``size_bytes``/``priority``) and carries every transport header
    field as a plain attribute, for the Cowbird-P4 pipeline to rewrite:

    * BTH: ``opcode``, ``dest_qp``, ``psn``, ``ack_request``;
    * RETH: ``virtual_address``, ``remote_key``, ``dma_length``;
    * AETH: ``syndrome``, ``msn``.

    The fields of an extension header the opcode does not carry are
    zero; direct construction rejects anything else, and a payload on an
    opcode that carries none.  :meth:`unpack` skips that validation (the
    wire image is well-formed by construction); its ``payload`` is a
    zero-copy ``memoryview`` of the input buffer.
    """

    __slots__ = (
        "src", "dst",
        "opcode", "dest_qp", "psn", "ack_request",  # BTH
        "virtual_address", "remote_key", "dma_length",  # RETH
        "syndrome", "msn",  # AETH
        "payload", "priority", "size_bytes", "_pool",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        opcode: Opcode,
        dest_qp: int,
        psn: int,
        ack_request: bool = False,
        virtual_address: int = 0,
        remote_key: int = 0,
        dma_length: int = 0,
        syndrome: int = 0,
        msn: int = 0,
        payload: Union[bytes, memoryview] = b"",
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        if opcode not in CARRIES_RETH and (virtual_address or remote_key or dma_length):
            raise ValueError(f"{opcode.name} must not carry a RETH header")
        if opcode not in CARRIES_AETH and (syndrome or msn):
            raise ValueError(f"{opcode.name} must not carry an AETH header")
        if payload and opcode not in CARRIES_PAYLOAD:
            raise ValueError(f"{opcode.name} packets carry no payload")
        self.src = src
        self.dst = dst
        self.opcode = opcode
        self.dest_qp = dest_qp
        self.psn = psn
        self.ack_request = ack_request
        self.virtual_address = virtual_address
        self.remote_key = remote_key
        self.dma_length = dma_length
        self.syndrome = syndrome
        self.msn = msn
        self.payload = payload
        self.priority = priority
        self.size_bytes = HEADER_BYTES_BY_OPCODE[opcode] + len(payload)
        self._pool: Optional["PacketPool"] = None

    # ------------------------------------------------------------------
    @property
    def is_nak(self) -> bool:
        """The AETH syndrome is a NAK (of any NAK code)."""
        return (self.syndrome & 0xE0) == 0x60

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, RocePacket):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.opcode is other.opcode
            and self.dest_qp == other.dest_qp
            and self.psn == other.psn
            and self.ack_request == other.ack_request
            and self.virtual_address == other.virtual_address
            and self.remote_key == other.remote_key
            and self.dma_length == other.dma_length
            and self.syndrome == other.syndrome
            and self.msn == other.msn
            and bytes(self.payload) == bytes(other.payload)
            and self.priority == other.priority
        )

    __hash__ = None  # type: ignore[assignment] - mutable, like a dataclass with eq

    # ------------------------------------------------------------------
    def recycle(
        self,
        src: str,
        dst: str,
        opcode: Opcode,
        dest_qp: int,
        psn: int,
        ack_request: bool = False,
        virtual_address: int = 0,
        remote_key: int = 0,
        dma_length: int = 0,
        priority: int = PRIORITY_NORMAL,
    ) -> "RocePacket":
        """In-place header rewrite — the switch recycling primitive.

        Strips the old extension header, rewrites the BTH and addressing,
        and prepends the new RETH (zero for an opcode without one),
        leaving the payload bytes untouched (the data plane never parses
        payloads; they exceed the PHV).  Every packet the switch recycles
        becomes a request, so none carries an AETH.  Returns ``self`` for
        chaining into ``switch.inject``.
        """
        self.src = src
        self.dst = dst
        self.opcode = opcode
        self.dest_qp = dest_qp
        self.psn = psn
        self.ack_request = ack_request
        self.virtual_address = virtual_address
        self.remote_key = remote_key
        self.dma_length = dma_length
        self.syndrome = self.msn = 0
        self.priority = priority
        self.size_bytes = HEADER_BYTES_BY_OPCODE[opcode] + len(self.payload)
        return self

    def release(self) -> None:
        """Return this packet to its free-list, if it came from one."""
        pool = self._pool
        if pool is not None:
            pool.release(self)

    # ------------------------------------------------------------------
    def pack(self, book: Optional[AddressBook] = None) -> bytes:
        """Serialize to wire bytes (placeholder ICRC, like the prototype)."""
        book = book or DEFAULT_ADDRESS_BOOK
        if not 0 <= self.dest_qp < (1 << 24):
            raise ValueError(f"dest_qp out of 24-bit range: {self.dest_qp}")
        if not 0 <= self.psn < PSN_MODULUS:
            raise ValueError(f"psn out of 24-bit range: {self.psn}")
        opcode = self.opcode
        # IPv4 (minimal, no options) and UDP lengths cover the transport.
        transport_len = self.size_bytes - ETH_HEADER_BYTES - IPV4_HEADER_BYTES
        parts = [
            book.mac_of(self.dst) + book.mac_of(self.src),
            _ETHERTYPE_IPV4_BYTES,
            _IPV4_STRUCT.pack(
                0x45,  # version 4, IHL 5
                0,  # DSCP/ECN
                IPV4_HEADER_BYTES + transport_len,
                0,  # identification
                0x4000,  # don't fragment
                64,  # TTL
                17,  # protocol: UDP
                0,  # header checksum (placeholder)
                book.ip_of(self.src),
                book.ip_of(self.dst),
            ),
            _UDP_STRUCT.pack(ROCE_UDP_PORT, ROCE_UDP_PORT, transport_len, 0),
            _BTH_STRUCT.pack(
                opcode,
                0,  # flags: solicited event, migration, pad, version
                0xFFFF,  # default partition key
                self.dest_qp,  # high byte reserved, low 24 bits QPN
                (0x8000_0000 if self.ack_request else 0) | self.psn,
            ),
        ]
        if opcode in CARRIES_RETH:
            if not 0 <= self.virtual_address < (1 << 64):
                raise ValueError(f"virtual address out of range: {self.virtual_address}")
            if not 0 <= self.dma_length < (1 << 32):
                raise ValueError(f"dma_length out of range: {self.dma_length}")
            parts.append(
                _RETH_STRUCT.pack(
                    self.virtual_address, self.remote_key & 0xFFFF_FFFF, self.dma_length
                )
            )
        elif opcode in CARRIES_AETH:
            if not 0 <= self.msn < (1 << 24):
                raise ValueError(f"msn out of 24-bit range: {self.msn}")
            parts.append(_AETH_STRUCT.pack(((self.syndrome & 0xFF) << 24) | self.msn))
        parts.append(bytes(self.payload))
        parts.append(_ICRC_PLACEHOLDER)  # placeholder ICRC (footnote 1)
        wire = b"".join(parts)
        assert len(wire) == self.size_bytes, (len(wire), self.size_bytes)
        return wire

    @classmethod
    def unpack(
        cls, data: Union[bytes, memoryview], book: Optional[AddressBook] = None
    ) -> "RocePacket":
        book = book or DEFAULT_ADDRESS_BOOK
        size = len(data)
        if size < HEADER_OVERHEAD_BYTES:
            raise ValueError(f"packet too short: {size} bytes")
        view = memoryview(data)
        ip_fields = _IPV4_STRUCT.unpack_from(view, ETH_HEADER_BYTES)
        dst_port = _UDP_STRUCT.unpack_from(view, _UDP_OFFSET)[1]
        if dst_port != ROCE_UDP_PORT:
            raise ValueError(f"not a RoCEv2 packet (UDP port {dst_port})")
        value, _flags, _pkey, dqp_word, ack_psn = _BTH_STRUCT.unpack_from(view, _BTH_OFFSET)
        opcode = OPCODE_BY_VALUE[value]
        if opcode is None:
            raise ValueError(f"{value!r} is not a valid Opcode")
        header_bytes = HEADER_BYTES_BY_OPCODE[opcode]
        if size < header_bytes:
            raise ValueError(f"packet too short for {opcode.name}: {size} bytes")
        packet = object.__new__(cls)
        packet.src = book.name_of(ip_fields[8])
        packet.dst = book.name_of(ip_fields[9])
        packet.opcode = opcode
        packet.dest_qp = dqp_word & 0xFF_FFFF
        packet.psn = ack_psn & 0xFF_FFFF
        packet.ack_request = bool(ack_psn & 0x8000_0000)
        if opcode in CARRIES_RETH:
            packet.virtual_address, packet.remote_key, packet.dma_length = (
                _RETH_STRUCT.unpack_from(view, _EXT_OFFSET)
            )
        else:
            packet.virtual_address = packet.remote_key = packet.dma_length = 0
        if opcode in CARRIES_AETH:
            word, = _AETH_STRUCT.unpack_from(view, _EXT_OFFSET)
            packet.syndrome = word >> 24
            packet.msn = word & 0xFF_FFFF
        else:
            packet.syndrome = packet.msn = 0
        packet.payload = view[header_bytes - ICRC_BYTES : size - ICRC_BYTES]
        packet.priority = PRIORITY_NORMAL
        packet.size_bytes = size
        packet._pool = None
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RocePacket({self.opcode.name}, {self.src}->{self.dst}, "
            f"qp={self.dest_qp}, psn={self.psn}, {len(self.payload)}B)"
        )


class PacketPool:
    """A bounded free-list of :class:`RocePacket` shells.

    ``acquire`` hands back a recycled shell when one is available (the
    steady-state case) and falls back to normal construction otherwise.
    Validation is skipped on the recycled path — every acquire site in
    the engine builds a well-formed header combination, and the direct
    constructor still validates for everyone else.  Payload references
    are dropped at release so buffers do not outlive their packet.

    ``sanitizer`` is an optional :class:`repro.analysis.SimSanitizer`
    (duck-typed: anything with ``on_acquire``/``on_release``); when set,
    every acquire/release is reported so double releases and end-of-run
    leaks surface with allocation sites.  ``None`` (the default) keeps
    the hot path branch-one-compare cheap.
    """

    __slots__ = ("_free", "maxsize", "sanitizer")

    def __init__(self, maxsize: int = 256, sanitizer=None) -> None:
        self._free: list[RocePacket] = []
        self.maxsize = maxsize
        self.sanitizer = sanitizer

    def __len__(self) -> int:
        return len(self._free)

    def acquire(
        self,
        src: str,
        dst: str,
        opcode: Opcode,
        dest_qp: int,
        psn: int,
        ack_request: bool = False,
        virtual_address: int = 0,
        remote_key: int = 0,
        dma_length: int = 0,
        syndrome: int = 0,
        msn: int = 0,
        payload: Union[bytes, memoryview] = b"",
        priority: int = PRIORITY_NORMAL,
    ) -> RocePacket:
        free = self._free
        if free:
            packet = free.pop()
            packet.src = src
            packet.dst = dst
            packet.opcode = opcode
            packet.dest_qp = dest_qp
            packet.psn = psn
            packet.ack_request = ack_request
            packet.virtual_address = virtual_address
            packet.remote_key = remote_key
            packet.dma_length = dma_length
            packet.syndrome = syndrome
            packet.msn = msn
            packet.payload = payload
            packet.priority = priority
            packet.size_bytes = HEADER_BYTES_BY_OPCODE[opcode] + len(payload)
        else:
            packet = RocePacket(
                src, dst, opcode, dest_qp, psn, ack_request,
                virtual_address, remote_key, dma_length, syndrome, msn,
                payload, priority,
            )
        packet._pool = self
        if self.sanitizer is not None:
            self.sanitizer.on_acquire(self, packet)
        return packet

    def release(self, packet: RocePacket) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_release(self, packet, owned=packet._pool is self)
        if packet._pool is not self:
            return  # not ours (or already released): ignore
        packet._pool = None
        packet.payload = b""
        if len(self._free) < self.maxsize:
            self._free.append(packet)
