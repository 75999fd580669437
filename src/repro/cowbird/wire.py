"""Cowbird's in-memory wire formats (Section 4.2, Tables 3).

Three byte-exact layouts live here:

* :class:`RequestMetadata` — the fixed-size request descriptor the
  client appends to its metadata ring and the offload engine parses out
  of RDMA read payloads (Table 3: rw_type/req_addr/resp_addr/length/
  region_id, padded for alignment).
* :class:`GreenBlock` — the client-written bookkeeping the engine reads
  with a single probe (tail pointers, packed contiguously).
* :class:`RedBlock` — the engine-written bookkeeping the client reads
  locally (head pointers, response tail, and the per-type progress
  counters that make completion tracking integer comparisons).

Request IDs encode operation type, region id, and a per-type sequence
number (Section 4.3) so that "almost all checks can be done with simple
integer arithmetic".
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

__all__ = [
    "BookkeepingLayout",
    "GreenBlock",
    "RedBlock",
    "REQUEST_REGION_SHIFT",
    "REQUEST_SEQUENCE_MASK",
    "REQUEST_TYPE_SHIFT",
    "RW_TYPE_BY_VALUE",
    "RequestMetadata",
    "RwType",
    "decode_request_id",
    "encode_request_id",
]


class RwType(enum.IntEnum):
    """Request-type discriminator; INVALID marks not-yet-ready entries.

    The client writes the rw_type cache line *last* (Section 4.3), so an
    engine that races ahead of an in-progress append sees INVALID and
    stops.
    """

    INVALID = 0
    READ = 1
    WRITE = 2


#: Raw rw_type value -> ``RwType`` member.  Decoding indexes this tuple
#: instead of calling ``RwType(value)``, which costs an order of
#: magnitude more, and returns the same member objects, so ``is``
#: comparisons against ``RwType.READ`` keep holding.  Keyed by value,
#: like ``packets.OPCODE_BY_VALUE``: a value with no member maps to None.
RW_TYPE_BY_VALUE = tuple(
    RwType._value2member_map_.get(value) for value in range(max(RwType) + 1)
)
_RW_TYPE_LIMIT = len(RW_TYPE_BY_VALUE)


def _rw_type_of(value: int) -> RwType:
    """The member for a raw (non-negative) value; like ``RwType(value)``."""
    member = RW_TYPE_BY_VALUE[value] if value < _RW_TYPE_LIMIT else None
    if member is None:
        raise ValueError(f"{value!r} is not a valid RwType")
    return member


#: Packed layout: rw_type u16, region_id u16, length u32, req_addr u64,
#: resp_addr u64 = 24 bytes, padded to 32 for cache-line-friendly
#: alignment (R1: fixed-size, trivially parsed by packet-centric devices).
_METADATA_STRUCT = struct.Struct("<HHIQQ")
METADATA_ENTRY_BYTES = 32
#: The same fields and the zero padding, as one whole entry.
_METADATA_ENTRY_STRUCT = struct.Struct(
    f"<HHIQQ{METADATA_ENTRY_BYTES - _METADATA_STRUCT.size}x"
)


@dataclass(slots=True, init=False)
class RequestMetadata:
    """One entry of the request metadata ring (Table 3).

    ``req_addr`` is where the engine *fetches* data from: a memory-pool
    address for reads, a compute-node address (in the request data ring)
    for writes.  ``resp_addr`` is where the result lands: a compute-node
    address (in the response data ring) for reads, a memory-pool address
    for writes.

    A plain slots record: the client builds one per request and an
    engine parses one per request, so neither pays a frozen dataclass's
    ``object.__setattr__`` per field.  Nothing mutates an entry once
    built.
    """

    rw_type: RwType
    req_addr: int
    resp_addr: int
    length: int
    region_id: int

    def __init__(
        self, rw_type: RwType, req_addr: int, resp_addr: int, length: int,
        region_id: int,
    ) -> None:
        if not 0 <= region_id <= 0xFFFF:
            raise ValueError(f"region_id out of 16-bit range: {region_id}")
        if not 0 <= length < (1 << 32):
            raise ValueError(f"length out of 32-bit range: {length}")
        if req_addr < 0 or resp_addr < 0:
            raise ValueError("addresses must be non-negative")
        self.rw_type = rw_type
        self.req_addr = req_addr
        self.resp_addr = resp_addr
        self.length = length
        self.region_id = region_id

    def pack(self) -> bytes:
        return _METADATA_ENTRY_STRUCT.pack(
            self.rw_type, self.region_id, self.length, self.req_addr, self.resp_addr
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "RequestMetadata":
        """Parse the entry at ``offset`` of ``data`` (an engine reads a
        fetched run in place, one entry per request)."""
        if len(data) - offset < _METADATA_STRUCT.size:
            raise ValueError(f"metadata entry too short: {len(data) - offset} bytes")
        rw, region_id, length, req_addr, resp_addr = _METADATA_STRUCT.unpack_from(
            data, offset
        )
        rw_type = RW_TYPE_BY_VALUE[rw] if rw < _RW_TYPE_LIMIT else None
        if rw_type is None:
            _rw_type_of(rw)  # raises the ValueError
        # The wire field widths already bound every value the constructor
        # checks, so the entry is filled in directly.
        entry = object.__new__(cls)
        entry.rw_type = rw_type
        entry.req_addr = req_addr
        entry.resp_addr = resp_addr
        entry.length = length
        entry.region_id = region_id
        return entry


# ----------------------------------------------------------------------
# Bookkeeping blocks (Section 4.2 "Bookkeeping" + Figure 4 colors)
# ----------------------------------------------------------------------

_GREEN_STRUCT = struct.Struct("<QQ")
_RED_STRUCT = struct.Struct("<QQQQQ")


@dataclass
class GreenBlock:
    """Client-written pointers, read by the engine in one RDMA read.

    Tails are monotonically increasing (entries / bytes produced since
    start); the ring index is ``tail % capacity``.  Monotonic counters
    avoid the classic full-vs-empty ambiguity of wrapped indices.
    """

    request_meta_tail: int = 0
    request_data_tail: int = 0

    SIZE = _GREEN_STRUCT.size

    def pack(self) -> bytes:
        return _GREEN_STRUCT.pack(self.request_meta_tail, self.request_data_tail)

    @classmethod
    def unpack(cls, data: bytes) -> "GreenBlock":
        meta_tail, data_tail = _GREEN_STRUCT.unpack_from(data)
        return cls(request_meta_tail=meta_tail, request_data_tail=data_tail)


@dataclass
class RedBlock:
    """Engine-written pointers/counters, read locally by the client.

    One RDMA write updates all five fields (Phase IV, R3): the head
    pointers free ring space for new requests, the response tail
    publishes freshly written response bytes, and the two progress
    counters carry the per-type sequence number of the last completed
    operation — the entire completion-tracking story of Section 4.2.
    """

    request_meta_head: int = 0
    request_data_head: int = 0
    response_data_tail: int = 0
    write_progress: int = 0
    read_progress: int = 0

    SIZE = _RED_STRUCT.size

    def pack(self) -> bytes:
        return _RED_STRUCT.pack(
            self.request_meta_head,
            self.request_data_head,
            self.response_data_tail,
            self.write_progress,
            self.read_progress,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "RedBlock":
        fields = _RED_STRUCT.unpack_from(data)
        return cls(*fields)


@dataclass(frozen=True)
class BookkeepingLayout:
    """Addresses of the green and red blocks inside one region.

    Both blocks live in a single registered region so each side can be
    read or written with exactly one RDMA operation; they sit on
    separate cache lines so client stores and engine DMA writes do not
    false-share.
    """

    base_addr: int

    GREEN_OFFSET = 0
    RED_OFFSET = 64
    TOTAL_BYTES = 128

    @property
    def green_addr(self) -> int:
        return self.base_addr + self.GREEN_OFFSET

    @property
    def red_addr(self) -> int:
        return self.base_addr + self.RED_OFFSET


# ----------------------------------------------------------------------
# Request-id encoding (Section 4.3)
# ----------------------------------------------------------------------

_REQ_SEQ_BITS = 32
_REQ_REGION_SHIFT = _REQ_SEQ_BITS
#: A request id's rw_type value is ``request_id >> REQUEST_TYPE_SHIFT``
#: (ids are built as :func:`encode_request_id` builds them, so nothing
#: sits above it), its region is ``request_id >> REQUEST_REGION_SHIFT``
#: masked to 16 bits and its sequence is ``request_id &
#: REQUEST_SEQUENCE_MASK``: hot paths read and build them inline.
REQUEST_REGION_SHIFT = _REQ_REGION_SHIFT
REQUEST_TYPE_SHIFT = _REQ_REGION_SHIFT + 16
REQUEST_SEQUENCE_MASK = (1 << _REQ_SEQ_BITS) - 1


def encode_request_id(rw_type: RwType, region_id: int, sequence: int) -> int:
    """Pack (type, region, per-type sequence) into one integer."""
    if not 0 <= region_id <= 0xFFFF:
        raise ValueError(f"region_id out of range: {region_id}")
    if not 0 < sequence < (1 << _REQ_SEQ_BITS):
        raise ValueError(f"sequence out of range: {sequence}")
    return (
        (int(rw_type) << REQUEST_TYPE_SHIFT) | (region_id << _REQ_REGION_SHIFT) | sequence
    )


def decode_request_id(request_id: int) -> tuple[RwType, int, int]:
    """Inverse of :func:`encode_request_id`."""
    rw_type = _rw_type_of((request_id >> REQUEST_TYPE_SHIFT) & 0xFFFF)
    region_id = (request_id >> _REQ_REGION_SHIFT) & 0xFFFF
    sequence = request_id & REQUEST_SEQUENCE_MASK
    return rw_type, region_id, sequence
