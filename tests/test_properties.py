"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import given, settings, strategies as st

from repro.cowbird.api import PollGroup
from repro.cowbird.buffers import DataRing, RingFullError, skip_pad
from repro.cowbird.engine_core import place
from repro.cowbird.p4_engine import _EngineOp
from repro.cowbird.wire import (
    GreenBlock,
    RedBlock,
    RequestMetadata,
    RwType,
    decode_request_id,
    encode_request_id,
)
from repro.faster.hybridlog import HybridLog, HybridLogConfig
from repro.memory.region import MemoryRegion
from repro.rdma.packets import (
    CARRIES_AETH,
    CARRIES_PAYLOAD,
    CARRIES_RETH,
    READ_RESPONSES,
    WRITES,
    AddressBook,
    Opcode,
    PSN_MASK,
    PSN_MODULUS,
    PacketPool,
    RocePacket,
    psn_add,
    psn_distance,
)
from repro.rdma.qp import _Outstanding
from repro.sim.trace import percentile
from repro.workloads.ycsb import ZipfianGenerator


psn = st.integers(min_value=0, max_value=PSN_MODULUS - 1)
#: PSNs within a few packets of either side of the 2**24 wrap.
psn_near_wrap = st.one_of(
    st.integers(min_value=PSN_MODULUS - 40, max_value=PSN_MODULUS - 1),
    st.integers(min_value=0, max_value=40),
)


class TestPsnProperties:
    @given(psn, st.integers(min_value=0, max_value=1 << 30))
    def test_add_stays_in_range(self, start, delta):
        assert 0 <= psn_add(start, delta) < PSN_MODULUS

    @given(psn, st.integers(min_value=0, max_value=PSN_MODULUS - 1))
    def test_distance_inverts_add(self, start, delta):
        assert psn_distance(start, psn_add(start, delta)) == delta

    @given(psn, psn)
    def test_distance_antisymmetry(self, a, b):
        if a != b:
            assert psn_distance(a, b) + psn_distance(b, a) == PSN_MODULUS
        else:
            assert psn_distance(a, b) == 0

    @given(
        st.one_of(psn, psn_near_wrap),
        st.one_of(
            st.integers(min_value=-64, max_value=64),
            st.integers(min_value=-2 * PSN_MODULUS, max_value=2 * PSN_MODULUS),
        ),
    )
    def test_inline_masks_are_the_modular_helpers(self, a, delta):
        """The inline forms the hot paths use, ``(a + n) & PSN_MASK`` and
        ``(b - a) & PSN_MASK``, equal the helpers and arithmetic modulo
        2**24, for negative deltas and across the wrap too."""
        assert (a + delta) & PSN_MASK == psn_add(a, delta) == (a + delta) % PSN_MODULUS
        b = psn_add(a, delta)
        assert (b - a) & PSN_MASK == psn_distance(a, b) == (b - a) % PSN_MODULUS

    @given(psn_near_wrap, st.integers(min_value=1, max_value=64))
    def test_last_psn_of_a_range_across_the_wrap(self, first, count):
        """A requester WR and a switch op spanning ``count`` PSNs end at
        ``psn_add(first, count - 1)``, also when the range wraps."""
        entry = _Outstanding(wr=None, first_psn=first, num_psns=count)
        op = _EngineOp(kind="meta", channel=None, first_psn=first, num_psns=count)
        assert entry.last_psn == op.last_psn == psn_add(first, count - 1)
        assert 0 <= op.last_psn < PSN_MODULUS


u8 = st.integers(min_value=0, max_value=(1 << 8) - 1)
u24 = st.integers(min_value=0, max_value=(1 << 24) - 1)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@st.composite
def header_fields(draw, opcodes=st.sampled_from(list(Opcode))):
    """Random header fields and payload, legal for a random opcode."""
    opcode = draw(opcodes)
    fields = dict(opcode=opcode, dest_qp=draw(u24), psn=draw(psn), ack_request=draw(st.booleans()))
    if opcode in CARRIES_RETH:
        fields.update(virtual_address=draw(u64), remote_key=draw(u32), dma_length=draw(u32))
    if opcode in CARRIES_AETH:
        fields.update(syndrome=draw(u8), msn=draw(u24))
    if opcode in CARRIES_PAYLOAD:
        fields["payload"] = draw(st.binary(max_size=1024))
    return fields


def packets(opcodes=st.sampled_from(list(Opcode))):
    return header_fields(opcodes).map(lambda fields: RocePacket("alpha", "beta", **fields))


def assert_round_trips(packet):
    """The packet survives the wire unchanged, and its size is its wire length."""
    book = AddressBook()
    wire = packet.pack(book)
    assert packet.size_bytes == len(wire)
    restored = RocePacket.unpack(wire, book)
    assert restored == packet
    assert restored.size_bytes == len(wire)


class TestWireFormatProperties:
    """Whole-packet properties; the three header groups split the opcodes."""

    @given(packets(st.sampled_from(
        [op for op in Opcode if op not in CARRIES_RETH and op not in CARRIES_AETH]
    )))
    def test_bth_round_trip(self, packet):
        assert_round_trips(packet)

    @given(packets(st.sampled_from(sorted(CARRIES_RETH))))
    def test_reth_round_trip(self, packet):
        assert_round_trips(packet)

    @given(packets(st.sampled_from(sorted(CARRIES_AETH))))
    def test_aeth_round_trip(self, packet):
        assert_round_trips(packet)

    @settings(max_examples=200)
    @given(packets())
    def test_full_packet_round_trip(self, packet):
        assert_round_trips(packet)

    @given(header_fields(), header_fields())
    def test_pool_reuse_sets_every_field(self, first, second):
        pool = PacketPool()
        shell = pool.acquire("alpha", "beta", **first)
        shell.release()
        reused = pool.acquire("alpha", "beta", **second)
        assert reused is shell
        assert reused == RocePacket("alpha", "beta", **second)
        assert_round_trips(reused)

    @given(
        packets(st.sampled_from(sorted(READ_RESPONSES))),
        st.sampled_from(sorted(WRITES)),
        u24, psn, u64, u32,
    )
    def test_recycled_read_response_is_a_well_formed_write(
        self, response, opcode, dest_qp, seq, vaddr, rkey
    ):
        book = AddressBook()
        arriving = RocePacket.unpack(response.pack(book), book)
        reth = (
            dict(virtual_address=vaddr, remote_key=rkey, dma_length=len(response.payload))
            if opcode in CARRIES_RETH else {}
        )
        arriving.recycle("switch", "pool", opcode, dest_qp, seq, True, **reth)
        assert arriving == RocePacket(
            "switch", "pool", opcode, dest_qp, seq, True,
            payload=bytes(response.payload), **reth,
        )
        assert_round_trips(arriving)


class TestCowbirdWireProperties:
    @given(
        rw=st.sampled_from([RwType.READ, RwType.WRITE]),
        req=st.integers(min_value=0, max_value=(1 << 64) - 1),
        resp=st.integers(min_value=0, max_value=(1 << 64) - 1),
        length=st.integers(min_value=0, max_value=(1 << 32) - 1),
        region=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_metadata_round_trip(self, rw, req, resp, length, region):
        entry = RequestMetadata(rw_type=rw, req_addr=req, resp_addr=resp,
                                length=length, region_id=region)
        assert RequestMetadata.unpack(entry.pack()) == entry

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_green_round_trip(self, a, b):
        green = GreenBlock(request_meta_tail=a, request_data_tail=b)
        assert GreenBlock.unpack(green.pack()) == green

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                    min_size=5, max_size=5))
    def test_red_round_trip(self, fields):
        red = RedBlock(*fields)
        assert RedBlock.unpack(red.pack()) == red

    @given(
        rw=st.sampled_from([RwType.READ, RwType.WRITE]),
        region=st.integers(min_value=0, max_value=0xFFFF),
        seq=st.integers(min_value=1, max_value=(1 << 32) - 1),
    )
    def test_request_id_round_trip(self, rw, region, seq):
        assert decode_request_id(encode_request_id(rw, region, seq)) == (
            rw, region, seq,
        )


class TestRingProperties:
    @given(
        tail=st.integers(min_value=0, max_value=1 << 20),
        length=st.integers(min_value=1, max_value=512),
        capacity=st.sampled_from([512, 1024, 4096]),
    )
    def test_skip_pad_prevents_wrap(self, tail, length, capacity):
        if length > capacity:
            return
        pad = skip_pad(tail, length, capacity)
        start = (tail + pad) % capacity
        assert start + length <= capacity
        assert 0 <= pad < capacity

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=1, max_value=256), min_size=1,
                    max_size=60))
    def test_reserve_mirror_agreement(self, lengths):
        """The engine's cursor replay always matches the client layout."""
        region = MemoryRegion(base_addr=0, length=1 << 16, lkey=1, rkey=2)
        ring = DataRing(region, 0, 1024)
        cursor = 0
        for length in lengths:
            ring.advance_head(ring.tail)  # consume everything
            addr = ring.reserve(length)
            start, cursor = place(cursor, length, ring.capacity)
            assert ring.addr_at(start) == addr
            assert cursor == ring.tail

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=1, max_value=200), min_size=1,
                    max_size=30))
    def test_allocations_never_overlap_live_data(self, lengths):
        """Until the consumer frees anything, every accepted allocation
        must occupy distinct bytes."""
        region = MemoryRegion(base_addr=0, length=1 << 16, lkey=1, rkey=2)
        ring = DataRing(region, 0, 2048)
        live: list[tuple[int, int]] = []
        for length in lengths:
            try:
                addr = ring.reserve(length)
            except RingFullError:
                continue  # backpressure is allowed; overlap is not
            for other_addr, other_len in live:
                assert addr + length <= other_addr or other_addr + other_len <= addr
            live.append((addr, length))


class TestHybridLogProperties:
    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1,
                    max_size=80))
    def test_allocations_disjoint_and_within_pages(self, sizes):
        log = HybridLog(HybridLogConfig(page_bits=10, memory_pages=1 << 20))
        spans = []
        for size in sizes:
            addr = log.allocate(size)
            # never spans a page
            assert (addr & 1023) + size <= 1024
            for other, other_size in spans:
                assert addr + size <= other or other + other_size <= addr
            spans.append((addr, size))

    @settings(max_examples=30)
    @given(st.integers(min_value=3, max_value=30))
    def test_eviction_preserves_address_ordering(self, pages_to_fill):
        log = HybridLog(HybridLogConfig(page_bits=10, memory_pages=2))
        for _ in range(pages_to_fill * 2):
            log.allocate(512)
        while log.pages_over_budget() > 0:
            eviction = log.begin_evict()
            if eviction is None:
                break
            log.finish_evict(eviction[0])
        assert log.head_addr <= log.tail_addr
        # Everything below head is stable; above (resident) is readable.
        assert log.region_of(log.head_addr) in ("read-only", "mutable")


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200))
    def test_percentile_ordering(self, samples):
        p50 = percentile(samples, 0.5)
        p99 = percentile(samples, 0.99)
        assert min(samples) <= p50 <= p99 <= max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                    min_size=1, max_size=100),
           st.floats(min_value=0, max_value=1))
    def test_percentile_membership(self, samples, fraction):
        assert percentile(samples, fraction) in samples


class TestZipfianProperties:
    @settings(max_examples=25)
    @given(
        n=st.integers(min_value=2, max_value=5000),
        theta=st.floats(min_value=0.1, max_value=0.99),
        seed=st.integers(min_value=0, max_value=1 << 30),
    )
    def test_outputs_in_range(self, n, theta, seed):
        gen = ZipfianGenerator(n, theta=theta, seed=seed)
        for _ in range(50):
            assert 0 <= gen.next() < n

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=5000),
        theta=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=1 << 30),
        scrambled=st.booleans(),
    )
    def test_cached_zeta_yields_the_uncached_key_stream(self, n, theta, seed, scrambled):
        """The memoized zeta sum is bit-identical to computing it afresh."""

        class UncachedZipfian(ZipfianGenerator):
            @staticmethod
            def _zeta(n, theta):
                return sum(1.0 / (i ** theta) for i in range(1, n + 1))

        ZipfianGenerator(n, theta=theta, seed=0)  # warm the cache
        cached = ZipfianGenerator(n, theta=theta, seed=seed, scrambled=scrambled)
        reference = UncachedZipfian(n, theta=theta, seed=seed, scrambled=scrambled)
        assert cached._zetan == reference._zetan
        assert [cached.next() for _ in range(200)] == [
            reference.next() for _ in range(200)
        ]


class TestMemoryRegionProperties:
    @settings(max_examples=40)
    @given(
        offset=st.integers(min_value=0, max_value=4000),
        data=st.binary(min_size=1, max_size=96),
    )
    def test_write_read_round_trip(self, offset, data):
        region = MemoryRegion(base_addr=0x1000, length=4096, lkey=1, rkey=2)
        if offset + len(data) > 4096:
            return
        region.write(0x1000 + offset, data)
        assert region.read(0x1000 + offset, len(data)) == data

    @settings(max_examples=40)
    @given(
        first=st.binary(min_size=1, max_size=64),
        second=st.binary(min_size=1, max_size=64),
    )
    def test_disjoint_writes_do_not_interfere(self, first, second):
        region = MemoryRegion(base_addr=0, length=1024, lkey=1, rkey=2)
        region.write(0, first)
        region.write(512, second)
        assert region.read(0, len(first)) == first
        assert region.read(512, len(second)) == second


class _ScanPollGroup:
    """Reference: the full-scan poll group, decoding every registered id
    on every check and returning hits in registration order."""

    def __init__(self) -> None:
        self._pending: dict[int, int] = {}

    def add(self, request_id: int) -> None:
        _type, _region, seq = decode_request_id(request_id)
        self._pending[request_id] = seq

    def remove(self, request_id: int) -> None:
        self._pending.pop(request_id, None)

    def __len__(self) -> int:
        return len(self._pending)

    def completed(self, red: RedBlock) -> list[int]:
        done = []
        for request_id, seq in self._pending.items():
            rw_type, _region, _seq = decode_request_id(request_id)
            progress = red.read_progress if rw_type is RwType.READ else red.write_progress
            if progress >= seq:
                done.append(request_id)
        return done


#: One poll-group step: (action, type, region, sequence, pick).  Listing
#: an action twice doubles how often it is drawn.
_poll_group_steps = st.lists(
    st.tuples(
        st.sampled_from([
            "add", "add", "add",  # any sequence order, as select() allows
            "add-again", "add-again",  # re-register a registered id
            "remove",
            "re-add",  # register a removed id again
            "progress-read", "progress-write",  # advance independently
            "poll",  # poll_wait: take the [:max_ret] prefix, deregister it
        ]),
        st.sampled_from([RwType.READ, RwType.WRITE]),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=60,
)


class TestPollGroupEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_poll_group_steps)
    def test_matches_full_scan(self, steps):
        group, reference = PollGroup(1), _ScanPollGroup()
        red = RedBlock()
        registered: list[int] = []
        removed: list[int] = []

        def remove(request_id):
            group.remove(request_id)
            reference.remove(request_id)
            if request_id in registered:
                registered.remove(request_id)
                removed.append(request_id)

        def add(request_id):
            group.add(request_id)
            reference.add(request_id)
            if request_id not in registered:
                registered.append(request_id)
            if request_id in removed:
                removed.remove(request_id)

        for action, rw_type, region, seq, pick in steps:
            if action == "add":
                add(encode_request_id(rw_type, region, seq))
            elif action == "add-again" and registered:
                add(registered[pick % len(registered)])
            elif action == "remove" and registered:
                remove(registered[pick % len(registered)])
            elif action == "re-add" and removed:
                add(removed[pick % len(removed)])
            elif action == "progress-read":
                red.read_progress += pick % 5
            elif action == "progress-write":
                red.write_progress += pick % 5
            elif action == "poll":
                max_ret = 1 + pick % 6
                expected = reference.completed(red)[:max_ret]
                assert group.completed(red)[:max_ret] == expected
                for request_id in expected:
                    remove(request_id)
            assert group.completed(red) == reference.completed(red)
            assert len(group) == len(reference)

    def test_out_of_order_registration_keeps_registration_order(self):
        group = PollGroup(1)
        ids = [
            encode_request_id(RwType.WRITE, 0, 3),
            encode_request_id(RwType.READ, 1, 2),
            encode_request_id(RwType.WRITE, 0, 1),
            encode_request_id(RwType.READ, 0, 1),
        ]
        for request_id in ids:
            group.add(request_id)
        assert group.completed(RedBlock(read_progress=2, write_progress=1)) == ids[1:]
        assert group.completed(RedBlock(read_progress=1, write_progress=3)) == [
            ids[0], ids[2], ids[3],
        ]
        group.add(ids[0])  # registering a registered id keeps its place
        assert group.completed(RedBlock(read_progress=2, write_progress=3)) == ids
        group.remove(ids[1])
        group.add(ids[1])  # a removed and re-added id moves to the back
        assert group.completed(RedBlock(read_progress=2, write_progress=3)) == [
            ids[0], ids[2], ids[3], ids[1],
        ]
        assert len(group) == 4
