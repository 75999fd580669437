"""Tests for the lazily zeroed region backing (repro.memory.region).

The mapping-backed :class:`MemoryRegion` must behave exactly like the
``bytearray``-backed region it replaced; :class:`BytearrayRegion` below
keeps that old implementation as the reference.  Its ``defer`` writes
every page at once, which is what the region's deferred pages must look
like to every access, although reads leave them pending.
"""

import ctypes
import mmap
import os
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import region as region_mod
from repro.memory import (
    AccessError,
    BoundsError,
    MemoryPool,
    MemoryRegion,
    Permission,
    RegionRegistry,
)

BASE = 0x1000
RKEY = 2
PAGE = 4096


class BytearrayRegion:
    """The previous ``bytearray``-backed region, kept as the reference."""

    def __init__(self, base_addr, length, lkey, rkey, permissions=Permission.all(), name=""):
        self.base_addr = base_addr
        self.length = length
        self.lkey = lkey
        self.rkey = rkey
        self.permissions = permissions
        self.name = name
        self._data = bytearray(length)
        self._watched = []

    def watch(self, lo, hi, callback):
        self._watched.append((range(lo, hi), callback))

    @property
    def end_addr(self):
        return self.base_addr + self.length

    def contains(self, addr, length=1):
        return self.base_addr <= addr and addr + length <= self.end_addr

    def _check_bounds(self, addr, length):
        if length < 0:
            raise BoundsError(f"negative access length: {length}")
        if not self.contains(addr, length):
            raise BoundsError(
                f"access [{addr:#x}, {addr + length:#x}) outside region "
                f"{self.name!r} [{self.base_addr:#x}, {self.end_addr:#x})"
            )
        return addr - self.base_addr

    def read(self, addr, length):
        if Permission.LOCAL_READ not in self.permissions:
            raise AccessError(f"region {self.name!r} not locally readable")
        offset = self._check_bounds(addr, length)
        return bytes(self._data[offset : offset + length])

    def write(self, addr, data):
        if Permission.LOCAL_WRITE not in self.permissions:
            raise AccessError(f"region {self.name!r} not locally writable")
        offset = self._check_bounds(addr, len(data))
        self._data[offset : offset + len(data)] = data
        self._notify_write(addr, len(data))

    def remote_read(self, addr, length, rkey):
        if rkey != self.rkey:
            raise AccessError(
                f"bad rkey {rkey:#x} for region {self.name!r} (want {self.rkey:#x})"
            )
        if Permission.REMOTE_READ not in self.permissions:
            raise AccessError(f"region {self.name!r} not remotely readable")
        offset = self._check_bounds(addr, length)
        return bytes(self._data[offset : offset + length])

    def remote_write(self, addr, data, rkey):
        if rkey != self.rkey:
            raise AccessError(
                f"bad rkey {rkey:#x} for region {self.name!r} (want {self.rkey:#x})"
            )
        if Permission.REMOTE_WRITE not in self.permissions:
            raise AccessError(f"region {self.name!r} not remotely writable")
        offset = self._check_bounds(addr, len(data))
        self._data[offset : offset + len(data)] = data
        self._notify_write(addr, len(data))

    def defer(self, addr, page_bytes, count, fill):
        if Permission.LOCAL_WRITE not in self.permissions:
            raise AccessError(f"region {self.name!r} not locally writable")
        if page_bytes <= 0 or count < 0:
            raise ValueError(f"bad deferred span: {count} pages of {page_bytes} B")
        offset = self._check_bounds(addr, page_bytes * count)
        if not count:
            return
        end = addr + page_bytes * count
        if any(watched.start < end and addr < watched.stop for watched, _ in self._watched):
            raise ValueError(f"deferred span [{addr:#x}, {end:#x}) overlaps a watch")
        for i in range(count):
            start = offset + i * page_bytes
            self._data[start : start + page_bytes] = fill(i, 0, page_bytes)

    def _notify_write(self, addr, length):
        # Byte by byte: a write is reported to each range holding any
        # byte it wrote.
        for watched, callback in self._watched:
            if any(byte in watched for byte in range(addr, addr + length)):
                callback(addr, length)


def as_kind(payload, kind):
    if kind == "bytes":
        return payload
    if kind == "bytearray":
        return bytearray(payload)
    # A view into the middle of a larger buffer, as packets hand out.
    return memoryview(b"\xee\xee" + payload + b"\xee")[2 : 2 + len(payload)]


def filler(tag, page_bytes, calls):
    """``fill`` for a deferred span: page ``i`` holds up to ``page_bytes``
    nonzero bytes, their count and value set by ``tag`` and ``i``, then
    zeros.  Each call is recorded in ``calls`` as ``(span, i, start,
    stop)``, ``span`` unique to this span."""
    span = object()

    def fill(i, start, stop):
        calls.append((span, i, start, stop))
        page = bytes([(tag + i) % 251 + 1]) * ((tag * 7 + i * 3) % (page_bytes + 1))
        return page.ljust(page_bytes, b"\0")[start:stop]

    return fill


def outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # compared, not swallowed
        return ("err", type(exc), str(exc))


permission_sets = st.sets(st.sampled_from(list(Permission))).map(
    lambda members: Permission(sum(m.value for m in members))
)


def edge_offsets(length):
    """Offsets into a region of ``length`` bytes, clustered at both edges
    so out-of-bounds accesses are common."""
    return st.one_of(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=length - 8, max_value=length + 8),
        st.integers(min_value=0, max_value=length),
    )


def access_ops(offsets):
    """Reads and writes, local and remote, at ``offsets``."""
    payloads = st.tuples(
        st.binary(max_size=80), st.sampled_from(["bytes", "bytearray", "memoryview"])
    )
    rkeys = st.sampled_from([RKEY, RKEY, 0x99])
    return st.one_of(
        st.tuples(st.just("write"), offsets, payloads),
        st.tuples(st.just("read"), offsets, st.integers(min_value=-2, max_value=80)),
        st.tuples(st.just("remote_write"), offsets, payloads, rkeys),
        st.tuples(
            st.just("remote_read"), offsets, st.integers(min_value=-2, max_value=80), rkeys
        ),
    )


@st.composite
def scenarios(draw):
    length = draw(st.integers(min_value=1, max_value=3 * PAGE + 100))
    offsets = edge_offsets(length)
    permissions = draw(st.one_of(st.just(Permission.all()), permission_sets))
    # Watched ranges as (start offset, length); they may reach past
    # either edge of the region.
    watched = draw(st.lists(
        st.tuples(offsets, st.integers(min_value=1, max_value=length)), max_size=3,
    ))
    return length, permissions, watched, draw(st.lists(access_ops(offsets), max_size=40))


@st.composite
def defer_scenarios(draw):
    """Like :func:`scenarios`, with ``defer`` ops on one page grid drawn
    per scenario (a region refuses a second grid while pages are
    pending).  Spans may reach past either edge of the region; regions
    are small and watches short, so that spans and accesses overlap each
    other often and watches seldom."""
    length = draw(st.integers(min_value=1, max_value=400))
    page_bytes = draw(st.integers(min_value=1, max_value=64))
    phase = draw(st.integers(min_value=0, max_value=page_bytes - 1))
    pages = st.integers(min_value=-1, max_value=length // page_bytes + 1)
    defer = st.tuples(
        st.just("defer"), pages.map(lambda n: n * page_bytes + phase),
        st.just(page_bytes), st.integers(-1, 4), st.integers(0, 255),
    )
    # Accesses start at the region's edges or near a page boundary.
    offsets = edge_offsets(length) | st.builds(
        lambda n, delta: n * page_bytes + phase + delta, pages, st.integers(-8, 8),
    )
    permissions = draw(st.sampled_from([Permission.all()] * 3) | permission_sets)
    watched = draw(st.lists(
        st.tuples(offsets, st.integers(min_value=1, max_value=8)), max_size=2,
    ))
    ops = draw(st.lists(
        st.one_of(defer, defer, access_ops(offsets)), min_size=8, max_size=40,
    ))
    return length, permissions, watched, ops


def apply(region, op, calls=None):
    kind, offset = op[0], op[1]
    addr = BASE + offset
    if kind == "defer":
        page_bytes, count, tag = op[2], op[3], op[4]
        fill = filler(tag, page_bytes, [] if calls is None else calls)
        return outcome(lambda: region.defer(addr, page_bytes, count, fill))
    if kind == "write":
        payload, payload_kind = op[2]
        return outcome(lambda: region.write(addr, as_kind(payload, payload_kind)))
    if kind == "read":
        return outcome(lambda: region.read(addr, op[2]))
    if kind == "remote_write":
        (payload, payload_kind), rkey = op[2], op[3]
        return outcome(
            lambda: region.remote_write(addr, as_kind(payload, payload_kind), rkey)
        )
    return outcome(lambda: region.remote_read(addr, op[2], op[3]))


class TestMatchesBytearrayReference:
    @pytest.mark.parametrize(
        "flags", [region_mod.MAP_FLAGS, None], ids=["default-flags", "no-map-private"]
    )
    @settings(max_examples=80, deadline=None)
    @given(scenario=scenarios())
    def test_same_results_and_exceptions(self, flags, scenario):
        length, permissions, watched, ops = scenario
        with mock.patch.object(region_mod, "MAP_FLAGS", flags):
            region = MemoryRegion(BASE, length, 1, RKEY, permissions, name="r")
        reference = BytearrayRegion(BASE, length, 1, RKEY, permissions, name="r")
        seen, want = [], []
        # The whole region, then the drawn sub-ranges; each watcher
        # reports which range it watches.
        for index, (start, size) in enumerate([(0, length)] + watched):
            lo, hi = BASE + start, BASE + start + size
            region.watch(lo, hi, lambda a, n, i=index: seen.append((i, a, n)))
            reference.watch(lo, hi, lambda a, n, i=index: want.append((i, a, n)))
        for op in ops:
            got, expected = apply(region, op), apply(reference, op)
            assert got == expected, op
            if got[0] == "ok" and got[1] is not None:
                assert type(got[1]) is bytes
        assert seen == want
        assert region._data[:] == bytes(reference._data)

    @settings(max_examples=150, deadline=None)
    @given(scenario=defer_scenarios())
    def test_deferred_pages_read_as_written_at_once(self, scenario):
        """The reference writes deferred pages at once; the region must
        look the same to every access and change its mapping only on
        writes.  Only drawn sub-ranges are watched: a span may not be
        deferred over a watch."""
        length, permissions, watched, ops = scenario
        region = MemoryRegion(BASE, length, 1, RKEY, permissions, name="r")
        reference = BytearrayRegion(BASE, length, 1, RKEY, permissions, name="r")
        seen, want, calls = [], [], []
        for index, (start, size) in enumerate(watched):
            lo, hi = BASE + start, BASE + start + size
            region.watch(lo, hi, lambda a, n, i=index: seen.append((i, a, n)))
            reference.watch(lo, hi, lambda a, n, i=index: want.append((i, a, n)))
        for op in ops:
            before = region._data[:]
            got, expected = apply(region, op, calls), apply(reference, op)
            assert got == expected, op
            if op[0] in ("read", "remote_read"):
                assert region._data[:] == before, "a read wrote the mapping"
        assert seen == want
        assert region._read_through(BASE, length) == bytes(reference._data)

    @pytest.mark.parametrize(
        "flags", [region_mod.MAP_FLAGS, None], ids=["default-flags", "no-map-private"]
    )
    def test_fresh_region_reads_zero_and_round_trips(self, flags):
        with mock.patch.object(region_mod, "MAP_FLAGS", flags):
            region = MemoryRegion(BASE, 2 * PAGE, 1, RKEY)
        assert region.read(BASE, 2 * PAGE) == bytes(2 * PAGE)
        region.write(BASE + PAGE - 2, memoryview(b"span"))
        assert region.remote_read(BASE + PAGE - 2, 4, RKEY) == b"span"
        with pytest.raises(BoundsError):
            region.write(BASE + 2 * PAGE - 1, b"xy")
        with pytest.raises(BoundsError):
            region.read(BASE - 1, 1)


class TestWatch:
    def test_empty_range_rejected(self):
        region = MemoryRegion(BASE, PAGE, 1, RKEY)
        with pytest.raises(ValueError):
            region.watch(BASE + 8, BASE + 8, lambda a, n: None)

    def test_only_overlapping_writes_call(self):
        region = MemoryRegion(BASE, PAGE, 1, RKEY)
        seen = []
        region.watch(BASE + 64, BASE + 104, lambda a, n: seen.append((a, n)))
        region.write(BASE, b"x" * 64)  # ends where the range starts
        region.remote_write(BASE + 104, b"y", RKEY)  # starts where it ends
        region.write(BASE + 100, b"")  # empty: overlaps nothing
        region.remote_write(BASE + 60, b"z" * 8, RKEY)
        region.write(BASE + 103, b"w")
        assert seen == [(BASE + 60, 8), (BASE + 103, 1)]


class TestDefer:
    """Pages handed over by ``defer`` are read in place and written into
    the mapping only by a write that changes part of them."""

    def deferred(self, pages=3, page_bytes=64):
        """A region with ``pages`` pending pages at ``BASE + 128``; returns
        it and the ``(i, start, stop)`` of every fill call."""
        region = MemoryRegion(BASE, PAGE, 1, RKEY, name="r")
        calls = []

        def fill(i, start, stop):
            calls.append((i, start, stop))
            return self.page(i, page_bytes)[start:stop]

        region.defer(BASE + 128, page_bytes, pages, fill)
        return region, calls

    @staticmethod
    def page(i, page_bytes=64):
        return bytes([i + 1]) * (page_bytes - 8) + bytes(8)

    def test_nothing_is_filled_until_touched(self):
        region, calls = self.deferred()
        assert region.read(BASE, 128) == bytes(128)  # ends where page 0 starts
        region.write(BASE + 128 + 3 * 64, b"after")  # starts where page 2 ends
        assert region.read(BASE + 130, 0) == b""  # empty: overlaps nothing
        assert calls == []

    def test_read_across_a_page_boundary_reads_both_pages_in_place(self):
        region, calls = self.deferred()
        assert region.remote_read(BASE + 128 + 60, 10, RKEY) == (
            self.page(0)[60:] + self.page(1)[:6]
        )
        assert calls == [(0, 60, 64), (1, 0, 6)]
        assert region.read(BASE + 120, 3 * 64 + 16) == (
            bytes(8) + self.page(0) + self.page(1) + self.page(2) + bytes(8)
        )
        assert calls[2:] == [(0, 0, 64), (1, 0, 64), (2, 0, 64)]
        assert len(region._deferred) == 3
        assert region._data[128 : 128 + 3 * 64] == bytes(3 * 64)

    def test_partial_write_fills_the_page_first(self):
        region, calls = self.deferred()
        region.write(BASE + 128 + 70, b"xy")  # inside page 1
        region.remote_write(BASE + 128 + 2 * 64 - 1, b"zz", RKEY)  # pages 1 and 2
        assert calls == [(1, 0, 64), (2, 0, 64)]
        region.write(BASE + 128 + 1, b"q" * 63)  # all of page 0 but its first byte
        assert calls[2:] == [(0, 0, 64)]
        want = bytearray(self.page(0) + self.page(1) + self.page(2))
        want[70:72] = b"xy"
        want[127:129] = b"zz"
        want[1:64] = b"q" * 63
        assert region.read(BASE + 128, 3 * 64) == bytes(want)
        assert len(calls) == 3 and not region._deferred

    def test_write_short_of_a_page_end_fills_it(self):
        region, calls = self.deferred()
        region.write(BASE + 128, b"q" * 63)  # all of page 0 but its last byte
        assert calls == [(0, 0, 64)]

    def test_write_covering_a_page_drops_it_unfilled(self):
        region, calls = self.deferred()
        region.write(BASE + 128 + 60, b"w" * 72)  # all of page 1, parts of 0 and 2
        assert calls == [(0, 0, 64), (2, 0, 64)]
        assert region.read(BASE + 128 + 56, 80) == bytes(4) + b"w" * 72 + self.page(2)[12:16]

    def test_later_defer_supersedes_pending_pages(self):
        region, calls = self.deferred()
        later = []

        def fill_later(i, start, stop):
            later.append((i, start, stop))
            return (bytes([0xA0 + i]) * 60 + bytes(4))[start:stop]

        region.defer(BASE + 128 + 64, 64, 1, fill_later)  # page 1 only
        assert region.read(BASE + 128, 3 * 64) == (
            self.page(0) + bytes([0xA0]) * 60 + bytes(4) + self.page(2)
        )
        assert calls == [(0, 0, 64), (2, 0, 64)] and later == [(0, 0, 64)]

    def test_defer_over_the_same_pages_drops_them(self):
        region, calls = self.deferred()
        region.defer(BASE + 128, 64, 3, lambda i, start, stop: b"n" * (stop - start))
        assert region.read(BASE + 128, 3 * 64) == b"n" * 3 * 64
        assert calls == []

    def test_another_grid_waits_until_no_page_is_pending(self):
        region, calls = self.deferred()
        with pytest.raises(ValueError, match="off the pending pages' grid"):
            region.defer(BASE + 128 + 64, 96, 1, lambda i, start, stop: b"")  # page size
        with pytest.raises(ValueError, match="off the pending pages' grid"):
            region.defer(BASE + 32, 64, 1, lambda i, start, stop: b"")  # phase
        region.read(BASE + 128, 3 * 64)  # reads leave the pages pending
        with pytest.raises(ValueError, match="off the pending pages' grid"):
            region.defer(BASE + 32, 96, 2, lambda i, start, stop: b"g" * (stop - start))
        region.write(BASE + 128, bytes(64))  # drops page 0
        region.write(BASE + 128 + 65, b"x")  # writes page 1 into the mapping
        region.write(BASE + 128 + 2 * 64, bytes(64))  # drops page 2
        region.defer(BASE + 32, 96, 2, lambda i, start, stop: b"g" * (stop - start))
        assert region.read(BASE + 128, 64) == b"g" * 64
        assert region.read(BASE + 224, 4) == self.page(1)[32:36]  # written, not dropped
        assert calls[-1] == (1, 0, 64)

    def test_a_fill_that_raises_leaves_its_page_pending(self):
        region = MemoryRegion(BASE, PAGE, 1, RKEY, name="r")
        attempts = []

        def fill(i, start, stop):
            attempts.append(i)
            if len(attempts) == 1:
                raise RuntimeError("not yet")
            return b"f" * (stop - start)

        region.defer(BASE, 64, 2, fill)
        with pytest.raises(RuntimeError, match="not yet"):
            region.write(BASE + 1, b"x")
        assert region._data[:64] == bytes(64) and len(region._deferred) == 2
        region.write(BASE + 1, b"x")
        assert region.read(BASE, 128) == b"f" + b"x" + b"f" * 126
        assert attempts == [0, 0, 1] and sorted(region._deferred) == [BASE // 64 + 1]

    def test_close_drops_pending_pages(self):
        region, calls = self.deferred()
        region.close()
        assert calls == [] and not region._deferred
        with pytest.raises(AccessError, match="closed"):
            region.read(BASE + 128, 1)
        with pytest.raises(AccessError, match="closed"):
            region.defer(BASE, 64, 1, lambda i, start, stop: b"")

    def test_accesses_make_no_call_once_every_page_is_filled(self):
        region, calls = self.deferred()
        for i in range(3):
            region.write(BASE + 128 + i * 64 + 3, b"w")
        assert (region._defer_lo, region._defer_hi) == (0, 0)
        with mock.patch.object(MemoryRegion, "_settle", side_effect=AssertionError), \
                mock.patch.object(MemoryRegion, "_read_through", side_effect=AssertionError):
            region.read(BASE + 128, 64)
            region.remote_write(BASE + 128, b"x", RKEY)

    def test_bad_spans_are_rejected(self):
        region = MemoryRegion(BASE, PAGE, 1, RKEY, name="r")
        region.watch(BASE + 8, BASE + 16, lambda a, n: None)
        with pytest.raises(ValueError, match="overlaps a watch"):
            region.defer(BASE, 64, 1, lambda i, start, stop: b"")
        with pytest.raises(BoundsError):
            region.defer(BASE + PAGE - 64, 64, 2, lambda i, start, stop: b"")
        with pytest.raises(ValueError, match="bad deferred span"):
            region.defer(BASE + 64, 0, 1, lambda i, start, stop: b"")
        region.defer(BASE + 64, 64, 1, lambda i, start, stop: b"x" * (stop - start + 1))
        with pytest.raises(ValueError, match=r"gave 2 B for its bytes \[0, 1\)"):
            region.read(BASE + 64, 1)
        with pytest.raises(ValueError, match=r"gave 65 B for its bytes \[0, 64\)"):
            region.write(BASE + 65, b"y")
        readonly = MemoryRegion(BASE, PAGE, 1, RKEY, Permission.LOCAL_READ, name="r")
        with pytest.raises(AccessError, match="not locally writable"):
            readonly.defer(BASE, 64, 1, lambda i, start, stop: b"")


class TestPermissions:
    def test_permissions_readable_but_not_assignable(self):
        region = MemoryRegion(BASE, 64, 1, RKEY, Permission.REMOTE_READ)
        assert region.permissions == Permission.REMOTE_READ
        with pytest.raises(AttributeError):
            region.permissions = Permission.all()

    @pytest.mark.parametrize("member", list(Permission))
    def test_each_bit_gates_only_its_access(self, member):
        region = MemoryRegion(BASE, 64, 1, RKEY, Permission.all() & ~member, name="r")
        accesses = {
            Permission.LOCAL_READ: lambda: region.read(BASE, 1),
            Permission.LOCAL_WRITE: lambda: region.write(BASE, b"x"),
            Permission.REMOTE_READ: lambda: region.remote_read(BASE, 1, RKEY),
            Permission.REMOTE_WRITE: lambda: region.remote_write(BASE, b"x", RKEY),
        }
        for bit, access in accesses.items():
            if bit is member:
                with pytest.raises(AccessError, match="'r' not"):
                    access()
            else:
                access()


def resident_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm for RSS"
)
def test_untouched_pages_cost_no_host_memory():
    gib = 1 << 30
    before = resident_bytes()
    region = RegionRegistry().register(gib, name="huge")
    addrs = [region.base_addr + i * (gib // 16) + 123 for i in range(16)]
    for i, addr in enumerate(addrs):
        region.write(addr, bytes([i + 1]) * 8)
    for i, addr in enumerate(addrs):
        assert region.read(addr, 8) == bytes([i + 1]) * 8
        # Reading an untouched page maps the zero page, not fresh memory.
        assert region.read(addr + PAGE, 8) == bytes(8)
    assert region.read(region.end_addr - 8, 8) == bytes(8)
    assert resident_bytes() - before < 8 << 20
    region.close()


def overcommit_mode():
    try:
        with open("/proc/sys/vm/overcommit_memory") as handle:
            return handle.read().strip()
    except OSError:
        return None


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not os.path.exists("/proc/self/statm"),
    reason="MAP_NORESERVE is passed on Linux only",
)
@pytest.mark.skipif(
    overcommit_mode() == "2", reason="strict overcommit ignores MAP_NORESERVE"
)
def test_a_region_larger_than_ram_maps_and_costs_only_its_written_pages():
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    before = resident_bytes()
    region = MemoryRegion(BASE, 2 * ram, 1, RKEY, name="huge")
    ends = (BASE, region.end_addr - PAGE)
    for i, addr in enumerate(ends):
        region.write(addr, bytes([i + 1]) * PAGE)
    for i, addr in enumerate(ends):
        assert region.read(addr, PAGE) == bytes([i + 1]) * PAGE
    assert resident_bytes() - before < 8 << 20
    region.close()


def smaps_vmflags(addr):
    """The VmFlags of the mapping holding ``addr`` in /proc/self/smaps."""
    inside = False
    with open("/proc/self/smaps") as handle:
        for line in handle:
            head = line.split()[0]
            if "-" in head and ":" not in head:
                start, end = (int(part, 16) for part in head.split("-"))
                inside = start <= addr < end
            elif inside and head == "VmFlags:":
                return line.split()[1:]
    raise LookupError(f"no mapping holds {addr:#x}")


@pytest.mark.skipif(
    not (hasattr(mmap, "MADV_NOHUGEPAGE") and os.path.exists("/proc/self/smaps")),
    reason="needs MADV_NOHUGEPAGE and /proc/self/smaps",
)
def test_mapping_opts_out_of_transparent_hugepages():
    # Under THP "always" a write would otherwise fault in 2 MiB, not 4 KiB.
    region = MemoryRegion(BASE, 4 << 20, 1, RKEY)
    view = ctypes.c_char.from_buffer(region._data)
    addr = ctypes.addressof(view)
    del view
    assert "nh" in smaps_vmflags(addr)
    region.close()


class TestClose:
    def test_access_after_close_names_the_region(self):
        region = MemoryRegion(BASE, 64, 1, RKEY, name="gone")
        region.write(BASE, b"data")
        region.close()
        for access in (
            lambda: region.read(BASE, 4),
            lambda: region.write(BASE, b"x"),
            lambda: region.remote_read(BASE, 4, RKEY),
            lambda: region.remote_write(BASE, b"x", RKEY),
        ):
            with pytest.raises(AccessError, match="region 'gone' is closed"):
                access()

    def test_second_close_is_harmless(self):
        region = MemoryRegion(BASE, 64, 1, RKEY)
        region.close()
        region.close()
        assert region.permissions == Permission.all()

    def test_deregister_closes_the_region(self):
        registry = RegionRegistry()
        region = registry.register(64, name="mr")
        registry.deregister(region)
        with pytest.raises(AccessError, match="closed"):
            region.read(region.base_addr, 1)
        with pytest.raises(ValueError):
            registry.deregister(region)

    def test_release_region_closes_pool_backing(self):
        pool = MemoryPool("pool")
        handle = pool.allocate_region(4096)
        region = pool.region_for(handle)
        pool.release_region(handle)
        with pytest.raises(AccessError, match="closed"):
            region.remote_read(handle.base_addr, 1, handle.rkey)


class TestByAddr:
    def test_lookup_after_deregistering_middle_region(self):
        registry = RegionRegistry()
        first, middle, last = (registry.register(100) for _ in range(3))
        registry.deregister(middle)
        assert registry.by_addr(first.base_addr) is first
        assert registry.by_addr(first.end_addr - 1) is first
        assert registry.by_addr(last.base_addr + 50, 50) is last
        for addr, length in ((middle.base_addr, 1), (first.end_addr - 1, 2)):
            with pytest.raises(BoundsError):
                registry.by_addr(addr, length)
        late = registry.register(100)
        assert registry.by_addr(late.base_addr) is late
        assert list(registry) == [first, last, late]

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(
            st.tuples(st.integers(1, 200), st.sampled_from([1, 8, 64])),
            min_size=1,
            max_size=8,
        ),
        removed=st.sets(st.integers(0, 7)),
        queries=st.lists(
            st.tuples(st.integers(-4, 2000), st.integers(-2, 64)), max_size=30
        ),
    )
    def test_matches_scan_in_address_order(self, sizes, removed, queries):
        registry = RegionRegistry(base_addr=0)
        regions = [registry.register(n, alignment=a) for n, a in sizes]
        for index in sorted(removed):
            if index < len(regions):
                registry.deregister(regions[index])
        live = list(registry)
        for addr, length in queries:
            want = next((r for r in live if r.contains(addr, length)), None)
            if want is None:
                with pytest.raises(BoundsError):
                    registry.by_addr(addr, length)
            else:
                assert registry.by_addr(addr, length) is want
