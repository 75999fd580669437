"""The requester window both engines share: PSN allocation, matching,
cumulative-ACK retirement and the timeout check.

Every case runs twice, once with the RNIC's work-request entries and
once with the P4 switch's operations, so the PSN-wrap and cumulative-ACK
properties hold for both requesters by construction.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cowbird.p4_engine import _EngineOp
from repro.rdma.packets import PSN_MODULUS, psn_add
from repro.rdma.qp import QueuePair, WorkRequest, WorkType, _Outstanding
from repro.rdma.window import HALF_PSN_SPACE, RequesterWindow


def rnic_entry(num_psns, read_bytes=0):
    work_type = WorkType.READ if read_bytes else WorkType.WRITE
    wr = WorkRequest(work_type, 0, 0, 0, read_bytes or num_psns * 1024, 1)
    return _Outstanding(num_psns=num_psns, missing=read_bytes, wr=wr)


def p4_entry(num_psns, read_bytes=0):
    kind = "read_fetch" if read_bytes else "pool_write"
    return _EngineOp(num_psns=num_psns, missing=read_bytes, kind=kind)


ENTRY_KINDS = pytest.mark.parametrize("entry", [rnic_entry, p4_entry], ids=["rnic", "p4"])


def opened(window, entries):
    for entry in entries:
        window.open(entry)
    return entries


@ENTRY_KINDS
class TestAllocationAndMatch:
    def test_psns_are_consecutive_across_the_wrap(self, entry):
        window = RequesterWindow(PSN_MODULUS - 2)
        a, b, c = opened(window, [entry(1), entry(3), entry(2)])
        assert [op.first_psn for op in (a, b, c)] == [PSN_MODULUS - 2, PSN_MODULUS - 1, 2]
        assert b.last_psn == 1  # the range crosses the wrap
        assert window.send_psn == 4
        assert list(window.outstanding) == [a, b, c]

    def test_find_covers_every_psn_of_an_op(self, entry):
        window = RequesterWindow(PSN_MODULUS - 1)
        first, train = opened(window, [entry(1, read_bytes=64), entry(3)])
        assert window.find(PSN_MODULUS - 1) is first
        for offset in range(3):
            assert window.find(psn_add(train.first_psn, offset)) is train
        assert window.find(psn_add(train.first_psn, 3)) is None
        assert window.find(PSN_MODULUS - 2) is None

    def test_a_full_window_refuses_more(self, entry):
        window = RequesterWindow(capacity=2)
        opened(window, [entry(1), entry(1)])
        with pytest.raises(RuntimeError, match="window full"):
            window.open(entry(1))
        assert window.send_psn == 2


@ENTRY_KINDS
class TestCumulativeAck:
    """An ACK of PSN p retires the ops that end at or before p, in PSN
    order, also when their ranges cross the 24-bit wrap; a read whose
    data is not all in stops the sweep."""

    def test_writes_retire_across_the_wrap(self, entry):
        window = RequesterWindow(PSN_MODULUS - 2)
        head, train, red, later = opened(
            window, [entry(1), entry(3), entry(1), entry(2)]
        )
        assert window.retire_through(PSN_MODULUS - 3) == []  # before them all
        assert window.retire_through(PSN_MODULUS - 2) == [head]
        assert window.retire_through(0) == []  # mid-train: not covered
        assert window.retire_through(2) == [train, red]
        assert window.retire_through(4) == [later]
        assert not window.outstanding

    def test_a_read_without_its_data_holds_back_later_writes(self, entry):
        window = RequesterWindow(PSN_MODULUS - 1)
        read, write, read2 = opened(
            window, [entry(1, read_bytes=64), entry(2), entry(1, read_bytes=100)]
        )
        assert window.retire_through(2) == []
        read.missing = 0  # its response arrived
        assert window.retire_through(2) == [read, write]
        assert list(window.outstanding) == [read2]
        read2.missing -= 100
        assert window.retire_through(read2.last_psn) == [read2]

    def test_an_ack_half_the_space_back_covers_nothing(self, entry):
        window = RequesterWindow(5)
        (op,) = opened(window, [entry(1)])
        assert window.retire_through((5 - HALF_PSN_SPACE) % PSN_MODULUS) == []
        assert window.retire_through(5) == [op]


@ENTRY_KINDS
def test_expired_counts_from_the_oldest_send(entry):
    window = RequesterWindow()
    assert not window.expired(1e9, 100.0)
    old, new = opened(window, [entry(1), entry(1)])
    old.issued_at, new.issued_at = 50.0, 120.0
    assert not window.expired(149.0, 100.0)
    assert window.expired(150.0, 100.0)
    window.retire_through(old.last_psn)
    assert not window.expired(150.0, 100.0)


@settings(max_examples=200, deadline=None)
@given(
    start=st.one_of(
        st.integers(min_value=PSN_MODULUS - 40, max_value=PSN_MODULUS - 1),
        st.integers(min_value=0, max_value=PSN_MODULUS - 1),
    ),
    ops=st.lists(
        st.tuples(st.integers(1, 4), st.booleans(), st.booleans()),
        min_size=1, max_size=12,
    ),
    ack=st.integers(min_value=-2, max_value=50),
    make=st.sampled_from([rnic_entry, p4_entry]),
)
def test_retirement_is_the_covered_prefix(start, ops, ack, make):
    """``retire_through`` retires exactly the longest prefix of ops that
    end at or before the acknowledged PSN and hold no missing read data."""
    window = RequesterWindow(start)
    entries = opened(window, [
        make(size, read_bytes=64 if is_read else 0) for size, is_read, _ in ops
    ])
    for op, (_size, is_read, data_in) in zip(entries, ops):
        if is_read and data_in:
            op.missing = 0
    psn = psn_add(start, ack) if ack >= 0 else (start + ack) % PSN_MODULUS
    expected = []
    for op in entries:
        end = (op.last_psn - start) % PSN_MODULUS
        acked = ack >= 0 and end <= ack
        if not acked or op.missing > 0:
            break
        expected.append(op)
    assert window.retire_through(psn) == expected
    assert list(window.outstanding) == entries[len(expected):]


def test_queue_pairs_start_their_window_at_the_connect_psn():
    from repro.testbed import Testbed

    bed = Testbed()
    a, b = bed.add_host("a"), bed.add_host("b")
    qp_a, _ = bed.connect_qps(a, b)
    assert isinstance(qp_a.window, RequesterWindow)
    assert qp_a.window.capacity == QueuePair.MAX_OUTSTANDING
    qp = a.nic.create_qp()
    qp.connect("b", 7, initial_psn=PSN_MODULUS - 1)
    assert qp.window.send_psn == PSN_MODULUS - 1
