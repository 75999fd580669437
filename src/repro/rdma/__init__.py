"""RDMA substrate: RoCEv2 wire format, queue pairs, verbs, and the RNIC.

This package implements the layer the paper builds on (and that
Cowbird-P4 spoofs): RDMA over Converged Ethernet v2.  Packets are real
byte sequences (Ethernet/IPv4/UDP/BTH/RETH/AETH, Section 5.1 Table 4),
queue pairs carry 24-bit PSN state with Go-Back-N recovery, and the
:class:`~repro.rdma.nic.RNIC` services one-sided READ/WRITE operations
against registered memory with MTU segmentation — including the
Read-Response First/Middle/Last sequence Cowbird-P4 converts into Write
First/Middle/Last packets.
"""

from repro.rdma.packets import (
    AddressBook,
    Opcode,
    RocePacket,
    SYNDROME_ACK,
    SYNDROME_NAK_PSN_ERROR,
    SYNDROME_NAK_REMOTE_ACCESS,
    psn_add,
    psn_distance,
)
from repro.rdma.qp import (
    Completion,
    CompletionQueue,
    CompletionStatus,
    QueuePair,
    WorkRequest,
    WorkType,
)
from repro.rdma.nic import RNIC, NicConfig
from repro.rdma.verbs import RdmaVerbs

__all__ = [
    "AddressBook",
    "Completion",
    "CompletionQueue",
    "CompletionStatus",
    "NicConfig",
    "Opcode",
    "QueuePair",
    "RNIC",
    "RdmaVerbs",
    "RocePacket",
    "SYNDROME_ACK",
    "SYNDROME_NAK_PSN_ERROR",
    "SYNDROME_NAK_REMOTE_ACCESS",
    "WorkRequest",
    "WorkType",
    "psn_add",
    "psn_distance",
]
