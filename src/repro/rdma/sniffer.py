"""Packet capture and protocol tracing.

A :class:`PacketSniffer` taps one or more RNICs (via their rx-hook
chain), recording every RoCEv2 packet with its timestamp.  Captures render as human-readable protocol traces — the
tool we used to validate the Cowbird-P4 recycling sequence — can be
filtered by opcode, QP, or time window, and export as JSONL or Chrome
``trace_event`` JSON (each packet an instant on its tap's track).

    sniffer = PacketSniffer(sim)
    sniffer.attach_nic(compute.nic)
    ... run ...
    print(sniffer.render())
    sniffer.to_chrome_trace("packets.json")
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Optional, Union

from repro.rdma.packets import Opcode, RocePacket
from repro.sim.engine import Simulator
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.spans import SpanEvent

__all__ = ["CapturedPacket", "PacketSniffer"]


@dataclass(frozen=True)
class CapturedPacket:
    """One observation of a packet at a tap point."""

    timestamp_ns: float
    tap: str
    src: str
    dst: str
    opcode: Opcode
    dest_qp: int
    psn: int
    payload_bytes: int
    size_bytes: int

    def describe(self) -> str:
        return (
            f"{self.timestamp_ns / 1000:10.3f}us  {self.tap:<10s} "
            f"{self.src:>10s} -> {self.dst:<10s} {self.opcode.name:<28s} "
            f"qp={self.dest_qp:<5d} psn={self.psn:<8d} "
            f"payload={self.payload_bytes}B"
        )


class PacketSniffer:
    """Records RoCEv2 packets from NIC tap points."""

    def __init__(self, sim: Simulator, max_packets: int = 100_000) -> None:
        self.sim = sim
        self.max_packets = max_packets
        self.packets: list[CapturedPacket] = []
        self.dropped_over_capacity = 0

    # ------------------------------------------------------------------
    # Tap points
    # ------------------------------------------------------------------
    def attach_nic(self, nic, tap_name: Optional[str] = None) -> None:
        """Record every packet delivered to ``nic``.

        Registers via :meth:`~repro.rdma.nic.RNIC.add_rx_hook`, so the
        tap *chains* with hooks installed before or after it.
        """
        name = tap_name or f"rx@{nic.node}"
        nic.add_rx_hook(lambda packet: self._record(name, packet))

    def _record(self, tap: str, packet: RocePacket) -> None:
        if len(self.packets) >= self.max_packets:
            self.dropped_over_capacity += 1
            return
        self.packets.append(
            CapturedPacket(
                timestamp_ns=self.sim.now,
                tap=tap,
                src=packet.src,
                dst=packet.dst,
                opcode=packet.opcode,
                dest_qp=packet.dest_qp,
                psn=packet.psn,
                payload_bytes=len(packet.payload),
                size_bytes=packet.size_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        opcode: Optional[Opcode] = None,
        dest_qp: Optional[int] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        since_ns: float = 0.0,
        until_ns: Optional[float] = None,
    ) -> list[CapturedPacket]:
        """Select captured packets by header fields and time window."""
        out = []
        for packet in self.packets:
            if opcode is not None and packet.opcode is not opcode:
                continue
            if dest_qp is not None and packet.dest_qp != dest_qp:
                continue
            if src is not None and packet.src != src:
                continue
            if dst is not None and packet.dst != dst:
                continue
            if packet.timestamp_ns < since_ns:
                continue
            if until_ns is not None and packet.timestamp_ns > until_ns:
                continue
            out.append(packet)
        return out

    def opcode_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for packet in self.packets:
            counts[packet.opcode.name] = counts.get(packet.opcode.name, 0) + 1
        return counts

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable trace (optionally the first ``limit`` lines)."""
        selected = self.packets[:limit] if limit else self.packets
        lines = [packet.describe() for packet in selected]
        if limit and len(self.packets) > limit:
            lines.append(f"... {len(self.packets) - limit} more packets")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write one JSON object per captured packet; returns the count."""
        def _write(handle: IO[str]) -> int:
            for packet in self.packets:
                record = asdict(packet)
                record["opcode"] = packet.opcode.name
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
            return len(self.packets)

        if isinstance(destination, str):
            with open(destination, "w") as handle:
                return _write(handle)
        return _write(destination)

    def to_chrome_trace(self, destination: Union[str, IO[str]]) -> int:
        """Write a Chrome ``trace_event`` JSON of the capture.

        Each packet becomes an instant event on ``<tap>`` process /
        ``<src>-><dst>`` track, so Perfetto shows per-tap packet
        timelines; returns the number of events written.
        """
        events = [
            SpanEvent(
                name=packet.opcode.name,
                begin_ns=packet.timestamp_ns,
                end_ns=packet.timestamp_ns,
                process=packet.tap,
                track=f"{packet.src}->{packet.dst}",
                attrs={
                    "dest_qp": packet.dest_qp,
                    "psn": packet.psn,
                    "payload_bytes": packet.payload_bytes,
                    "size_bytes": packet.size_bytes,
                },
            )
            for packet in self.packets
        ]
        write_chrome_trace(destination, events)
        return len(events)

    def __len__(self) -> int:
        return len(self.packets)
