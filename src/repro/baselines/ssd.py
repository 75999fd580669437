"""The SATA SSD storage model (FASTER's default backend, Figure 9).

Section 8's SSD baseline is a local SATA drive with 6 Gb/s interface
throughput.  The model captures what matters for the comparison:

* fixed access latency per I/O (flash read + controller + SATA),
* a bounded internal queue depth (NCQ) for parallelism,
* interface bandwidth as the large-transfer ceiling.

Remote memory beats this by ≥2.3× in the paper; Cowbird by 12–84×.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.baselines.backends import LedgerBackend
from repro.sim.cpu import TAG_COMM
from repro.sim.engine import Future, Simulator
from repro.sim.units import transmission_time_ns

__all__ = ["SsdBackend", "SsdConfig", "SsdDrive"]

@dataclass
class SsdConfig:
    """SATA SSD parameters (Section 8: 6 Gb/s SATA)."""

    bandwidth_gbps: float = 6.0
    access_latency_ns: float = 80_000.0
    queue_depth: int = 32
    #: Sustained random-I/O ceiling of the drive's controller/channels.
    max_iops: int = 100_000
    #: Minimum addressable unit; smaller I/Os still move one sector.
    sector_bytes: int = 512
    #: Host-side submission/completion cost per I/O (io_uring-ish).
    submit_ns: float = 600.0


@dataclass
class _SsdIo:
    future: Future
    size_bytes: int


class SsdDrive:
    """The device itself: a queue-depth-limited, bandwidth-capped server."""

    def __init__(self, sim: Simulator, config: Optional[SsdConfig] = None) -> None:
        self.sim = sim
        self.config = config or SsdConfig()
        self._inflight = 0
        self._waiting: deque[_SsdIo] = deque()
        #: The SATA interface serializes transfers.
        self._bus_free_at = 0.0
        #: Controller issue slots pace I/Os at the drive's IOPS ceiling.
        self._issue_free_at = 0.0
        self.ios_completed = 0
        self.bytes_transferred = 0

    def submit(self, size_bytes: int) -> Future:
        """Submit one I/O; the future resolves when it completes."""
        if size_bytes <= 0:
            raise ValueError(f"I/O size must be positive: {size_bytes}")
        io = _SsdIo(future=self.sim.future(), size_bytes=size_bytes)
        if self._inflight < self.config.queue_depth:
            self._start(io)
        else:
            self._waiting.append(io)
        return io.future

    def _start(self, io: _SsdIo) -> None:
        self._inflight += 1
        config = self.config
        sectors = max(1, -(-io.size_bytes // config.sector_bytes))
        transfer_bytes = sectors * config.sector_bytes
        transfer = transmission_time_ns(transfer_bytes, config.bandwidth_gbps)
        # Controller pacing: random I/Os issue at most at max_iops.
        issue_gap = 1e9 / config.max_iops if config.max_iops else 0.0
        issue_at = max(self.sim.now, self._issue_free_at)
        self._issue_free_at = issue_at + issue_gap
        # The bus is shared: transfers serialize after the flash access.
        ready_at = issue_at + config.access_latency_ns
        start = max(ready_at, self._bus_free_at)
        self._bus_free_at = start + transfer
        done_at = start + transfer
        self.sim.call_at(done_at, lambda: self._finish(io, transfer_bytes))

    def _finish(self, io: _SsdIo, transfer_bytes: int) -> None:
        self._inflight -= 1
        self.ios_completed += 1
        self.bytes_transferred += transfer_bytes
        io.future.resolve(None)
        if self._waiting and self._inflight < self.config.queue_depth:
            self._start(self._waiting.popleft())


class SsdBackend(LedgerBackend):
    """The drive exposed through the workload Backend interface."""

    name = "ssd"

    def __init__(self, compute_host, config: Optional[SsdConfig] = None,
                 pending_limit: int = 64) -> None:
        super().__init__()
        self.host = compute_host
        self.config = config or SsdConfig()
        self.drive = SsdDrive(compute_host.sim, self.config)
        self.pending_limit = pending_limit
        #: Backing store for verification (offset -> bytes).
        self._backing: dict[int, bytes] = {}

    def backing_write(self, offset: int, data: bytes) -> None:
        self._backing[offset] = bytes(data)

    def backing_read(self, offset: int, length: int) -> bytes:
        data = self._backing.get(offset, b"")
        return data[:length]

    def _submit(self, thread, size_bytes):
        yield from thread.compute(self.config.submit_ns, tag=TAG_COMM)
        token = self.ledger.issue(thread)
        issuer = thread.thread_id
        self.drive.submit(size_bytes).add_callback(
            lambda _future: self.ledger.complete(issuer, token)
        )
        return token

    def issue_read(self, thread, offset, length):
        return (yield from self._submit(thread, length))

    def issue_write(self, thread, offset, data):
        return (yield from self._submit(thread, len(data)))

    def poll_completions(self, thread, max_ret=64, block=False):
        yield from thread.compute(self.host.verbs.cost.cowbird_poll_empty,
                                  tag=TAG_COMM)
        return (yield from self.ledger.poll(thread, max_ret, block))
