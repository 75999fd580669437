"""Cowbird-Spot: the harvested-CPU offload engine (Section 6).

Where Cowbird-P4 recycles raw packets in a switch pipeline, Cowbird-Spot
is an event-driven agent on a general-purpose processor — a spot VM, a
SmartNIC ARM core, or the management CPU of a harvested-memory VM.  The
protocol is the same four phases; the differences the paper calls out
are implemented here:

* the agent can *parse* request metadata and run a real **overlap
  check**, pausing reads only when they truly conflict with an
  in-flight write (Cowbird-P4 must pause all reads);
* the agent can **stage and batch**: it accumulates ``BATCH_SIZE`` read
  results in local memory and ships them to the compute node with a
  single RDMA write (Phase III step 2a), cutting message counts and
  compute-node RNIC load — disable batching (``batch_size=1``) to get
  the paper's "Cowbird (batching disabled)" line;
* the agent's resource use is capped at **one CPU core** (Section 8.4):
  the agent host is built with a single-core CPU and all agent work is
  charged to threads on it.

The agent's fast path uses doorbell batching (WQE lists) and batched
CQE reaping, so per-request CPU cost is a few nanoseconds while the
~300 ns verb-call overhead amortizes across each batch.
"""

from __future__ import annotations

import bisect
import dataclasses
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.cowbird.api import CowbirdInstance, InstanceDescriptor
from repro.cowbird.buffers import MetadataRing
from repro.cowbird.engine_core import RequestCore
from repro.cowbird.wire import GreenBlock, RedBlock, RequestMetadata, RwType
from repro.rdma.qp import CompletionQueue, CompletionStatus, WorkRequest, WorkType
from repro.sim.network import PRIORITY_HIGH
from repro.sim.engine import Future

__all__ = ["CowbirdSpotEngine", "SpotEngineConfig"]

#: CPU-accounting tag for agent work (it is all communication offload).
TAG_ENGINE = "engine"

#: Work-request kinds that feed the pipeline (probe and metadata reads).
_DISCOVERY_KINDS = ("probe", "meta")
#: What ``_wr_ops`` yields for a work request it does not track.
_UNTRACKED = (None, None)
_SUCCESS = CompletionStatus.SUCCESS


@dataclass
class SpotEngineConfig:
    """Agent tunables."""

    #: Read responses staged before one RDMA write back (BATCH_SIZE).
    batch_size: int = 100
    #: Byte cap on a staged batch: large records flush earlier so
    #: batching never multiplies their latency.
    batch_max_bytes: int = 32 << 10
    #: Idle polling interval between probe rounds.
    poll_interval_ns: float = 2_000.0
    #: Agent-side staging memory for green blocks, metadata, and batches.
    staging_bytes: int = 16 << 20
    #: Maximum WQEs chained into one doorbell-batched post.
    max_post_batch: int = 128


@dataclass
class SpotEngineStats:
    probe_rounds: int = 0
    metadata_fetches: int = 0
    requests_parsed: int = 0
    reads_executed: int = 0
    writes_executed: int = 0
    batches_flushed: int = 0
    batch_entries_total: int = 0
    rdma_calls: int = 0
    overlap_stalls: int = 0
    #: Client requests whose work request completed with an error status
    #: (the NIC gave up on it): a read or write fetch, a pool write, or
    #: each read of a batch write.  Failed probes, metadata fetches and
    #: red-block updates carry no request and are not counted.
    ops_failed: int = 0

    def mean_batch_size(self) -> float:
        if self.batches_flushed == 0:
            return 0.0
        return self.batch_entries_total / self.batches_flushed


@dataclass(slots=True, eq=False)
class _SpotOp:
    """One application request moving through the agent.

    The first two fields lead, so that ``partial(_SpotOp, instance,
    parsed_at)`` is the ``make`` that :meth:`RequestCore.parse` calls
    with the rest; ops compare by identity.
    """

    instance: "_SpotInstance"
    #: Sim time the agent parsed this request (span begin for telemetry).
    parsed_at: float
    metadata: RequestMetadata
    sequence: int
    ring_index: int
    staging_addr: int = 0
    completed: bool = False


class _SpotInstance(RequestCore):
    """The request core of one client instance plus the agent's QPs,
    staging slots and read batch for it."""

    def __init__(self, descriptor: InstanceDescriptor, qp_compute, qp_compute_data,
                 qp_pools: dict, green_staging: int, meta_staging: int,
                 red: Optional[RedBlock] = None) -> None:
        super().__init__(descriptor, red)
        #: Control QP (probes + metadata reads, high priority class).
        self.qp_compute = qp_compute
        #: Data QP (payload fetches, batch flushes, red updates).  Control
        #: and data ride separate QPs because they use different network
        #: priorities — within one QP, priority reordering would corrupt
        #: the PSN sequence and trigger NAK storms.
        self.qp_compute_data = qp_compute_data
        self.qp_pools = qp_pools
        self.green_staging = green_staging
        self.meta_staging = meta_staging
        #: Writes whose pool write has not completed (for the overlap check).
        self.active_writes: list[_SpotOp] = []
        #: Reads waiting behind an overlapping write.
        self.stalled_reads: deque[_SpotOp] = deque()
        #: Staged reads bound for one contiguous run of response slots.
        self.batch: list[_SpotOp] = []
        self.batch_bytes = 0
        #: Read fetches posted to the pool but not yet completed.
        self.outstanding_read_fetches = 0
        self.probe_inflight = False
        self.meta_fetch_inflight = False
        #: Sim time the current batch opened (span begin for telemetry).
        self.batch_opened_at = 0.0


class CowbirdSpotEngine:
    """The event-driven agent process on the spot VM."""

    def __init__(self, agent_host, config: Optional[SpotEngineConfig] = None) -> None:
        self.host = agent_host
        self.sim = agent_host.sim
        self.cost = agent_host.verbs.cost
        self.config = config or SpotEngineConfig()
        self.stats = SpotEngineStats()
        tel = self.sim.telemetry
        self._tel = tel
        tel.expose("spot", self.stats)
        self._tel_request_ns = tel.histogram("spot.request_latency_ns")
        self._tel_batch_bytes = tel.histogram("spot.batch_bytes")
        self.cq = CompletionQueue(capacity=1 << 16)
        self.staging = agent_host.registry.register(
            self.config.staging_bytes, name="spot-staging"
        )
        self._staging_cursor = 0
        self._free_ranges: list[tuple[int, int]] = []
        self._instances: list[_SpotInstance] = []
        self._wr_ops: dict[int, tuple[str, object]] = {}
        self._running = False
        self._work_signal: Optional[Future] = None
        self._transient_base = 0
        self._threads: list = []

    # ------------------------------------------------------------------
    # Phase I: setup
    # ------------------------------------------------------------------
    def register_instance(
        self, instance: CowbirdInstance, pool_hosts: dict,
        recover: bool = False,
    ) -> None:
        """Install one client instance (Phase I).

        With ``recover=True`` the engine adopts a *running* instance
        previously served by another (reclaimed) agent: all cursors are
        reconstructed from the client's red block.  This works because
        the protocol publishes exactly enough state to resume —

        * ``request_meta_head`` = first entry not yet completed (the
          head only advances over the completed FIFO prefix),
        * ``read_progress``/``write_progress`` = per-type sequence
          counters at that head,
        * ``request_data_head``/``response_data_tail`` = the data-ring
          cursors at that head —

        and every Cowbird operation is idempotent to re-execute (reads
        are replayable; write payloads stay in the request data ring
        until their head advances).  Spot VMs can be reclaimed at any
        time (Section 2.2); this is the recovery story that makes a
        spot-hosted engine safe.
        """
        descriptor = instance.descriptor()
        compute_host = instance.host
        qp_agent_c = self.host.nic.create_qp(self.cq)
        qp_compute = compute_host.nic.create_qp()
        qp_agent_c.connect(compute_host.name, qp_compute.qpn)
        qp_compute.connect(self.host.name, qp_agent_c.qpn)
        qp_agent_d = self.host.nic.create_qp(self.cq)
        qp_compute_d = compute_host.nic.create_qp()
        qp_agent_d.connect(compute_host.name, qp_compute_d.qpn)
        qp_compute_d.connect(self.host.name, qp_agent_d.qpn)
        qp_pools = {}
        for pool_node in sorted({h.node for h in descriptor.remote_regions.values()}):
            pool_host = pool_hosts[pool_node]
            qp_agent_p = self.host.nic.create_qp(self.cq)
            qp_pool = pool_host.nic.create_qp()
            qp_agent_p.connect(pool_node, qp_pool.qpn)
            qp_pool.connect(self.host.name, qp_agent_p.qpn)
            qp_pools[pool_node] = qp_agent_p
        red = None
        if recover:
            # Control-plane read of the client's red block (one RDMA
            # read in a real deployment) rebuilds the engine cursors.
            red = RedBlock.unpack(
                instance.region.read(descriptor.bookkeeping_addr + 64, RedBlock.SIZE)
            )
        self._instances.append(_SpotInstance(
            descriptor,
            qp_compute=qp_agent_c,
            qp_compute_data=qp_agent_d,
            qp_pools=qp_pools,
            green_staging=self._alloc_staging(GreenBlock.SIZE),
            meta_staging=self._alloc_staging(
                descriptor.metadata_capacity * MetadataRing.ENTRY_BYTES
            ),
            red=red,
        ))

    def _alloc_staging(self, length: int) -> int:
        aligned = (length + 63) & ~63
        if self._staging_cursor + aligned > self.staging.length:
            raise MemoryError("agent staging memory exhausted")
        addr = self.staging.base_addr + self._staging_cursor
        self._staging_cursor += aligned
        return addr

    def _batch_staging(self, length: int) -> int:
        """Allocate transient staging for one payload (first fit).

        Slots are freed only when the RDMA operation that reads them is
        *acknowledged* — the NIC re-reads the buffer on Go-Back-N
        retransmission, so recycling any earlier would corrupt recovered
        transfers under packet loss.
        """
        aligned = (length + 63) & ~63
        for index, (offset, size) in enumerate(self._free_ranges):
            if size >= aligned:
                if size == aligned:
                    del self._free_ranges[index]
                else:
                    self._free_ranges[index] = (offset + aligned, size - aligned)
                return self.staging.base_addr + offset
        raise MemoryError(
            "agent staging exhausted: too many unacknowledged transfers"
        )

    def _free_staging(self, addr: int, length: int) -> None:
        """Return a transient slot; coalesce with free neighbours.

        The free list stays sorted with no two ranges touching, so the
        slot can merge only with the ranges just before and after it.
        """
        aligned = (length + 63) & ~63
        offset = addr - self.staging.base_addr
        end = offset + aligned
        ranges = self._free_ranges
        index = bisect.bisect_right(ranges, (offset, aligned))
        if index < len(ranges) and ranges[index][0] == end:
            end += ranges[index][1]
            del ranges[index]
        if index and ranges[index - 1][0] + ranges[index - 1][1] == offset:
            start = ranges[index - 1][0]
            ranges[index - 1] = (start, end - start)
        else:
            ranges.insert(index, (offset, end - offset))

    def start(self) -> None:
        """Spawn the agent's prober and completer loops (one core)."""
        if self._running:
            raise RuntimeError("engine already started")
        if not self._instances:
            raise RuntimeError("no instances registered")
        self._running = True
        self._transient_base = self._staging_cursor
        self._free_ranges = [
            (self._transient_base, self.staging.length - self._transient_base)
        ]
        prober = self.host.cpu.thread("spot-prober")
        completer = self.host.cpu.thread("spot-completer")
        self._threads = [prober, completer]
        self.sim.spawn(self._probe_loop(prober), name="spot-probe-loop")
        self.sim.spawn(self._completion_loop(completer), name="spot-completion-loop")

    def stop(self) -> None:
        self._running = False
        if self._work_signal is not None and not self._work_signal.done:
            self._work_signal.resolve(None)

    def stats_snapshot(self) -> dict:
        """Flat engine counters (the OffloadEngine protocol view)."""
        return dataclasses.asdict(self.stats)

    def agent_cpu_ns(self) -> float:
        """Total agent CPU time consumed (Section 8.4 resource usage)."""
        return sum(t.stats.cpu_ns.get(TAG_ENGINE, 0.0) for t in self._threads)

    # ------------------------------------------------------------------
    # Phase II: probing — pipelined across instances
    # ------------------------------------------------------------------
    def _probe_loop(self, thread):
        """Phase II: fire probes on a timer; completions drive the rest.

        The prober never waits for round trips — it batch-posts a green
        read per instance (skipping instances with a probe or metadata
        fetch already outstanding) and sleeps one probe interval.  The
        completion loop parses probe responses and escalates.
        """
        while self._running:
            self.stats.probe_rounds += 1
            posts = []
            for state in self._instances:
                if state.probe_inflight:
                    continue
                state.probe_inflight = True
                # Control traffic rides a higher class so discovery
                # latency is independent of bulk data bursts.
                wr = WorkRequest(
                    WorkType.READ, state.green_staging,
                    state.descriptor.bookkeeping_addr, state.descriptor.rkey,
                    GreenBlock.SIZE, priority=PRIORITY_HIGH,
                )
                self._wr_ops[wr.wr_id] = ("probe", state)
                posts.append((state.qp_compute, wr))
            yield from self._post_batched(thread, posts)
            yield from thread.sleep(self.config.poll_interval_ns)

    # ------------------------------------------------------------------
    # Phase III: fetch metadata, parse, execute
    # ------------------------------------------------------------------
    def _build_meta_fetch(self, state: _SpotInstance):
        """Build the WR that fetches one instance's next metadata run."""
        start, end, addr, length = state.next_fetch()
        state.meta_fetch_inflight = True
        self.stats.metadata_fetches += 1
        wr = WorkRequest(
            WorkType.READ, state.meta_staging, addr, state.descriptor.rkey, length,
            priority=PRIORITY_HIGH,
        )
        self._wr_ops[wr.wr_id] = ("meta", (state, (start, end)))
        return (state.qp_compute, wr)

    def _parse_and_dispatch(self, thread, state: _SpotInstance, span):
        start, end = span
        # Parse entries (the agent, unlike the switch, can do this);
        # per-entry parse cost is charged in one lump per fetch.
        yield from thread.compute(
            self.cost.engine_parse_request * (end - start), TAG_ENGINE
        )
        now = self.sim.now
        payload = self.staging.read(
            state.meta_staging, (end - start) * MetadataRing.ENTRY_BYTES
        )
        ops = state.parse(payload, start, end, partial(_SpotOp, state, now))
        self.stats.requests_parsed += len(ops)
        return self._dispatch_posts(state, ops)

    def _overlaps_active_write(self, state: _SpotInstance, metadata: RequestMetadata) -> bool:
        """The per-range consistency check Cowbird-P4 cannot do."""
        lo, hi = metadata.req_addr, metadata.req_addr + metadata.length
        for write_op in state.active_writes:
            w = write_op.metadata
            if w.region_id != metadata.region_id:
                continue
            w_lo, w_hi = w.resp_addr, w.resp_addr + w.length
            if lo < w_hi and w_lo < hi:
                return True
        return False

    def _dispatch_posts(self, state: _SpotInstance, ops: list[_SpotOp]):
        """Build fetch WRs for new ops (posted by the caller in bulk)."""
        to_post: list[tuple[object, WorkRequest]] = []
        for op in ops:
            metadata = op.metadata
            if metadata.rw_type is RwType.READ:
                if state.stalled_reads or (
                    state.active_writes and self._overlaps_active_write(state, metadata)
                ):
                    # Reads execute in order: once one stalls, later
                    # reads queue behind it (Section 6).
                    self.stats.overlap_stalls += 1
                    state.stalled_reads.append(op)
                    continue
                to_post.append(self._build_read_fetch(state, op))
            else:
                state.active_writes.append(op)
                to_post.append(self._build_write_fetch(state, op))
        return to_post

    def _build_read_fetch(self, state: _SpotInstance, op: _SpotOp):
        state.outstanding_read_fetches += 1
        op.staging_addr = self._batch_staging(op.metadata.length)
        handle = state.descriptor.remote_regions[op.metadata.region_id]
        wr = WorkRequest(
            WorkType.READ, op.staging_addr, op.metadata.req_addr, handle.rkey,
            op.metadata.length,
        )
        self._wr_ops[wr.wr_id] = ("read_fetch", op)
        return (state.qp_pools[handle.node], wr)

    def _build_write_fetch(self, state: _SpotInstance, op: _SpotOp):
        op.staging_addr = self._batch_staging(op.metadata.length)
        wr = WorkRequest(
            WorkType.READ, op.staging_addr, op.metadata.req_addr,
            state.descriptor.rkey, op.metadata.length,
        )
        self._wr_ops[wr.wr_id] = ("write_fetch", op)
        return (state.qp_compute_data, wr)

    def _post_batched(self, thread, posts):
        """Doorbell batching: one call overhead, a few ns per WQE."""
        if not posts:
            return
        for chunk_start in range(0, len(posts), self.config.max_post_batch):
            chunk = posts[chunk_start : chunk_start + self.config.max_post_batch]
            yield from thread.compute(
                self.cost.engine_rdma_call
                + self.cost.engine_wqe_batched * len(chunk),
                TAG_ENGINE,
            )
            self.stats.rdma_calls += 1
            for qp, wr in chunk:
                self.host.nic.post(qp, wr)

    # ------------------------------------------------------------------
    # Completions: stage, batch, write back, bookkeeping
    # ------------------------------------------------------------------
    def _completion_loop(self, thread):
        wr_ops = self._wr_ops
        while self._running:
            completions = self.cq.poll(256)
            if not completions:
                signal = self.sim.future()
                self.cq.notify_next_push(signal)
                yield from thread.wait(signal)
                continue
            # Handle discovery (probe/meta) completions first: they feed
            # the pipeline, and delaying them stretches every instance's
            # probe cadence.  Each group keeps its completion order.
            discovery: list[tuple] = []
            entries: list[tuple] = []
            for completion in completions:
                entry = wr_ops.pop(completion.wr_id, _UNTRACKED)
                if completion.status is not _SUCCESS:
                    self._on_failed(*entry)
                elif entry[0] in _DISCOVERY_KINDS:
                    discovery.append(entry)
                else:
                    entries.append(entry)
            if discovery:
                entries[:0] = discovery
            follow_up: list[tuple[object, WorkRequest]] = []
            yield from thread.compute(
                self.cost.engine_cqe_batched * len(completions), TAG_ENGINE
            )
            for kind, payload in entries:
                if kind == "probe":
                    state = payload
                    state.probe_inflight = False
                    raw = self.staging.read(state.green_staging, GreenBlock.SIZE)
                    state.see_tail(GreenBlock.unpack(raw).request_meta_tail)
                    if state.has_unparsed() and not state.meta_fetch_inflight:
                        follow_up.append(self._build_meta_fetch(state))
                elif kind == "meta":
                    state, span = payload
                    state.meta_fetch_inflight = False
                    new_posts = yield from self._parse_and_dispatch(
                        thread, state, span
                    )
                    follow_up.extend(new_posts)
                    # Chain the next fetch immediately if the tail has
                    # already moved past what we just parsed — discovery
                    # bandwidth must not be probe-gated under load.
                    if state.has_unparsed():
                        follow_up.append(self._build_meta_fetch(state))
                elif kind == "read_fetch":
                    posts = yield from self._on_read_fetched(thread, payload)
                    follow_up.extend(posts)
                elif kind == "write_fetch":
                    follow_up.append(self._build_pool_write(payload))
                elif kind == "pool_write":
                    op = payload
                    self._free_staging(op.staging_addr, op.metadata.length)
                    follow_up.extend(self._on_write_done(op))
                elif kind == "batch_flush":
                    self._free_batch(payload)
                elif kind == "red_update":
                    state_and_slot = payload
                    self._free_staging(state_and_slot[1], RedBlock.SIZE)
            # Idle flush: no more pool responses coming for an instance
            # means a partial batch must not wait for more traffic.
            for state in self._instances:
                if state.batch and state.outstanding_read_fetches == 0:
                    follow_up.extend((yield from self._flush_batch(thread, state)))
            yield from self._post_batched(thread, follow_up)

    def _on_failed(self, kind, payload) -> None:
        """A work request completed with an error: release what it held,
        count the client requests it carried, but deliver nothing.  A
        failed read's staging bytes were never written, so they never
        reach the client; the request stays incomplete, and publication
        stops in front of it."""
        if kind == "probe":
            payload.probe_inflight = False
        elif kind == "meta":
            # Parsing restarts where it stood: the next probe refetches.
            payload[0].meta_fetch_inflight = False
        elif kind == "read_fetch":
            self.stats.ops_failed += 1
            payload.instance.outstanding_read_fetches -= 1
            self._free_staging(payload.staging_addr, payload.metadata.length)
        elif kind in ("write_fetch", "pool_write"):
            self.stats.ops_failed += 1
            self._free_staging(payload.staging_addr, payload.metadata.length)
        elif kind == "batch_flush":
            self.stats.ops_failed += len(payload[3])  # its member reads
            self._free_batch(payload)
        elif kind == "red_update":
            self._free_staging(payload[1], RedBlock.SIZE)

    def _free_batch(self, payload) -> None:
        """A batch write is done: its gather buffer and every member's
        staged payload may now be recycled."""
        _state, gather_addr, total, members = payload
        self._free_staging(gather_addr, total)
        for member_addr, member_len in members:
            self._free_staging(member_addr, member_len)

    def _build_pool_write(self, op: _SpotOp):
        state = op.instance
        handle = state.descriptor.remote_regions[op.metadata.region_id]
        wr = WorkRequest(
            WorkType.WRITE, op.staging_addr, op.metadata.resp_addr, handle.rkey,
            op.metadata.length,
        )
        self._wr_ops[wr.wr_id] = ("pool_write", op)
        return (state.qp_pools[handle.node], wr)

    def _on_read_fetched(self, thread, op: _SpotOp):
        """Stage a read result; flush the batch when full (step 2a).

        The client reserved each read's response slot when it issued
        the read and put its address in ``resp_addr``.  A batch is a run
        of adjacent slots, so a read whose slot does not extend the run
        (a ring wrap, or a read answered out of ring order by another
        pool host) ships the batch first.
        """
        state = op.instance
        state.outstanding_read_fetches -= 1
        self.stats.reads_executed += 1
        if self._tel.enabled:
            self._tel_request_ns.observe(self.sim.now - op.parsed_at)
            self._tel.complete(
                "spot.read", op.parsed_at, self.sim.now,
                process=self.host.name, track="agent",
                bytes=op.metadata.length, sequence=op.sequence,
            )
        posts = []
        if state.batch:
            last = state.batch[-1].metadata
            if op.metadata.resp_addr != last.resp_addr + last.length:
                posts.extend((yield from self._flush_batch(thread, state)))
        if not state.batch:
            state.batch_opened_at = self.sim.now
        state.batch.append(op)
        state.batch_bytes += op.metadata.length
        if (len(state.batch) >= self.config.batch_size
                or state.batch_bytes >= self.config.batch_max_bytes):
            posts.extend((yield from self._flush_batch(thread, state)))
        return posts

    def _flush_batch(self, thread, state: _SpotInstance):
        """One RDMA write carries the whole batch to the compute node.

        Its reads are complete once the write is posted: the red update
        that publishes them follows it on the same QP, so it lands after
        their bytes.
        """
        batch, state.batch = state.batch, []
        total, state.batch_bytes = state.batch_bytes, 0
        # Gather staged payloads into one contiguous send buffer; the
        # batch's response slots are adjacent, so they concatenate.
        gather_addr = self._batch_staging(total)
        read = self.staging.read
        parts = []
        for op in batch:
            parts.append(read(op.staging_addr, op.metadata.length))
            op.completed = True
        self.staging.write(gather_addr, b"".join(parts))
        yield from thread.compute(
            self.cost.engine_batch_copy_per_byte * total, TAG_ENGINE
        )
        wr = WorkRequest(
            WorkType.WRITE, gather_addr, batch[0].metadata.resp_addr,
            state.descriptor.rkey, total,
        )
        self._wr_ops[wr.wr_id] = (
            "batch_flush",
            (state, gather_addr, total,
             [(op.staging_addr, op.metadata.length) for op in batch]),
        )
        self.stats.batches_flushed += 1
        self.stats.batch_entries_total += len(batch)
        if self._tel.enabled:
            self._tel_batch_bytes.observe(total)
            self._tel.complete(
                "spot.batch", state.batch_opened_at, self.sim.now,
                process=self.host.name, track="agent",
                entries=len(batch), bytes=total,
            )
        state.publish()
        return [(state.qp_compute_data, wr), self._build_red_update(state)]

    def _on_write_done(self, op: _SpotOp):
        """Phase IV for writes: progress counter + unstall reads."""
        state = op.instance
        op.completed = True
        self.stats.writes_executed += 1
        if self._tel.enabled:
            self._tel_request_ns.observe(self.sim.now - op.parsed_at)
            self._tel.complete(
                "spot.write", op.parsed_at, self.sim.now,
                process=self.host.name, track="agent",
                bytes=op.metadata.length, sequence=op.sequence,
            )
        state.active_writes.remove(op)
        state.publish()
        posts = [self._build_red_update(state)]
        # Unstall reads whose conflict cleared, preserving read order.
        while state.stalled_reads:
            head = state.stalled_reads[0]
            if self._overlaps_active_write(state, head.metadata):
                break
            state.stalled_reads.popleft()
            posts.append(self._build_read_fetch(state, head))
        return posts

    def _build_red_update(self, state: _SpotInstance):
        payload = state.red.pack()
        addr = self._batch_staging(len(payload))
        self.staging.write(addr, payload)
        wr = WorkRequest(
            WorkType.WRITE, addr, state.descriptor.bookkeeping_addr + 64,
            state.descriptor.rkey, len(payload),
        )
        self._wr_ops[wr.wr_id] = ("red_update", (state, addr))
        return (state.qp_compute_data, wr)
