"""ShardedPool: striping math, per-shard routing, and sharded failover.

A :class:`~repro.memory.pool.ShardedPool` stripes one logical region
over N ordinary pools (block striping, 4 KiB-aligned chunks) and owns a
region-id space spanning all shards.  The cowbird builders wire one
engine channel per pool node, and :class:`CowbirdBackend` routes each
request to the owning shard — so reads/writes land on the right host
and a spot failover recovers against every shard.
"""

import functools
import random

import pytest

from repro.cowbird.wire import RedBlock, RwType, decode_request_id
from repro.experiments.common import build_microbench
from repro.cowbird.spot_engine import CowbirdSpotEngine, SpotEngineConfig
from repro.memory.pool import MemoryPool, ShardedPool
from repro.sim.network import FaultInjector


class TestStripingMath:
    def test_shard_bytes_is_aligned_ceiling(self):
        pool = ShardedPool([MemoryPool("a"), MemoryPool("b"), MemoryPool("c")])
        handle = pool.allocate_region(10_000)
        # ceil(10000 / 3) = 3334, rounded up to the 4096 stripe align.
        assert handle.shard_bytes == 4096
        assert handle.length == 3 * 4096
        assert len(handle.shards) == 3
        assert handle.nodes == ("a", "b", "c")

    def test_locate_maps_offsets_to_owning_shard(self):
        pool = ShardedPool([MemoryPool("a"), MemoryPool("b")])
        handle = pool.allocate_region(8192)
        shard0, local0 = handle.locate(100, 16)
        shard1, local1 = handle.locate(4096 + 7, 16)
        assert shard0.node == "a" and local0 == 100
        assert shard1.node == "b" and local1 == 7
        assert handle.shard_index(4095) == 0
        assert handle.shard_index(4096) == 1

    def test_locate_rejects_boundary_crossing_and_oob(self):
        pool = ShardedPool([MemoryPool("a"), MemoryPool("b")])
        handle = pool.allocate_region(8192)
        with pytest.raises(ValueError):
            handle.locate(4090, 16)  # crosses the shard boundary
        with pytest.raises(ValueError):
            handle.shard_index(handle.length)  # out of bounds
        with pytest.raises(ValueError):
            handle.locate(-1)

    def test_region_ids_unique_across_shards(self):
        pool = ShardedPool([MemoryPool("a"), MemoryPool("b")])
        first = pool.allocate_region(4096)
        second = pool.allocate_region(4096)
        ids = [*first.region_ids, *second.region_ids]
        assert len(ids) == len(set(ids))
        assert ids == [0, 1, 2, 3]

    def test_resolution_back_to_backing_regions(self):
        pools = [MemoryPool("a"), MemoryPool("b")]
        sharded = ShardedPool(pools)
        handle = sharded.allocate_region(8192, name="data")
        for i, shard in enumerate(handle.shards):
            assert sharded.pool_for(shard) is pools[i]
            region = sharded.region_for(shard)
            assert region.rkey == shard.rkey
            assert region.length == handle.shard_bytes
        assert sharded.allocated_bytes == 2 * 4096
        with pytest.raises(KeyError):
            sharded.pool_for(MemoryPool("zzz").allocate_region(64))

    def test_single_shard_degenerates_gracefully(self):
        sharded = ShardedPool([MemoryPool("solo")])
        handle = sharded.allocate_region(100)
        assert handle.shard_bytes == 4096
        assert handle.locate(50)[0].node == "solo"
        with pytest.raises(ValueError):
            ShardedPool([])


def _drive_backend(deployment, reads, writes, record=256, deadline=100e9):
    """Issue reads+writes through backend 0; return completed tokens."""
    backend = deployment.backends[0]
    thread = deployment.compute.cpu.thread("sharded-worker")
    completed = []

    def app():
        for offset, length in reads:
            yield from backend.issue_read(thread, offset, length)
        for offset, data in writes:
            yield from backend.issue_write(thread, offset, data)
        want = len(reads) + len(writes)
        while len(completed) < want:
            tokens = yield from backend.poll_completions(
                thread, max_ret=64, block=True
            )
            completed.extend(tokens)

    sim = deployment.sim
    sim.run_until_complete(sim.spawn(app()), deadline=deadline)
    return completed


class TestShardedDeployment:
    def test_builder_stripes_over_n_pool_hosts(self):
        deployment = build_microbench(
            "cowbird", 1, remote_bytes=1 << 16, pool_shards=2
        )
        assert sorted(deployment.pool_hosts) == ["pool0", "pool1"]
        assert deployment.pool.num_shards == 2
        sharded = deployment.backends[0].sharded
        assert sharded is not None
        assert sharded.nodes == ("pool0", "pool1")
        # Engine wired one channel/QP set per pool node.
        instance = deployment.backends[0].instance
        assert {h.node for h in instance.remote_regions.values()} == {
            "pool0", "pool1",
        }
        deployment.close()

    def test_reads_and_writes_route_to_owning_shard(self):
        deployment = build_microbench(
            "cowbird", 1, remote_bytes=1 << 16, pool_shards=2
        )
        sharded_handle = deployment.backends[0].sharded
        shard_bytes = sharded_handle.shard_bytes
        pool = deployment.pool
        # Seed one record in each shard (pool-side write, engine reads).
        for i, shard in enumerate(sharded_handle.shards):
            region = pool.region_for(shard)
            region.write(shard.base_addr + 64, bytes([0xC0 + i]) * 32)
        reads = [(64, 32), (shard_bytes + 64, 32)]
        writes = [(128, b"\x01" * 32), (shard_bytes + 128, b"\x02" * 32)]
        completed = _drive_backend(deployment, reads, writes)
        assert len(completed) == 4
        # Each write landed on its own shard's backing region.
        for i, shard in enumerate(sharded_handle.shards):
            region = pool.region_for(shard)
            assert region.read(shard.base_addr + 128, 32) == bytes([i + 1]) * 32
        deployment.close()

    def test_spot_failover_against_two_shard_pool(self):
        """Reclaim the agent mid-workload; the replacement recovers the
        instance against both shards and the suffix completes."""
        deployment = build_microbench(
            "cowbird", 1, remote_bytes=1 << 16, pool_shards=2
        )
        backend = deployment.backends[0]
        instance = backend.instance
        sharded_handle = backend.sharded
        shard_bytes = sharded_handle.shard_bytes
        bed = deployment.bed
        thread = deployment.compute.cpu.thread("failover-worker")
        offsets = [i * 64 for i in range(8)] + [
            shard_bytes + i * 64 for i in range(8)
        ]

        def app():
            done = 0
            for offset in offsets[:8]:
                yield from backend.issue_write(thread, offset, b"A" * 16)
            while done < 8:
                tokens = yield from backend.poll_completions(
                    thread, max_ret=32, block=True
                )
                done += len(tokens)
            # --- reclamation ---
            deployment.engine.stop()
            for offset in offsets[8:]:
                yield from backend.issue_write(thread, offset, b"B" * 16)
            yield from thread.sleep(50_000)
            replacement = bed.add_host("spot-agent-2", cpu_cores=1, smt=2)
            engine = CowbirdSpotEngine(replacement, SpotEngineConfig())
            engine.register_instance(
                instance, deployment.pool_hosts, recover=True
            )
            engine.start()
            deployment.engine = engine  # so close() stops the live one
            while done < 16:
                tokens = yield from backend.poll_completions(
                    thread, max_ret=32, block=True
                )
                done += len(tokens)

        sim = deployment.sim
        sim.run_until_complete(sim.spawn(app()), deadline=300e9)
        # First batch landed on shard 0, post-failover batch on shard 1.
        shard0, shard1 = sharded_handle.shards
        region0 = deployment.pool.region_for(shard0)
        region1 = deployment.pool.region_for(shard1)
        for i in range(8):
            assert region0.read(shard0.base_addr + i * 64, 16) == b"A" * 16
            assert region1.read(shard1.base_addr + i * 64, 16) == b"B" * 16
        deployment.close()

    def test_sharding_rejected_for_non_cowbird_systems(self):
        with pytest.raises(ValueError, match="does not support sharded"):
            build_microbench("one-sided", 1, pool_shards=2)


RECORD = 64


def _record(index):
    return index.to_bytes(8, "little") * (RECORD // 8)


class _CheckedReader:
    """Random record reads through one backend, checked as they happen:
    the response slot of every read the backend frees
    (``poll_release``) must hold the read's own record, and a red block
    landing at the client may cover (``read_progress``) only reads whose
    bytes are already in their response slots."""

    def __init__(self, backend, records, rng):
        self.backend = backend
        self.instance = instance = backend.instance
        self.records = records
        self.rng = rng
        self.expected = {}  # request id -> record index, until fetched
        self.unconsumed = {}  # read sequence -> record index, until fetched
        self.mismatches = []
        self.early = []
        #: Red-block updates the engine emitted with ``read_progress``
        #: past a read it had not completed (counted for P4 only).
        self.published_past_incomplete = 0
        self._poll_release = instance.poll_release
        instance.poll_release = self._checked_release
        red_addr = instance.bookkeeping.red_addr
        instance.region.watch(red_addr, red_addr + RedBlock.SIZE, self._on_write)

    def _checked_release(self, poll_id, done_ids):
        instance = self.instance
        for request_id in done_ids:
            sequence = decode_request_id(request_id)[2]
            entry = instance._reads[sequence]
            data = instance.region.read(entry.addr, entry.length)
            if data != _record(self.expected.pop(request_id)):
                self.mismatches.append(request_id)
            del self.unconsumed[sequence]
        self._poll_release(poll_id, done_ids)

    def _on_write(self, addr, length):
        """A write touched the red block."""
        instance = self.instance
        red_addr = instance.bookkeeping.red_addr
        red = RedBlock.unpack(instance.region.read(red_addr, RedBlock.SIZE))
        for sequence, index in self.unconsumed.items():
            if sequence > red.read_progress:
                continue
            entry = instance._reads[sequence]
            if instance.region.read(entry.addr, RECORD) != _record(index):
                self.early.append(sequence)

    def run(self, thread, reads, outstanding):
        backend = self.backend
        issued = done = 0
        while done < reads:
            while issued < reads and backend.outstanding() < outstanding:
                index = self.rng.randrange(self.records)
                request_id = yield from backend.issue_read(
                    thread, index * RECORD, RECORD
                )
                self.expected[request_id] = index
                self.unconsumed[decode_request_id(request_id)[2]] = index
                issued += 1
            tokens = yield from backend.poll_completions(
                thread, max_ret=64, block=True
            )
            done += len(tokens)


def _count_early_p4_publications(engine, readers):
    """Count, per reader, red-block updates the P4 engine emits with
    ``read_progress`` at or past a read whose write-back it has not yet
    seen acknowledged.  Such an update lands after the engine emits it,
    so a client-side check would miss reads completed in between.  The
    engine publishes, and emits an update, with each completion, which
    marks the request completed first; a replayed update carries the red
    block as last published."""
    by_instance = {r.instance.instance_id: r for r in readers}
    completed = {instance_id: set() for instance_id in by_instance}
    first_incomplete = dict.fromkeys(by_instance, 1)

    def checked_publish(state, publish):
        instance_id = state.descriptor.instance_id
        done = completed[instance_id]
        for app_op in state.in_order:
            if app_op.completed and app_op.metadata.rw_type is RwType.READ:
                done.add(app_op.sequence)
        publish()  # the engine emits the update next
        while first_incomplete[instance_id] in done:
            first_incomplete[instance_id] += 1
        if state.red.read_progress >= first_incomplete[instance_id]:
            by_instance[instance_id].published_past_incomplete += 1

    for state in engine._instances:
        state.publish = functools.partial(checked_publish, state, state.publish)


def _random_reads_check(system, shards, drop_rate=0.0, threads=4, reads=512,
                        outstanding=64, seed=5):
    """Fill every record with its own index, then run one checked reader
    per backend, every link dropping ``drop_rate`` of its packets; return
    the readers."""
    deployment = build_microbench(
        system, threads, remote_bytes=1 << 16, pool_shards=shards,
        fault_injector=FaultInjector(seed=seed, drop_rate=drop_rate),
    )
    sharded = deployment.backends[0].sharded
    records = sharded.length // RECORD
    for index in range(records):
        shard, local = sharded.locate(index * RECORD, RECORD)
        deployment.pool.region_for(shard).write(
            shard.base_addr + local, _record(index)
        )
    rng = random.Random(seed)
    readers = [
        _CheckedReader(backend, records, rng) for backend in deployment.backends
    ]
    if system == "cowbird-p4":
        _count_early_p4_publications(deployment.engine, readers)
    sim = deployment.sim
    processes = [
        sim.spawn(reader.run(deployment.compute.cpu.thread(f"reader-{i}"),
                             reads, outstanding))
        for i, reader in enumerate(readers)
    ]
    for process in processes:
        sim.run_until_complete(process, deadline=300e9)
    deployment.close()
    for reader in readers:
        assert not reader.expected, f"{len(reader.expected)} reads never fetched"
    return readers


def _read_check_cases():
    """Lossless cases keep the ``system-shards`` id; lossy ones end in
    ``-loss``."""
    cases = []
    for drop_rate, suffix in ((0.0, ""), (0.01, "-loss")):
        for system in ("cowbird", "cowbird-p4"):
            for shards in (2, 4):
                cases.append(pytest.param(
                    system, shards, drop_rate, id=f"{system}-{shards}{suffix}",
                ))
    return cases


@pytest.mark.parametrize("system, shards, drop_rate", _read_check_cases())
def test_every_read_returns_its_own_record(system, shards, drop_rate):
    """Reads served by different shards complete out of ring order; each
    must still land in its own response slot, and the red block may
    publish it only once it is complete, with every link lossless or
    dropping 1 % of its packets."""
    readers = _random_reads_check(system, shards, drop_rate)
    assert [r.mismatches for r in readers] == [[]] * len(readers)
    assert [r.early for r in readers] == [[]] * len(readers)
    assert [r.published_past_incomplete for r in readers] == [0] * len(readers)
