"""Builders for all ten evaluation systems, registered by legend name.

Each function is a faithful transcription of one branch of the old
``build_microbench`` if/elif ladder — the construction *order* (hosts,
QPs, engines, regions) is part of the simulator's deterministic
contract, so builders must not reorder steps.  Registration order here
defines ``MICROBENCH_SYSTEMS``.

The cowbird builders additionally understand ``ctx.pool_shards > 1``:
the benchmark region is then striped over N pool hosts via
:class:`~repro.memory.pool.ShardedPool`, each shard registered as its
own remote region, with the engine wiring one channel per pool node
(both engines already speak per-node channels/QPs).
"""

from __future__ import annotations

from repro.baselines import (
    AifmBackend,
    AifmConfig,
    LocalMemoryBackend,
    OneSidedAsyncBackend,
    OneSidedSyncBackend,
    RedyBackend,
    RedyConfig,
    SsdBackend,
    TwoSidedSyncBackend,
)
from repro.baselines.backends import CowbirdBackend
from repro.cluster.registry import (
    BuildContext,
    MicrobenchDeployment,
    register_system,
)
from repro.cowbird.api import CowbirdClient
from repro.cowbird.p4_engine import CowbirdP4Engine, P4EngineConfig
from repro.cowbird.spot_engine import CowbirdSpotEngine, SpotEngineConfig
from repro.memory.pool import ShardedPool

__all__ = []  # systems are reached through the registry, not imports


def _setup_pool(ctx: BuildContext) -> MicrobenchDeployment:
    """One pool host serving the benchmark region (the common case)."""
    pool_host, pool = ctx.bed.add_pool("pool")
    region = pool.allocate_region(ctx.remote_bytes, name="bench-remote")
    return ctx.deployment(
        [], pool=pool, pool_hosts={pool.node: pool_host}, region=region
    )


@register_system("local")
def build_local(ctx: BuildContext) -> MicrobenchDeployment:
    return ctx.deployment([LocalMemoryBackend(ctx.cost) for _ in range(ctx.threads)])


@register_system("two-sided")
def build_two_sided(ctx: BuildContext) -> MicrobenchDeployment:
    dep = _setup_pool(ctx)
    pool_host = dep.pool_host
    # Two-sided RPC burns pool CPU: one busy-polling server thread per
    # connection (they spin, so each needs a core).
    from repro.sim.cpu import CPU

    pool_host.cpu = CPU(
        ctx.sim, physical_cores=max(2, ctx.threads), smt=1, cost_model=ctx.cost
    )
    for _ in range(ctx.threads):
        qp_c, qp_p = ctx.bed.connect_qps(ctx.compute, pool_host)
        dep.backends.append(
            TwoSidedSyncBackend(ctx.compute, pool_host, qp_c, qp_p, dep.region)
        )
    return dep


@register_system("one-sided")
def build_one_sided(ctx: BuildContext) -> MicrobenchDeployment:
    dep = _setup_pool(ctx)
    for _ in range(ctx.threads):
        qp_c, _qp_p = ctx.bed.connect_qps(ctx.compute, dep.pool_host)
        dep.backends.append(OneSidedSyncBackend(ctx.compute, qp_c, dep.region))
    return dep


@register_system("async")
def build_async(ctx: BuildContext) -> MicrobenchDeployment:
    dep = _setup_pool(ctx)
    for _ in range(ctx.threads):
        qp_c, _qp_p = ctx.bed.connect_qps(ctx.compute, dep.pool_host)
        dep.backends.append(
            OneSidedAsyncBackend(
                ctx.compute, qp_c, dep.region, batch=ctx.pipeline_depth
            )
        )
    return dep


def _build_cowbird(ctx: BuildContext, engine_factory) -> MicrobenchDeployment:
    """Shared Phase I wiring for all three Cowbird variants.

    ``engine_factory(ctx)`` runs *after* instances are created (the
    spot agent host must join the testbed at that exact point to keep
    construction order, and thus sim behavior, identical to the
    pre-registry ladder).
    """
    if ctx.pool_shards > 1:
        pools = []
        pool_hosts = {}
        for i in range(ctx.pool_shards):
            host, shard_pool = ctx.bed.add_pool(f"pool{i}")
            pools.append(shard_pool)
            pool_hosts[shard_pool.node] = host
        pool = ShardedPool(pools)
        sharded = pool.allocate_region(ctx.remote_bytes, name="bench-remote")
        dep = ctx.deployment(
            [], pool=pool, pool_hosts=pool_hosts, region=sharded
        )
        handles = sharded.shards
    else:
        dep = _setup_pool(ctx)
        sharded = None
        handles = (dep.region,)
    client = CowbirdClient(ctx.compute, ctx.cowbird_config)
    for handle in handles:
        client.register_remote_region(handle)
    instances = [client.create_instance() for _ in range(ctx.threads)]
    dep.engine = engine = engine_factory(ctx)
    for instance in instances:
        engine.register_instance(instance, dep.pool_hosts)
    engine.start()
    dep.backends = [
        CowbirdBackend(
            instance, pending_limit=ctx.pipeline_depth, sharded=sharded
        )
        for instance in instances
    ]
    return dep


def _spot_engine_factory(base_config: dict):
    def factory(ctx: BuildContext) -> CowbirdSpotEngine:
        agent = ctx.bed.add_host("spot-agent", cpu_cores=1, smt=2)
        config = SpotEngineConfig(**{**base_config, **ctx.engine_config})
        return CowbirdSpotEngine(agent, config)

    return factory


@register_system("cowbird-nb", sharded=True)
def build_cowbird_nb(ctx: BuildContext) -> MicrobenchDeployment:
    # "Batching disabled": every read response is written back
    # individually, and doorbell batching is restricted, so per-request
    # verb overhead returns (Section 6).
    return _build_cowbird(
        ctx, _spot_engine_factory({"batch_size": 1, "max_post_batch": 8})
    )


@register_system("cowbird", sharded=True)
def build_cowbird(ctx: BuildContext) -> MicrobenchDeployment:
    return _build_cowbird(ctx, _spot_engine_factory({}))


@register_system("cowbird-p4", sharded=True)
def build_cowbird_p4(ctx: BuildContext) -> MicrobenchDeployment:
    def factory(ctx: BuildContext) -> CowbirdP4Engine:
        config = P4EngineConfig(**ctx.engine_config)
        return CowbirdP4Engine(ctx.sim, ctx.bed.switch, config)

    return _build_cowbird(ctx, factory)


@register_system("redy")
def build_redy(ctx: BuildContext) -> MicrobenchDeployment:
    dep = _setup_pool(ctx)
    io_threads = max(1, -(-ctx.threads // 4))
    qp_pairs = [
        ctx.bed.connect_qps(ctx.compute, dep.pool_host)
        for _ in range(io_threads)
    ]
    shared = RedyBackend(
        ctx.compute, dep.pool_host, dep.region, qp_pairs,
        RedyConfig(io_threads=io_threads),
    )
    dep.backends = [shared] * ctx.threads
    return dep


@register_system("aifm")
def build_aifm(ctx: BuildContext) -> MicrobenchDeployment:
    dep = _setup_pool(ctx)
    shared = AifmBackend(ctx.compute, dep.pool_host, dep.region, AifmConfig())
    dep.backends = [shared] * ctx.threads
    return dep


@register_system("ssd")
def build_ssd(ctx: BuildContext) -> MicrobenchDeployment:
    return ctx.deployment([SsdBackend(ctx.compute)] * ctx.threads)
