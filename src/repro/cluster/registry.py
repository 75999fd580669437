"""``SystemRegistry``: pluggable builders for every system-under-test.

Each baseline and Cowbird variant registers a builder function keyed by
its legend name (``local``, ``two-sided``, ..., ``cowbird-p4``); the
experiment harness resolves systems through the registry instead of an
``if system == ...`` ladder.  Adding a third-party backend is one
decorator::

    from repro.cluster import register_system, BuildContext, MicrobenchDeployment

    @register_system("my-system")
    def build_my_system(ctx: BuildContext) -> MicrobenchDeployment:
        backend = MyBackend(ctx.compute, ...)
        return ctx.deployment([backend] * ctx.threads)

Builders receive a :class:`BuildContext` (testbed, compute host, thread
count, sizing) and return the :class:`MicrobenchDeployment` they
assembled (per-thread backends plus whatever pool hosts/engine they
built).  Registration order is preserved — ``SYSTEMS.names()`` is the
canonical legend order used by ``MICROBENCH_SYSTEMS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.cpu import CostModel
from repro.testbed import Host, Testbed

__all__ = [
    "BuildContext",
    "MicrobenchDeployment",
    "SystemRegistry",
    "SYSTEMS",
    "register_system",
]


@dataclass
class BuildContext:
    """Everything a system builder may consume.

    The harness constructs the testbed and compute host *before*
    dispatching to the builder so every system sees an identical
    simulator prologue (determinism depends on construction order).
    """

    system: str
    bed: Testbed
    compute: Host
    threads: int
    remote_bytes: int
    cost: CostModel
    pipeline_depth: int = 100
    #: Stripe the benchmark region over this many pool hosts (cowbird
    #: systems only; everything else requires the default of 1).
    pool_shards: int = 1
    #: Field overrides applied to the engine's config dataclass
    #: (e.g. ``{"batch_size": 32}`` for the spot engine).
    engine_config: dict = field(default_factory=dict)
    #: Client ring sizes for cowbird systems (``None``: the defaults).
    cowbird_config: Optional[object] = None

    @property
    def sim(self):
        return self.bed.sim

    def deployment(self, backends: list, **fields) -> "MicrobenchDeployment":
        """The deployment record for this build, holding ``backends``."""
        return MicrobenchDeployment(
            system=self.system, bed=self.bed, compute=self.compute,
            backends=backends, **fields,
        )


@dataclass
class MicrobenchDeployment:
    """One assembled system-under-test."""

    system: str
    bed: Testbed
    compute: Host
    backends: list
    engine: Optional[object] = None  # satisfies OffloadEngine when set
    #: MemoryPool or ShardedPool backing the benchmark region, if any.
    pool: Optional[object] = None
    #: Pool node name -> Host (several entries for sharded pools).
    pool_hosts: dict = field(default_factory=dict)
    #: The benchmark region: a RemoteRegionHandle, or a
    #: ShardedRegionHandle over several pool hosts.
    region: Optional[object] = None

    @property
    def sim(self):
        return self.bed.sim

    @property
    def pool_host(self) -> Optional[Host]:
        """The (first) pool host, or ``None`` for pool-less systems."""
        return next(iter(self.pool_hosts.values()), None)

    @property
    def instances(self) -> list:
        """The Cowbird instances behind the backends, one per thread."""
        return [backend.instance for backend in self.backends]

    @property
    def agent_host(self) -> Optional[Host]:
        """The spot agent's host (Cowbird-Spot only)."""
        return getattr(self.engine, "host", None)

    def pool_region(self):
        """The backing memory region of an unsharded :attr:`region`."""
        return self.pool.region_for(self.region)

    def close(self) -> None:
        """Stop the engine so the deployment leaks no recurring events.

        A started engine re-arms probe/timeout ticks forever; a sweep
        that builds thousands of deployments without stopping them
        drags every simulation's event heap.  Idempotent.

        Under the sanitizer (``REPRO_SANITIZE=1``), close additionally
        drains in-flight packets for a bounded window and then raises
        :class:`repro.analysis.SanitizerError` on any packet or timer
        leak, with allocation sites.
        """
        if self.engine is not None:
            self.engine.stop()
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.drain_and_check()


#: A system builder: fills the deployment record from a build context.
Builder = Callable[[BuildContext], MicrobenchDeployment]


class SystemRegistry:
    """Ordered name -> builder mapping with sharding capability flags."""

    def __init__(self) -> None:
        self._builders: dict[str, Builder] = {}
        self._sharded: set[str] = set()

    def register(
        self, name: str, sharded: bool = False
    ) -> Callable[[Callable], Callable]:
        """Decorator registering ``fn`` as the builder for ``name``."""

        def decorator(fn: Builder) -> Callable:
            if name in self._builders:
                raise ValueError(f"system {name!r} already registered")
            self._builders[name] = fn
            if sharded:
                self._sharded.add(name)
            return fn

        return decorator

    def __contains__(self, name: str) -> bool:
        return name in self._builders

    def names(self) -> tuple[str, ...]:
        """All registered systems, in registration (legend) order."""
        return tuple(self._builders)

    def supports_sharding(self, name: str) -> bool:
        return name in self._sharded

    def build(self, name: str, ctx: BuildContext) -> MicrobenchDeployment:
        """Resolve and run the builder for ``name``."""
        builder = self._builders.get(name)
        if builder is None:
            raise ValueError(
                f"unknown system {name!r}; pick from {self.names()}"
            )
        if ctx.pool_shards > 1 and name not in self._sharded:
            raise ValueError(
                f"system {name!r} does not support sharded pools "
                f"(pool_shards={ctx.pool_shards})"
            )
        return builder(ctx)


#: The process-wide registry; importing :mod:`repro.cluster` populates
#: it with all ten evaluation systems.
SYSTEMS = SystemRegistry()

#: Module-level decorator bound to the default registry.
register_system = SYSTEMS.register
