"""The cluster layer: declarative deployments for every experiment.

Three pieces (ISSUE 4 / DESIGN.md "Cluster layer"):

* :class:`~repro.cluster.spec.ScenarioSpec` — dataclasses loadable from
  JSON/TOML describing hosts, links, memory pools (including
  :class:`~repro.memory.pool.ShardedPool` striping), engines, and the
  workload; run them with ``repro run scenario <file>``;
* :class:`~repro.cluster.registry.SystemRegistry` — pluggable builders
  keyed by legend name; importing this package registers all ten
  evaluation systems (``repro.cluster.builders``);
* :class:`~repro.cluster.engine.OffloadEngine` — the protocol both
  Cowbird engines implement so nothing outside the engine modules
  touches engine-specific wiring.

The scenario *runner* lives in :mod:`repro.cluster.scenario` (imported
lazily by the CLI — it depends on the experiment harness, which in turn
builds through this package's registry).
"""

from repro.cluster.engine import OffloadEngine
from repro.cluster.registry import (
    SYSTEMS,
    BuildContext,
    MicrobenchDeployment,
    SystemRegistry,
    register_system,
)
from repro.cluster import builders as _builders  # populate SYSTEMS
from repro.cluster.spec import (
    EngineSpec,
    HostSpec,
    LinkSpec,
    PoolSpec,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
    load_scenario,
)

del _builders

__all__ = [
    "BuildContext",
    "EngineSpec",
    "HostSpec",
    "LinkSpec",
    "MicrobenchDeployment",
    "OffloadEngine",
    "PoolSpec",
    "ScenarioError",
    "ScenarioSpec",
    "SYSTEMS",
    "SystemRegistry",
    "WorkloadSpec",
    "load_scenario",
    "register_system",
]
