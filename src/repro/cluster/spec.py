"""``ScenarioSpec``: declarative description of one deployment + workload.

A scenario file (JSON or TOML) names a system from the
:class:`~repro.cluster.registry.SystemRegistry` and describes the
topology around it — compute-host shape, link parameters, memory pool
(including striping over N shards), engine config overrides — plus the
hash-table workload to drive.  ``repro run scenario <file>`` loads,
validates, and runs it; ``--validate-only`` stops after validation.

Serialization is stable: ``to_dict`` emits every field in declaration
order and ``to_json`` sorts keys, so a round-tripped spec is
byte-identical and diffs are meaningful.

TOML files are read with :mod:`tomllib`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.cluster.registry import SYSTEMS

__all__ = [
    "EngineSpec",
    "HostSpec",
    "LinkSpec",
    "PoolSpec",
    "ScenarioError",
    "ScenarioSpec",
    "WorkloadSpec",
    "load_scenario",
]


class ScenarioError(ValueError):
    """A scenario file is malformed or internally inconsistent."""


@dataclass
class HostSpec:
    """Shape of the compute host (Section 7: Xeon Silver 4110 default)."""

    cpu_cores: int = 8
    smt: int = 2


@dataclass
class LinkSpec:
    """Per-testbed link parameters; ``None`` defers to the cost model."""

    bandwidth_gbps: Optional[float] = None
    propagation_delay_ns: Optional[float] = None


@dataclass
class PoolSpec:
    """The memory pool: one host, or a region striped over N shards."""

    shards: int = 1


@dataclass
class EngineSpec:
    """Offload-engine tuning: field overrides for the engine config."""

    config: dict = field(default_factory=dict)


@dataclass
class WorkloadSpec:
    """The Section 8.1 hash-table probe loop parameters."""

    threads: int = 1
    record_bytes: int = 256
    ops_per_thread: int = 1_000
    num_records: int = 100_000
    local_fraction: float = 0.05
    pipeline_depth: int = 100


@dataclass
class ScenarioSpec:
    """One complete, runnable deployment description."""

    name: str
    system: str
    seed: int = 0
    compute: HostSpec = field(default_factory=HostSpec)
    link: LinkSpec = field(default_factory=LinkSpec)
    pool: PoolSpec = field(default_factory=PoolSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScenarioError` unless the spec is runnable."""
        if not self.name:
            raise ScenarioError("scenario needs a non-empty name")
        if self.system not in SYSTEMS:
            raise ScenarioError(
                f"unknown system {self.system!r}; pick from {SYSTEMS.names()}"
            )
        if self.compute.cpu_cores < 1:
            raise ScenarioError("compute.cpu_cores must be >= 1")
        if self.compute.smt < 1:
            raise ScenarioError("compute.smt must be >= 1")
        if self.pool.shards < 1:
            raise ScenarioError("pool.shards must be >= 1")
        if self.pool.shards > 1 and not SYSTEMS.supports_sharding(self.system):
            raise ScenarioError(
                f"system {self.system!r} does not support sharded pools"
            )
        if self.engine.config and not self.system.startswith("cowbird"):
            raise ScenarioError(
                "engine.config overrides only apply to cowbird systems"
            )
        wl = self.workload
        if wl.threads < 1:
            raise ScenarioError("workload.threads must be >= 1")
        if wl.threads > self.compute.cpu_cores * self.compute.smt:
            raise ScenarioError(
                f"workload.threads={wl.threads} exceeds compute capacity "
                f"({self.compute.cpu_cores} cores x {self.compute.smt} SMT)"
            )
        if wl.record_bytes < 1:
            raise ScenarioError("workload.record_bytes must be >= 1")
        if wl.ops_per_thread < 1:
            raise ScenarioError("workload.ops_per_thread must be >= 1")
        if wl.num_records < 1:
            raise ScenarioError("workload.num_records must be >= 1")
        if not 0.0 <= wl.local_fraction <= 1.0:
            raise ScenarioError("workload.local_fraction must be in [0, 1]")
        if wl.pipeline_depth < 1:
            raise ScenarioError("workload.pipeline_depth must be >= 1")
        if self.link.bandwidth_gbps is not None and self.link.bandwidth_gbps <= 0:
            raise ScenarioError("link.bandwidth_gbps must be > 0")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Build a spec, rejecting unknown keys (typo protection)."""
        if not isinstance(data, dict):
            raise ScenarioError(f"scenario must be a table, got {type(data).__name__}")
        sections = {
            "compute": HostSpec,
            "link": LinkSpec,
            "pool": PoolSpec,
            "engine": EngineSpec,
            "workload": WorkloadSpec,
        }
        kwargs = {}
        for key, value in data.items():
            if key in sections:
                kwargs[key] = _build_section(sections[key], key, value)
            elif key in ("name", "system", "seed"):
                kwargs[key] = value
            else:
                raise ScenarioError(f"unknown scenario key {key!r}")
        for required in ("name", "system"):
            if required not in kwargs:
                raise ScenarioError(f"scenario is missing {required!r}")
        return cls(**kwargs)


def _build_section(section_cls, section_name: str, value: dict):
    if not isinstance(value, dict):
        raise ScenarioError(f"[{section_name}] must be a table")
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(value) - known
    if unknown:
        raise ScenarioError(
            f"unknown key(s) in [{section_name}]: {sorted(unknown)}"
        )
    return section_cls(**value)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_scenario(path) -> ScenarioSpec:
    """Load and parse a ``.json`` or ``.toml`` scenario file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    elif path.suffix == ".toml":
        data = _load_toml(text, str(path))
    else:
        raise ScenarioError(
            f"{path}: unsupported scenario format {path.suffix!r} "
            "(expected .json or .toml)"
        )
    try:
        return ScenarioSpec.from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _load_toml(text: str, origin: str) -> dict:
    # Imported here: about 0.5 MB of RSS that runs without a scenario
    # file (every benchmark workload) never need.
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"{origin}: invalid TOML: {exc}") from exc
