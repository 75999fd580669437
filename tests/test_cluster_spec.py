"""ScenarioSpec loading/validation and the SystemRegistry contract."""

import json
from pathlib import Path

import pytest

from repro.cluster import (
    SYSTEMS,
    BuildContext,
    EngineSpec,
    PoolSpec,
    ScenarioError,
    ScenarioSpec,
    SystemRegistry,
    WorkloadSpec,
    load_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"

ALL_SYSTEMS = (
    "local", "two-sided", "one-sided", "async", "cowbird-nb", "cowbird",
    "cowbird-p4", "redy", "aifm", "ssd",
)


class TestSystemRegistry:
    def test_all_ten_systems_registered_in_legend_order(self):
        assert SYSTEMS.names() == ALL_SYSTEMS

    def test_only_cowbird_systems_support_sharding(self):
        sharded = {s for s in SYSTEMS.names() if SYSTEMS.supports_sharding(s)}
        assert sharded == {"cowbird", "cowbird-nb", "cowbird-p4"}

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError, match="unknown system"):
            SYSTEMS.build("no-such-system", None)

    def test_duplicate_registration_rejected(self):
        registry = SystemRegistry()

        @registry.register("thing")
        def build_thing(ctx):
            return ctx.deployment([])

        with pytest.raises(ValueError, match="already registered"):
            registry.register("thing")(build_thing)

    def test_third_party_registration_is_one_decorator(self):
        registry = SystemRegistry()

        @registry.register("mine", sharded=True)
        def build_mine(ctx):
            return ctx.deployment(["b"] * ctx.threads)

        assert "mine" in registry
        assert registry.supports_sharding("mine")
        ctx = BuildContext(
            system="mine", bed=None, compute=None, threads=3, remote_bytes=0,
            cost=None,
        )
        assert registry.build("mine", ctx).backends == ["b", "b", "b"]


def _spec(**overrides) -> ScenarioSpec:
    base = dict(name="t", system="cowbird")
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def test_valid_default_spec_passes(self):
        _spec().validate()

    def test_unknown_system_rejected(self):
        with pytest.raises(ScenarioError, match="unknown system"):
            _spec(system="bogus").validate()

    def test_threads_capped_by_compute_capacity(self):
        with pytest.raises(ScenarioError, match="exceeds compute capacity"):
            _spec(workload=WorkloadSpec(threads=17)).validate()

    def test_sharding_limited_to_cowbird(self):
        _spec(pool=PoolSpec(shards=2)).validate()
        with pytest.raises(ScenarioError, match="sharded"):
            _spec(system="redy", pool=PoolSpec(shards=2)).validate()

    def test_engine_config_limited_to_cowbird(self):
        _spec(engine=EngineSpec(config={"batch_size": 8})).validate()
        with pytest.raises(ScenarioError, match="engine.config"):
            _spec(system="local",
                  engine=EngineSpec(config={"batch_size": 8})).validate()

    @pytest.mark.parametrize("workload", [
        WorkloadSpec(threads=0),
        WorkloadSpec(record_bytes=0),
        WorkloadSpec(ops_per_thread=0),
        WorkloadSpec(num_records=0),
        WorkloadSpec(local_fraction=1.5),
        WorkloadSpec(pipeline_depth=0),
    ])
    def test_bad_workloads_rejected(self, workload):
        with pytest.raises(ScenarioError):
            _spec(workload=workload).validate()

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ScenarioError, match="shards"):
            _spec(pool=PoolSpec(shards=0)).validate()


class TestSerialization:
    def test_round_trip_is_lossless(self):
        spec = _spec(
            seed=7,
            pool=PoolSpec(shards=2),
            engine=EngineSpec(config={"batch_size": 25}),
            workload=WorkloadSpec(threads=4, record_bytes=64),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_json_is_stable(self):
        spec = _spec()
        assert spec.to_json() == spec.to_json()
        assert json.loads(spec.to_json())["system"] == "cowbird"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario key"):
            ScenarioSpec.from_dict({"name": "x", "system": "local", "oops": 1})
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_dict(
                {"name": "x", "system": "local", "workload": {"treads": 2}}
            )
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_dict(
                {"name": "x", "system": "cowbird", "pool": {"capacity_bytes": 1}}
            )

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ScenarioError, match="missing"):
            ScenarioSpec.from_dict({"name": "x"})


class TestLoading:
    def test_load_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(
            {"name": "j", "system": "local", "workload": {"threads": 2}}
        ))
        spec = load_scenario(path)
        assert spec.system == "local"
        assert spec.workload.threads == 2

    def test_load_toml(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            'name = "t"\nsystem = "cowbird"\nseed = 8\n'
            "[pool]\nshards = 2\n"
            "[workload]\nthreads = 4\nlocal_fraction = 0.25\n"
        )
        spec = load_scenario(path)
        assert spec.pool.shards == 2
        assert spec.workload.local_fraction == 0.25
        spec.validate()

    def test_checked_in_examples_load_and_validate(self):
        for name in ("fig08_point.toml", "fig08_point_sharded.toml"):
            spec = load_scenario(SCENARIO_DIR / name)
            spec.validate()
            assert spec.system == "cowbird"

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("name: x")
        with pytest.raises(ScenarioError, match="unsupported scenario format"):
            load_scenario(path)

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="bad.json"):
            load_scenario(path)
