"""Unit tests for workload generators (repro.workloads)."""

from collections import Counter

import pytest

from repro.workloads.hashtable import HashTable, HashTableConfig
from repro.workloads.ycsb import (
    UniformGenerator,
    YcsbConfig,
    YcsbOp,
    YcsbWorkload,
    ZipfianGenerator,
    fnv1a_64,
)


class TestUniformGenerator:
    def test_values_in_range(self):
        gen = UniformGenerator(1000, seed=1)
        assert all(0 <= gen.next() < 1000 for _ in range(500))

    def test_deterministic_by_seed(self):
        a = UniformGenerator(1000, seed=5)
        b = UniformGenerator(1000, seed=5)
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_distinct_seeds_differ(self):
        a = UniformGenerator(1000, seed=1)
        b = UniformGenerator(1000, seed=2)
        assert [a.next() for _ in range(50)] != [b.next() for _ in range(50)]

    def test_roughly_uniform_coverage(self):
        gen = UniformGenerator(10, seed=3)
        counts = Counter(gen.next() for _ in range(10_000))
        for key in range(10):
            assert 800 < counts[key] < 1200

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)


class TestZipfianGenerator:
    def test_values_in_range(self):
        gen = ZipfianGenerator(10_000, seed=7)
        assert all(0 <= gen.next() < 10_000 for _ in range(1000))

    def test_skew_concentrates_mass(self):
        """With theta=0.99 the hottest key takes a large share."""
        gen = ZipfianGenerator(10_000, theta=0.99, seed=11, scrambled=False)
        counts = Counter(gen.next() for _ in range(20_000))
        top_share = counts.most_common(1)[0][1] / 20_000
        assert top_share > 0.05  # the single hottest key

    def test_unscrambled_rank_zero_is_hottest(self):
        gen = ZipfianGenerator(1000, seed=2, scrambled=False)
        counts = Counter(gen.next() for _ in range(20_000))
        assert counts.most_common(1)[0][0] == 0

    def test_scrambling_spreads_hot_keys(self):
        gen = ZipfianGenerator(1000, seed=2, scrambled=True)
        counts = Counter(gen.next() for _ in range(20_000))
        hottest = counts.most_common(1)[0][0]
        assert hottest == fnv1a_64(0) % 1000

    def test_deterministic_by_seed(self):
        a = ZipfianGenerator(5000, seed=9)
        b = ZipfianGenerator(5000, seed=9)
        assert [a.next() for _ in range(200)] == [b.next() for _ in range(200)]

    def test_more_skew_than_uniform(self):
        zipf = ZipfianGenerator(1000, seed=4, scrambled=False)
        uniform = UniformGenerator(1000, seed=4)
        zipf_top10 = Counter(zipf.next() for _ in range(10_000)).most_common(10)
        unif_top10 = Counter(uniform.next() for _ in range(10_000)).most_common(10)
        assert sum(c for _, c in zipf_top10) > 2 * sum(c for _, c in unif_top10)

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(100, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(100, theta=0.0)


def reference_fnv1a_64(value):
    """The byte loop before its constants were bound as locals."""
    data = value.to_bytes(8, "little")
    result = 0xCBF29CE484222325
    for byte in data:
        result ^= byte
        result = (result * 0x100000001B3) & 0xFFFF_FFFF_FFFF_FFFF
    return result


class ReferenceZipfian(ZipfianGenerator):
    """``next`` before the rank-1 bound was computed once, kept as the
    reference for the key stream."""

    def next(self):
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self.theta:
            rank = 1
        else:
            rank = int(
                self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha
            )
            rank = min(rank, self.item_count - 1)
        if self.scrambled:
            return reference_fnv1a_64(rank) % self.item_count
        return rank


class TestKeyStreamsPinned:
    @pytest.mark.parametrize("value", [0, 1, 1 << 63, (1 << 64) - 1])
    def test_fnv1a_matches_reference(self, value):
        assert fnv1a_64(value) == reference_fnv1a_64(value)

    @pytest.mark.parametrize("value", [-1, 1 << 64])
    def test_fnv1a_rejects_what_the_reference_rejects(self, value):
        with pytest.raises(OverflowError):
            reference_fnv1a_64(value)
        with pytest.raises(OverflowError):
            fnv1a_64(value)

    @pytest.mark.parametrize("item_count, seed", [(2, 3), (1000, 2), (40_000, 1)])
    def test_first_keys_match_reference(self, item_count, seed):
        gen = ZipfianGenerator(item_count, seed=seed)
        ref = ReferenceZipfian(item_count, seed=seed)
        assert [gen.next() for _ in range(5000)] == [ref.next() for _ in range(5000)]


class TestYcsbWorkload:
    def test_pure_read_mix(self):
        workload = YcsbWorkload(YcsbConfig(read_fraction=1.0))
        ops = [op for op, _ in workload.ops(200)]
        assert all(op is YcsbOp.READ for op in ops)

    def test_mixed_workload_ratio(self):
        workload = YcsbWorkload(YcsbConfig(read_fraction=0.5, seed=3))
        ops = [op for op, _ in workload.ops(2000)]
        reads = sum(1 for op in ops if op is YcsbOp.READ)
        assert 850 < reads < 1150

    def test_value_payload_size_and_determinism(self):
        workload = YcsbWorkload(YcsbConfig(value_bytes=64))
        value = workload.value_for(42)
        assert len(value) == 64
        assert value == workload.value_for(42)
        assert value != workload.value_for(43)

    @pytest.mark.parametrize("value_bytes", [*range(1, 18), 64, 512])
    def test_value_matches_the_reference_formula(self, value_bytes):
        workload = YcsbWorkload(YcsbConfig(value_bytes=value_bytes))
        for key in (0, 1, 42, 99_999, 2**40 + 3):
            unit = ((key * 2654435761) & 0xFFFF_FFFF).to_bytes(4, "little")
            want = (unit * -(-value_bytes // 4))[:value_bytes]
            assert workload.value_for(key) == want

    def test_record_bytes(self):
        config = YcsbConfig(value_bytes=512)
        assert config.record_bytes == 520

    def test_worker_seeds_decorrelate(self):
        a = YcsbWorkload(YcsbConfig(), worker_seed=1)
        b = YcsbWorkload(YcsbConfig(), worker_seed=2)
        assert [k for _, k in a.ops(50)] != [k for _, k in b.ops(50)]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            YcsbConfig(read_fraction=1.5)
        with pytest.raises(ValueError):
            YcsbConfig(distribution="pareto")


class TestHashTable:
    def test_local_fraction_respected(self):
        config = HashTableConfig(num_records=1000, local_fraction=0.05)
        table = HashTable(config)
        assert table.local_count == 50
        assert table.remote_count == 950

    def test_locate_split(self):
        table = HashTable(HashTableConfig(num_records=100, local_fraction=0.1))
        locals_ = sum(1 for k in range(100) if table.locate(k)[0])
        assert locals_ == 10

    def test_remote_offsets_distinct_and_aligned(self):
        config = HashTableConfig(num_records=100, record_bytes=256,
                                 local_fraction=0.0)
        table = HashTable(config)
        offsets = {table.locate(k)[1] for k in range(100)}
        assert len(offsets) == 100
        assert all(off % 256 == 0 for off in offsets)

    def test_remote_bytes_needed(self):
        config = HashTableConfig(num_records=100, record_bytes=64,
                                 local_fraction=0.5)
        assert HashTable(config).remote_bytes_needed() == 50 * 64

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            HashTableConfig(local_fraction=1.5)
        with pytest.raises(ValueError):
            HashTableConfig(num_records=0)
