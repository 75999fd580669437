"""YCSB-style workload generation (Section 8: Zipfian θ=0.99 / uniform).

The Zipfian generator is Gray et al.'s classic algorithm (the one YCSB
itself uses): constant-time sampling after an O(n) zeta precomputation,
with the standard scrambling option so hot keys spread across the key
space instead of clustering at low ids.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "UniformGenerator",
    "YcsbConfig",
    "YcsbOp",
    "YcsbWorkload",
    "ZipfianGenerator",
]

#: FNV-1a constants for key scrambling.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's scrambling hash)."""
    result, prime, mask = _FNV_OFFSET, _FNV_PRIME, 0xFFFF_FFFF_FFFF_FFFF
    for byte in value.to_bytes(8, "little"):
        result = ((result ^ byte) * prime) & mask
    return result


class UniformGenerator:
    """Uniform key choice over [0, item_count)."""

    def __init__(self, item_count: int, seed: int = 0) -> None:
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        self.item_count = item_count
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.item_count)


class ZipfianGenerator:
    """Zipfian key choice with parameter θ (default 0.99, as in YCSB)."""

    def __init__(
        self,
        item_count: int,
        theta: float = 0.99,
        seed: int = 0,
        scrambled: bool = True,
    ) -> None:
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1): {theta}")
        self.item_count = item_count
        self.theta = theta
        self.scrambled = scrambled
        self._rng = random.Random(seed)
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        #: ``u * zeta(n)`` below this and at least 1 draws rank 1.
        self._rank1_below = 1.0 + 0.5 ** theta
        denominator = 1.0 - self._zeta2 / self._zetan
        if denominator == 0.0:  # item_count == 2: zeta(n) == zeta(2)
            self._eta = 0.0
        else:
            self._eta = (
                1.0 - (2.0 / item_count) ** (1.0 - theta)
            ) / denominator

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def _zeta(n: int, theta: float) -> float:
        # O(n), and every worker's generator asks for the same (n, theta).
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < self._rank1_below:
            rank = 1
        else:
            rank = int(
                self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha
            )
            rank = min(rank, self.item_count - 1)
        if self.scrambled:
            return fnv1a_64(rank) % self.item_count
        return rank


class YcsbOp(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"


@dataclass
class YcsbConfig:
    """One YCSB workload configuration.

    Section 8 databases: 8 B keys with 64 B or 512 B values, Zipfian
    θ=0.99 (Figure 9) or uniform (Figure 11).
    """

    record_count: int = 100_000
    value_bytes: int = 64
    key_bytes: int = 8
    read_fraction: float = 1.0
    distribution: str = "zipfian"  # "zipfian" | "uniform"
    theta: float = 0.99
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction out of range: {self.read_fraction}")
        if self.distribution not in ("zipfian", "uniform"):
            raise ValueError(f"unknown distribution: {self.distribution}")

    @property
    def record_bytes(self) -> int:
        return self.key_bytes + self.value_bytes


class YcsbWorkload:
    """A seeded stream of (op, key) pairs."""

    def __init__(self, config: YcsbConfig, worker_seed: int = 0) -> None:
        self.config = config
        seed = config.seed * 1_000_003 + worker_seed
        if config.distribution == "zipfian":
            self._keys = ZipfianGenerator(config.record_count, config.theta, seed)
        else:
            self._keys = UniformGenerator(config.record_count, seed)
        self._op_rng = random.Random(seed ^ 0x5EED)
        self._value_reps = -(-config.value_bytes // 4)
        #: ``None`` when the repeated unit is exactly ``value_bytes`` long.
        self._value_trim = slice(config.value_bytes) if config.value_bytes % 4 else None

    def next_op(self) -> tuple[YcsbOp, int]:
        key = self._keys.next()
        if self._op_rng.random() < self.config.read_fraction:
            return (YcsbOp.READ, key)
        return (YcsbOp.UPDATE, key)

    def ops(self, count: int) -> Iterator[tuple[YcsbOp, int]]:
        for _ in range(count):
            yield self.next_op()

    def value_for(self, key: int) -> bytes:
        """Deterministic record payload for verification."""
        unit = ((key * 2654435761) & 0xFFFF_FFFF).to_bytes(4, "little")
        value = unit * self._value_reps
        return value if self._value_trim is None else value[self._value_trim]
