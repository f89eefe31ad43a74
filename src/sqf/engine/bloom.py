"""Configurable bloom filter cascade for join pre-filtering.

A cascade is a sequence of identical-shape stages with stage-distinct hash
seeds; a key passes only if every stage reports membership, so false
positives multiply down while false negatives stay impossible. Each stage
stores its bits one per bool.

The engine's bloom stage calls `bloom_build_probe` once, on one key per
code that either join side holds: a single hash pass sets the bits from
the build side's codes and gives every code its pass flag. Bit indices
are cast to intp once per pass. A co-design record also forwards the
key's stage-0 hash to the host; no function returns it, because the host
join pairs rows on their key codes, which is what matching forwarded
hashes and then verifying the keys yields. Its 8 bytes enter the model
through `align.record_bytes`.

Every bit index uses its own independently seeded 64-bit hash (see
sqf.hashing): index_j = hash(key, hash_seed(seed, stage, j)) mod m. Double
hashing would be cheaper but measurably biases the false-positive rate for
small filters, which the accuracy contract cannot afford.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..hashing import MASK64, SEED_STRIDE, fnv1a64_u64_many

_HASH_STRIDE = 0xD1B54A32D192ED03  # spacing between per-stage hash functions


def bloom_dims(n_build: float) -> tuple[int, int]:
    """Pinned sizing rule: 8 bits per expected key (floor 64), 2 hashes.

    Proportional sizing keeps the analytic false-positive rate flat as the
    build side grows, which the cost model's monotonicity relies on.
    """
    m = max(64, 8 * math.ceil(max(n_build, 0)))
    return m, 2


def analytic_fp_rate(m: int, k: int, n: float, stages: int) -> float:
    """Per-stage (1 - e^(-kn/m))^k composed over independent stages."""
    if n <= 0:
        return 0.0
    per_stage = (1.0 - math.exp(-k * n / m)) ** k
    return per_stage**stages


@dataclass(frozen=True)
class BloomCascadeConfig:
    stages: int
    bits_per_stage: int
    hashes_per_stage: int
    seed: int

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if not 1 <= self.hashes_per_stage <= self.bits_per_stage:
            raise ValueError("need bits_per_stage >= hashes_per_stage >= 1")


def hash_seed(seed: int, stage: int, j: int) -> int:
    """The seed of bit index `j` of `stage` (docs/hashing.md)."""
    return (seed + SEED_STRIDE * (stage + 1) + _HASH_STRIDE * j) & MASK64


def bloom_build_probe(config: BloomCascadeConfig, keys: np.ndarray,
                      built: np.ndarray) -> np.ndarray:
    """The pass mask of every key of a 1-D uint64 key array against the
    cascade built from the keys where `built` holds.

    One kernel pass hashes every key under every (stage, j) seed; each
    stage sets the bits of the built keys' indices and passes the keys
    whose indices are all set."""
    seeds = [hash_seed(config.seed, stage, j)
             for stage in range(config.stages) for j in range(config.hashes_per_stage)]
    indices = (fnv1a64_u64_many(keys, seeds) % np.uint64(config.bits_per_stage)).astype(np.intp)
    rows = np.flatnonzero(built)
    passed = np.ones(indices.shape[1], dtype=bool)
    for idx in indices.reshape(config.stages, config.hashes_per_stage, -1):
        bits = np.zeros(config.bits_per_stage, dtype=bool)
        bits[idx[:, rows]] = True
        passed &= bits[idx].all(axis=0)
    return passed
