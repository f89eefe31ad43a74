"""Configurable bloom filter cascade for join pre-filtering.

A cascade is a sequence of identical-shape stages with stage-distinct hash
seeds; a key passes only if every stage reports membership, so false
positives multiply down while false negatives stay impossible. Each stage
stores its bits one per bool.

Probing also returns each key's stage-0 hash, the hash a co-design record
forwards to the host. The engine reads nothing of it; only tests read the
returned hashes. The forwarded hash enters the model as the 8 bytes
`align.record_bytes` adds to each record, and the host join pairs rows on
their key codes, which is what matching forwarded hashes and then
verifying the keys yields.

The engine's bloom stage calls `bloom_build_probe` once, on one key per
code that either join side holds: a single hash pass sets the bits from
the build side's codes and gives every code its pass flag. Bit indices
are cast to intp once per pass.

Every bit index uses its own independently seeded 64-bit hash (see
sqf.hashing): index_j = hash(key, seed(stage, j)) mod m. Double hashing
would be cheaper but measurably biases the false-positive rate for small
filters, which the accuracy contract cannot afford.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..hashing import MASK64, SEED_STRIDE, fnv1a64_u64, fnv1a64_u64_many

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


class BloomCascade:
    """Built filter; immutable after bloom_build."""

    def __init__(self, config: BloomCascadeConfig):
        self.config = config
        self.stage_bits = [np.zeros(config.bits_per_stage, dtype=bool)
                           for _ in range(config.stages)]

    def hash_seed(self, stage: int, j: int) -> int:
        return (self.config.seed + SEED_STRIDE * (stage + 1) + _HASH_STRIDE * j) & MASK64


def _key_array(keys) -> np.ndarray:
    if isinstance(keys, np.ndarray):
        return keys.astype(np.uint64, copy=False)
    return np.array([int(k) & MASK64 for k in keys], dtype=np.uint64)


def _hash_all(cascade: BloomCascade, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hashes, bit indices) of every key under every (stage, j) seed, from
    one kernel pass: hashes is (stages * hashes_per_stage, keys) with the
    stage-0 hash first, the indices (stages, hashes_per_stage, keys), cast
    to intp once so that every bit access indexes without a cast."""
    cfg = cascade.config
    seeds = [cascade.hash_seed(stage, j)
             for stage in range(cfg.stages) for j in range(cfg.hashes_per_stage)]
    hashes = fnv1a64_u64_many(keys, seeds)
    idx = (hashes % np.uint64(cfg.bits_per_stage)).astype(np.intp)
    return hashes, idx.reshape(cfg.stages, cfg.hashes_per_stage, -1)


def _insert(cascade: BloomCascade, indices: np.ndarray) -> None:
    for bits, idx in zip(cascade.stage_bits, indices):
        bits[idx] = True


def _passes(cascade: BloomCascade, indices: np.ndarray) -> np.ndarray:
    passed = np.ones(indices.shape[2], dtype=bool)
    for bits, idx in zip(cascade.stage_bits, indices):
        passed &= bits[idx].all(axis=0)
    return passed


def bloom_build(config: BloomCascadeConfig, keys) -> BloomCascade:
    """Insert every 64-bit key into every stage."""
    cascade = BloomCascade(config)
    _insert(cascade, _hash_all(cascade, _key_array(keys))[1])
    return cascade


def bloom_build_probe(config: BloomCascadeConfig, keys: np.ndarray,
                      built: np.ndarray) -> tuple[BloomCascade, np.ndarray]:
    """(cascade of the keys where `built` holds, pass mask of every key)
    from one hash pass over a 1-D uint64 key array: `bloom_build` of
    `keys[built]` and the mask of `bloom_probe_many` of `keys`."""
    cascade = BloomCascade(config)
    indices = _hash_all(cascade, keys)[1]
    _insert(cascade, indices.take(np.flatnonzero(built), axis=2))
    return cascade, _passes(cascade, indices)


def bloom_probe(cascade: BloomCascade, key: int) -> tuple[bool, int]:
    """(pass, stage-0 hash). Pass is the AND over all stages."""
    key = int(key) & MASK64
    cfg = cascade.config
    hash64 = fnv1a64_u64(key, cascade.hash_seed(0, 0))
    m = cfg.bits_per_stage
    for stage in range(cfg.stages):
        bits = cascade.stage_bits[stage]
        for j in range(cfg.hashes_per_stage):
            idx = fnv1a64_u64(key, cascade.hash_seed(stage, j)) % m
            if not bits[idx]:
                return False, hash64
    return True, hash64


def bloom_probe_many(cascade: BloomCascade, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized probe of a 1-D key array: (boolean pass mask, stage-0
    hashes); agrees with bloom_probe bit for bit."""
    hashes, indices = _hash_all(cascade, np.asarray(keys, dtype=np.uint64))
    return _passes(cascade, indices), hashes[0]
