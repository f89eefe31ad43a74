"""Seeded 64-bit hashing used for bloom filters, join keys, and row checksums.

The function is an FNV-1a variant: the 8 little-endian bytes of a seed word
are absorbed before the payload, and the raw FNV state is passed through a
final avalanche mix (raw FNV-1a has weak low bits, which matters when bit
indices are taken modulo a power of two). The exact byte-level definition
lives in docs/hashing.md. The row-matrix kernel `fnv1a64_rows` serves every
vectorized caller; the scalar `fnv1a64` is its test reference, and the two
must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
SEED_STRIDE = 0x9E3779B97F4A7C15  # per-stage seed spacing

_MIX_C1 = 0xFF51AFD7ED558CCD
_MIX_C2 = 0xC4CEB9FE1A85EC53

# Fixed internal seeds (documented in docs/hashing.md).
CHECKSUM_SEED = 0x5143_4845_434B_0001  # row checksum folding
KEY_IMAGE_SEED = 0x4B45_5949_4D47_0001  # CHAR join keys -> 64-bit image


def mix64(h: int) -> int:
    h ^= h >> 33
    h = (h * _MIX_C1) & MASK64
    h ^= h >> 33
    h = (h * _MIX_C2) & MASK64
    h ^= h >> 33
    return h


def _seeded_state(seed: int) -> int:
    """FNV state after absorbing the 8 little-endian bytes of `seed`."""
    h = FNV_OFFSET
    for b in (seed & MASK64).to_bytes(8, "little"):
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """Hash `data` under `seed`; the result is a uniform 64-bit value.

    Scalar reference for fnv1a64_rows."""
    h = _seeded_state(seed)
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return mix64(h)


def fnv1a64_u64(key: int, seed: int = 0) -> int:
    """Hash one unsigned 64-bit key (its 8 little-endian bytes)."""
    return fnv1a64((key & MASK64).to_bytes(8, "little"), seed)


def fnv1a64_rows(matrix: np.ndarray, seed: int = 0) -> np.ndarray:
    """fnv1a64 of every row of a (rows, bytes) uint8 matrix, as uint64.

    Row i hashes to fnv1a64(bytes(matrix[i]), seed). The kernel absorbs one
    byte column across all rows per step.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    h = np.full(matrix.shape[0], _seeded_state(seed), dtype=np.uint64)
    prime = np.uint64(FNV_PRIME)
    for byte in np.ascontiguousarray(matrix.T):
        h ^= byte
        h *= prime
    shift = np.uint64(33)
    h ^= h >> shift
    h *= np.uint64(_MIX_C1)
    h ^= h >> shift
    h *= np.uint64(_MIX_C2)
    h ^= h >> shift
    return h


def fnv1a64_u64_many(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized fnv1a64_u64 over a uint64 array."""
    keys = np.ascontiguousarray(keys, dtype="<u8")
    return fnv1a64_rows(keys.view(np.uint8).reshape(-1, 8), seed).reshape(keys.shape)
