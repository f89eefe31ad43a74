"""Seeded 64-bit hashing used for bloom filters, join keys, and row checksums.

The function is an FNV-1a variant: the 8 little-endian bytes of a seed word
are absorbed before the payload, and the raw FNV state is passed through a
final avalanche mix (raw FNV-1a has weak low bits, which matters when bit
indices are taken modulo a power of two). The exact byte-level definition
lives in docs/hashing.md, and its scalar form in the tests' `_ref.py`, which
the kernel must match bit for bit. The one vectorized kernel,
`fnv1a64_rows`, hashes rows given as per-column byte views under several
seeds in one pass. An FNV-1a step on a zero byte is a bare multiply by the
prime, so a byte column that is zero in every row is folded into the
multiply of the step before it, and only the columns that vary are absorbed.
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


def _seeded_state(seed: int) -> int:
    """FNV state after absorbing the 8 little-endian bytes of `seed`."""
    h = FNV_OFFSET
    for b in (seed & MASK64).to_bytes(8, "little"):
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def fnv1a64_rows(parts, seeds) -> np.ndarray:
    """The hash of every row under every seed, as a (seeds, rows) uint64 array.

    A row is the concatenation of its bytes in `parts`, a sequence of
    (rows, w) uint8 byte views: element [s, i] is the hash of row i under
    seeds[s] (docs/hashing.md). The kernel absorbs one byte column across all rows per step,
    except a run of byte columns that is zero in every row: absorbing a zero
    byte is a multiply by the prime, so the run becomes one multiply by the
    prime's power, merged into the step before it (or, at the start of the
    row, into the seeded start state). An 8-byte part finds its zero columns
    by OR-ing its rows as little-endian words; other parts (CHAR cells,
    0x20-padded) are absorbed byte by byte.
    """
    rows = len(parts[0])
    live, width = [], 0  # (offset in the row, byte column) of each absorbed column
    for part in parts:
        size = part.shape[1]
        if size == 8:
            word = int(np.bitwise_or.reduce(part.view("<u8").reshape(-1)))
            ks = [k for k in range(8) if (word >> (8 * k)) & 0xFF]
        else:
            ks = range(size)
        live += [(width + k, part[:, k]) for k in ks]
        width += size
    ends = [offset for offset, _ in live[1:]] + [width]
    lead = pow(FNV_PRIME, live[0][0] if live else width, 1 << 64)
    start = [(_seeded_state(seed) * lead) & MASK64 for seed in seeds]
    h = np.repeat(np.array(start, dtype=np.uint64)[:, None], rows, axis=1)
    for (offset, byte), end in zip(live, ends):
        h ^= byte
        h *= np.uint64(pow(FNV_PRIME, end - offset, 1 << 64))
    shift = np.uint64(33)
    h ^= h >> shift
    h *= np.uint64(_MIX_C1)
    h ^= h >> shift
    h *= np.uint64(_MIX_C2)
    h ^= h >> shift
    return h


def fnv1a64_u64_many(keys: np.ndarray, seeds) -> np.ndarray:
    """The hash of the 8 little-endian bytes of every key of a 1-D uint64
    array under every seed, as a (seeds, keys) uint64 array."""
    keys = np.ascontiguousarray(keys, dtype="<u8").reshape(-1)
    return fnv1a64_rows([keys.view(np.uint8).reshape(-1, 8)], seeds)
