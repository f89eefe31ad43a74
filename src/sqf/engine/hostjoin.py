"""Software hash join, the co-design path's host stage.

Pairs are found on the hashes forwarded from the filter chain. A forwarded
hash is a hint, so real key equality is verified before emitting, which is
also where bloom false positives and key-image collisions die.
"""

from __future__ import annotations

import numpy as np

from .kernels import match_pairs


def host_hash_join(
    build_hashes: np.ndarray,
    build_keys: np.ndarray,
    probe_hashes: np.ndarray,
    probe_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(build positions, probe positions) of the matching pairs, emitted in
    probe order with build matches in insertion order. Keys are canonical
    (INT values or padded CHAR bytes)."""
    probe_pos, build_pos = match_pairs(probe_hashes, build_hashes)
    same = probe_keys[probe_pos] == build_keys[build_pos]
    return build_pos[same], probe_pos[same]
