"""Software hash join over aligned blocks, the co-design path's host stage.

The hash table is keyed by the hashes forwarded from the filter chain; the
forwarded hash is a hint, so real key equality is verified before emitting,
which is also where bloom false positives die.
"""

from __future__ import annotations

from ..relcore import ColumnType, canon_cell


def host_hash_join_indexed(
    build_blocks,
    probe_blocks,
    build_key_index: int,
    probe_key_index: int,
    key_type: ColumnType,
):
    """Yields (build_pos, probe_pos, build_tuple, probe_tuple) matches.

    Positions are stream positions across the block lists, emitted in probe
    order with build matches in insertion order.
    """
    table: dict[int, list] = {}
    pos = 0
    for block in build_blocks:
        if block.hashes is None:
            raise ValueError("host join needs blocks aligned with forwarded hashes")
        for row, h in zip(block.tuples, block.hashes):
            key = canon_cell(row[build_key_index], key_type)
            table.setdefault(int(h), []).append((pos, key, row))
            pos += 1

    out = []
    pos = 0
    for block in probe_blocks:
        if block.hashes is None:
            raise ValueError("host join needs blocks aligned with forwarded hashes")
        for row, h in zip(block.tuples, block.hashes):
            key = canon_cell(row[probe_key_index], key_type)
            for bpos, bkey, brow in table.get(int(h), ()):
                if bkey == key:
                    out.append((bpos, pos, brow, row))
            pos += 1
    return out

