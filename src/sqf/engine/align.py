"""Cache-line alignment stage: pack tuples into fixed-size blocks.

Records never straddle block boundaries and block padding is zeroed, so the
host side can walk blocks with fixed strides. In co-design mode each record
carries the tuple payload plus its forwarded 64-bit hash.

The executor checks only the record size (`records_per_block`): its host
join reads forwarded hashes and keys as arrays, not block bytes. `align` is
the reference for the block layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TupleTooLarge
from ..relcore import Schema, encode_row


@dataclass(frozen=True)
class AlignedBlock:
    block_bytes: int
    data: bytes
    tuples: tuple[tuple, ...]
    hashes: tuple[int, ...] | None  # present in co-design (with_hash) mode

    @property
    def tuple_count(self) -> int:
        return len(self.tuples)


def records_per_block(schema: Schema, block_bytes: int, with_hash: bool = False) -> int:
    """Records of `schema` that fit one block; a record wider than a block
    raises TupleTooLarge."""
    record_bytes = schema.tuple_bytes + (8 if with_hash else 0)
    if record_bytes > block_bytes:
        raise TupleTooLarge(record_bytes, block_bytes)
    return block_bytes // record_bytes


def align(
    tuples,
    schema: Schema,
    block_bytes: int,
    with_hash: bool = False,
    hashes=None,
) -> list[AlignedBlock]:
    """Greedy packing in stream order; floor(block/record) tuples per block."""
    per_block = records_per_block(schema, block_bytes, with_hash)
    tuples = list(tuples)
    if with_hash:
        hashes = list(hashes)
        if len(hashes) != len(tuples):
            raise ValueError("need one forwarded hash per tuple")

    blocks: list[AlignedBlock] = []
    for start in range(0, len(tuples), per_block):
        chunk = tuples[start : start + per_block]
        parts = []
        for offset, row in enumerate(chunk):
            parts.append(encode_row(row, schema))
            if with_hash:
                parts.append((hashes[start + offset] & ((1 << 64) - 1)).to_bytes(8, "little"))
        payload = b"".join(parts)
        data = payload + b"\x00" * (block_bytes - len(payload))
        blocks.append(
            AlignedBlock(
                block_bytes=block_bytes,
                data=data,
                tuples=tuple(chunk),
                hashes=tuple(hashes[start : start + per_block]) if with_hash else None,
            )
        )
    return blocks
