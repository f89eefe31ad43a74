"""Cache-line alignment stage of the co-design join.

A co-design record is a tuple plus the 8-byte hash forwarded from the bloom
cascade. Alignment packs records into cache-line blocks without letting one
straddle a block boundary, so a record must fit one block. The planner
offers the co-design variant only where both sides' records fit, and the
executor checks them again against the device it runs on.
"""

from __future__ import annotations

from ..errors import TupleTooLarge
from ..relcore import Schema


def record_bytes(schema: Schema) -> int:
    """Bytes of one co-design record: the tuple plus its forwarded hash."""
    return schema.tuple_bytes + 8


def check_record_fits(schema: Schema, block_bytes: int) -> None:
    """Raise TupleTooLarge when a record of `schema` is wider than a block."""
    if record_bytes(schema) > block_bytes:
        raise TupleTooLarge(record_bytes(schema), block_bytes)
