"""Scalar references, kept out of the program, that the kernels and the
parser are tested against: the spec of docs/hashing.md, with its constants
written out rather than imported from `sqf.hashing`, and a plan printer."""

from __future__ import annotations

from sqf.frontend.ast import AggItem, QueryPlan, Star, render_expr

MASK64 = (1 << 64) - 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MIX_C1 = 0xFF51AFD7ED558CCD
_MIX_C2 = 0xC4CEB9FE1A85EC53


def mix64(h: int) -> int:
    h ^= h >> 33
    h = (h * _MIX_C1) & MASK64
    h ^= h >> 33
    h = (h * _MIX_C2) & MASK64
    h ^= h >> 33
    return h


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """Hash `data` under `seed`: the 8 little-endian bytes of the seed, then
    the data, absorbed FNV-1a style, and the state mixed."""
    h = FNV_OFFSET
    for b in (seed & MASK64).to_bytes(8, "little") + data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return mix64(h)


def fnv1a64_u64(key: int, seed: int = 0) -> int:
    """Hash one unsigned 64-bit key (its 8 little-endian bytes)."""
    return fnv1a64((key & MASK64).to_bytes(8, "little"), seed)


def bloom_seed(seed: int, stage: int, j: int) -> int:
    """seed(stage, j) of docs/hashing.md: the seed of bit index j of a stage."""
    return (seed + 0x9E3779B97F4A7C15 * (stage + 1) + 0xD1B54A32D192ED03 * j) & MASK64


def bloom_build_probe(config, keys, built) -> list[bool]:
    """The pass flag of each key against the cascade built from the keys
    where `built` holds: a key passes when, in every stage, each bit
    fnv1a64_u64(key, seed(stage, j)) mod bits_per_stage is one a built key set."""
    def indices(key):
        return [{fnv1a64_u64(int(key), bloom_seed(config.seed, stage, j)) % config.bits_per_stage
                 for j in range(config.hashes_per_stage)}
                for stage in range(config.stages)]

    bits = [set() for _ in range(config.stages)]
    for key, b in zip(keys, built):
        if b:
            for stage_bits, idx in zip(bits, indices(key)):
                stage_bits |= idx
    return [all(idx <= stage_bits for stage_bits, idx in zip(bits, indices(key)))
            for key in keys]


def pretty_print(plan: QueryPlan) -> str:
    """Canonical SQL text for a plan; parse(pretty_print(p)) == p."""
    computed = dict(plan.computed)
    items = []
    for item in plan.projection:
        if isinstance(item, Star):
            items.append("*")
        elif isinstance(item, AggItem):
            items.append(plan.aggregates[item.index].render())
        elif item.qualifier is None and item.name in computed:
            items.append(f"{render_expr(computed[item.name])} AS {item.name}")
        else:
            items.append(item.render())
    parts = [f"SELECT {', '.join(items)} FROM {plan.source}"]
    if plan.join:
        parts.append(
            f"JOIN {plan.join.table} ON "
            f"{plan.join.left_key.render()} = {plan.join.right_key.render()}"
        )
    if plan.restriction is not None:
        parts.append(f"WHERE {render_expr(plan.restriction)}")
    if plan.group_by:
        parts.append("GROUP BY " + ", ".join(c.render() for c in plan.group_by))
    if plan.order_by:
        keys = ", ".join(
            f"{o.name} {'ASC' if o.ascending else 'DESC'}" for o in plan.order_by
        )
        parts.append("ORDER BY " + keys)
    return " ".join(parts)
