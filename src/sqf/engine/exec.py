"""Functional execution of a placed pipeline over real tables.

Execution is a functional simulation: stage semantics are exact (the result
multiset must match the reference evaluator), while simulated time comes
solely from the cost calculus. Predicates evaluate all operands (no short
circuit), and join output is processed in (left row, right row) order, so
arithmetic faults surface on the same logical row on every join algorithm
and on the reference route.

The engine is columnar: every stage runs as vector kernels over numpy
columns (`Table.columns`). A stream is held as row positions into the
tables it reads, and cells are gathered only where a stage reads them.
Arithmetic yields a fault code per row; a stage raises the fault of its
first faulting row, which is the row the reference evaluator faults on.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runtime import would be circular via the planner
    from ..planner import CandidatePipeline

from ..errors import ArithmeticOverflow, DivisionByZero, NotReconfigured
from ..fabric import DeviceProfile, FabricState, Placement
from ..frontend.binder import (
    BArith,
    BBool,
    BCmp,
    BInt,
    BoundPlan,
    BStr,
    FromGroupKey,
    ValueRef,
    expr_has_arith,
    expr_slots,
    needs_reorder,
    split_conjuncts,
)
from ..hashing import CHECKSUM_SEED, KEY_IMAGE_SEED, fnv1a64_rows
from ..relcore import Column, ColumnType, Table, TypeKind, encode_columns, pad_bytes
from .align import records_per_block
from .bloom import BloomCascadeConfig, bloom_build, bloom_dims, bloom_probe_many, forwarded_hashes
from .hostjoin import host_hash_join
from .kernels import (
    OVERFLOW,
    checked_arith,
    group_extreme,
    group_ids,
    group_sums,
    match_pairs,
    sort_order,
)


@dataclass(frozen=True)
class StageCount:
    name: str
    input_count: int
    output_count: int

    @property
    def selectivity(self) -> float:
        return self.output_count / self.input_count if self.input_count else 1.0


@dataclass(frozen=True)
class ExecReport:
    stages: tuple[StageCount, ...]
    wall_seconds: float
    simulated_seconds: float | None
    bloom_false_positives: int | None
    order_specified: bool
    result_rows: int


# --------------------------------------------------------------------------
# streams and expression evaluation
# --------------------------------------------------------------------------

class _Stream:
    """Rows as positions into each join side's table, plus the computed
    columns, which are aligned with the stream."""

    def __init__(self, tables, positions: dict, computed=()):
        self.tables = tables  # by join slot
        self.positions = positions  # join slot -> row positions
        self.computed = list(computed)
        self.n = len(next(iter(positions.values())))

    def column(self, ref: ValueRef) -> Column:
        if ref.kind == "computed":
            return self.computed[ref.index]
        return self.tables[ref.slot].columns[ref.index].take(self.positions[ref.slot])

    def keep(self, index) -> "_Stream":
        return _Stream(self.tables, {s: p[index] for s, p in self.positions.items()},
                       [c.take(index) for c in self.computed])


_CMP = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_BOOL = {"AND": np.logical_and, "OR": np.logical_or}


def _first_fault(*faults):
    """Per-row first fault of operands evaluated in the given order."""
    out = None
    for fault in faults:
        if fault is not None:
            out = fault if out is None else np.where(out != 0, out, fault)
    return out


def _evaluate(expr, stream: _Stream):
    """(values, fault codes or None) of a bound expression over a stream.

    INT values are int64, CHAR values padded bytes, conditions booleans;
    literals broadcast. A row's fault is its first in evaluation order:
    left operand, right operand, then the operation itself.
    """
    if isinstance(expr, ValueRef):
        return stream.column(expr).values, None
    if isinstance(expr, BInt):
        return np.int64(expr.value), None
    if isinstance(expr, BStr):  # padded to its bound width, at least 1
        return np.array([expr.value.ljust(1).encode("ascii")]), None
    if isinstance(expr, BArith):
        a, fa = _evaluate(expr.lhs, stream)
        b, fb = _evaluate(expr.rhs, stream)
        values, fault = checked_arith(expr.op, a, b)
        return values, _first_fault(fa, fb, fault)
    if isinstance(expr, BCmp):
        a, fa = _evaluate(expr.lhs, stream)
        b, fb = _evaluate(expr.rhs, stream)
        if expr.kind is TypeKind.CHAR:
            a, b = pad_bytes(a, expr.width), pad_bytes(b, expr.width)
        return _CMP[expr.op](a, b), _first_fault(fa, fb)
    if isinstance(expr, BBool):
        parts = [_evaluate(child, stream) for child in expr.children]
        if expr.op == "NOT":
            values = np.logical_not(parts[0][0])
        else:
            values = functools.reduce(_BOOL[expr.op], [v for v, _ in parts])
        return values, _first_fault(*(f for _, f in parts))
    raise TypeError(f"not an expression: {expr!r}")


def _raise_first(checks, n: int) -> None:
    """Raise the fault of the earliest faulting row. `checks` holds (fault
    codes or None, label) pairs in the order a row evaluates them."""
    first = None
    for fault, label in checks:
        if fault is None:
            continue
        fault = np.broadcast_to(fault, (n,))
        hits = np.flatnonzero(fault)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), int(fault[hits[0]]), label)
    if first is not None:
        row, code, label = first
        if code == OVERFLOW:
            raise ArithmeticOverflow(row, label)
        raise DivisionByZero(row)


def _mask(pred, stream: _Stream) -> np.ndarray:
    """Rows passing a predicate; an arithmetic fault raises for its row."""
    values, fault = _evaluate(pred, stream)
    _raise_first([(fault, "WHERE")], stream.n)
    return np.broadcast_to(values, (stream.n,))


def key_images(keys: np.ndarray, key_type: ColumnType) -> np.ndarray:
    """64-bit images of canonical join keys: INT keys as their two's
    complement bits, padded CHAR keys hashed under KEY_IMAGE_SEED."""
    if key_type.kind is TypeKind.INT:
        return keys.view(np.uint64)
    return fnv1a64_rows(keys.view(np.uint8).reshape(len(keys), key_type.width_bytes),
                        KEY_IMAGE_SEED)


def result_checksum(table: Table) -> int:
    """Order-insensitive 64-bit digest of a result table: the row hashes of
    its column view, summed modulo 2^64."""
    hashes = fnv1a64_rows(encode_columns(table.columns), CHECKSUM_SEED)
    return int(hashes.sum(dtype=np.uint64))


# --------------------------------------------------------------------------
# the executor
# --------------------------------------------------------------------------

def execute_pipeline(
    c: "CandidatePipeline",
    tables: dict,
    fabric: FabricState,
    placement: Placement,
    dev: DeviceProfile,
    seed: int = 0,
    estimate=None,
) -> tuple[Table, ExecReport]:
    """Run a planner candidate and report per-stage counts.

    Requires `placement` to be allocated and reconfigured for `c`'s modules.
    Result row order is fully specified only when the plan has ORDER BY.
    """
    started = time.perf_counter()
    bp = c.plan
    _check_configured(c, fabric, placement)

    stages: list[StageCount] = []
    bloom_fp: int | None = None

    if bp.has_join:
        stream, bloom_fp = _join_stream(c, bp, tables, dev, seed, stages)
    else:
        table = tables[bp.left_table]
        stream = _Stream((table,), {0: np.arange(table.row_count)})
        stages.append(StageCount("source", stream.n, stream.n))
        if bp.restriction is not None:
            kept = stream.keep(_mask(bp.restriction, stream))
            stages.append(StageCount("restriction", stream.n, kept.n))
            stream = kept

    if c.roles == ("passthrough",):
        stages.append(StageCount("passthrough", stream.n, stream.n))

    if bp.computed:
        _alu(bp, stream)
        stages.append(StageCount("alu", stream.n, stream.n))

    if bp.grouped:
        canonical = _aggregate(bp, stream)
        stages.append(StageCount("aggregate", stream.n, len(canonical[0].values)))
        n_keys = len(bp.group_by)
        columns = [canonical[col.source.index if isinstance(col.source, FromGroupKey)
                             else n_keys + col.source.index] for col in bp.output]
    else:
        columns = [stream.column(col.source.ref) for col in bp.output]
    n_out = len(columns[0].values)
    if needs_reorder(bp):
        stages.append(StageCount("reorder", n_out, n_out))

    if bp.order_by:
        order = sort_order([(columns[idx].values, asc) for idx, asc in bp.order_by])
        columns = [col.take(order) for col in columns]
        stages.append(StageCount("sort", n_out, n_out))

    table = Table.from_columns(bp.output_schema, columns)
    report = ExecReport(
        stages=tuple(stages),
        wall_seconds=time.perf_counter() - started,
        simulated_seconds=estimate.total_seconds if estimate is not None else None,
        bloom_false_positives=bloom_fp,
        order_specified=bool(bp.order_by),
        result_rows=n_out,
    )
    return table, report


def _check_configured(c, fabric: FabricState, placement: Placement):
    if not fabric.is_allocated(placement):
        raise NotReconfigured("placement is not allocated on this fabric")
    if len(placement.entries) != len(c.modules):
        raise NotReconfigured("placement does not match the pipeline's modules")
    for entry, module in zip(placement.entries, c.modules):
        if entry.instance.identity() != module.identity():
            raise NotReconfigured("placement holds different module content")
        if not fabric.is_resident(entry):
            raise NotReconfigured()


def _alu(bp: BoundPlan, stream: _Stream) -> None:
    """Append the computed columns; raise at the first row that faults."""
    checks = []
    for comp in bp.computed:
        if comp.ctype.kind is TypeKind.CHAR:  # a column or a string literal
            if isinstance(comp.expr, ValueRef):
                column = stream.column(comp.expr)
            else:
                column = Column.from_values(comp.ctype, [comp.expr.value] * stream.n)
            fault = None
        else:
            values, fault = _evaluate(comp.expr, stream)
            column = Column(comp.ctype, np.broadcast_to(values, (stream.n,)))
        checks.append((fault, comp.name))
        stream.computed.append(column)
    _raise_first(checks, stream.n)


# --------------------------------------------------------------------------
# join machinery
# --------------------------------------------------------------------------

def _join_stream(c, bp: BoundPlan, tables, dev: DeviceProfile, seed, stages):
    sides = (tables[bp.left_table], tables[bp.right_table])
    positions = [np.arange(t.row_count) for t in sides]
    n_source = sum(len(p) for p in positions)
    stages.append(StageCount("source", n_source, n_source))

    # Pre-join filtering is only sound when the predicate cannot fault:
    # with arithmetic inside, the whole predicate runs on the joined stream
    # in (left, right) order, exactly like the reference evaluator.
    pred = bp.restriction
    pushdown = pred is not None and not expr_has_arith(pred)
    mixed = []
    if pushdown:
        for conj in split_conjuncts(pred):
            slots = expr_slots(conj)
            slot = 0 if slots <= {0} else 1 if slots == {1} else None
            if slot is None:
                mixed.append(conj)
            else:
                side = _Stream(sides, {slot: positions[slot]})
                positions[slot] = positions[slot][_mask(conj, side)]
        stages.append(StageCount("restriction", n_source, sum(len(p) for p in positions)))

    key_type = bp.join_key_type
    keys = [_join_keys(side.columns[k], pos, key_type)
            for side, k, pos in zip(sides, (bp.join_left_index, bp.join_right_index),
                                    positions)]
    bloom_fp = None
    if c.join_algo == "hash_codesign":
        (left, right), bloom_fp, n_in = _codesign_pairs(c, bp, keys, dev, seed, stages)
        name = "host_join"
    else:
        left, right = match_pairs(keys[0], keys[1])
        if c.join_algo == "merge_fpga":
            stages.append(StageCount("sort_left", len(keys[0]), len(keys[0])))
            stages.append(StageCount("sort_right", len(keys[1]), len(keys[1])))
            name, n_in = "merge_join", len(keys[0]) + len(keys[1])
        else:
            name, n_in = "hash_join", max(map(len, keys))
    stream = _Stream(sides, {0: positions[0][left], 1: positions[1][right]})
    if mixed:
        stream = stream.keep(np.logical_and.reduce([_mask(conj, stream) for conj in mixed]))
    stages.append(StageCount(name, n_in, stream.n))

    if pred is not None and not pushdown:
        kept = stream.keep(_mask(pred, stream))
        stages.append(StageCount("restriction", stream.n, kept.n))
        stream = kept
    return stream, bloom_fp


def _join_keys(column: Column, positions: np.ndarray, key_type: ColumnType) -> np.ndarray:
    """Canonical join keys of the rows at `positions`: INT values, or CHAR
    bytes padded to the key width."""
    values = column.values[positions]
    if key_type.kind is TypeKind.CHAR:
        return pad_bytes(values, key_type.width_bytes)
    return values


def _codesign_pairs(c, bp: BoundPlan, keys, dev, seed, stages):
    """Bloom pre-filter, alignment, and the software host join. Returns the
    (left, right) position pairs in (left, right) order, the bloom false
    positives, and the host join's input count."""
    build_is_left = len(keys[0]) <= len(keys[1])
    build, probe = (0, 1) if build_is_left else (1, 0)
    schemas = (bp.left_schema, bp.right_schema)

    bloom_module = next(m for m, role in zip(c.modules, c.roles) if role == "bloom_cascade")
    n_stages = bloom_module.param("stages", 2)
    m_bits, k = bloom_dims(len(keys[build]))
    build_images = key_images(keys[build], bp.join_key_type)
    cascade = bloom_build(BloomCascadeConfig(n_stages, m_bits, k, seed), build_images)
    build_hashes = forwarded_hashes(cascade, build_images)
    mask, probe_hashes = bloom_probe_many(cascade, key_images(keys[probe], bp.join_key_type))
    passed = np.flatnonzero(mask)
    stages.append(StageCount("bloom_cascade", len(keys[probe]), len(passed)))
    bloom_fp = int(np.count_nonzero(~np.isin(keys[probe][passed], keys[build])))

    # alignment packs records into cache-line blocks; the host join reads
    # the forwarded hashes and keys, so only the record size is checked
    for side in (build, probe):
        records_per_block(schemas[side], dev.cache_line_bytes, with_hash=True)
    aligned = len(passed) + len(keys[build])
    stages.append(StageCount("align", aligned, aligned))

    build_pos, probe_pos = host_hash_join(build_hashes, keys[build],
                                          probe_hashes[passed], keys[probe][passed])
    probe_pos = passed[probe_pos]
    if build_is_left:  # pairs come in probe order; a stable sort puts left first
        order = np.argsort(build_pos, kind="stable")
        return (build_pos[order], probe_pos[order]), bloom_fp, aligned
    return (probe_pos, build_pos), bloom_fp, aligned


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def _aggregate(bp: BoundPlan, stream: _Stream) -> list[Column]:
    """Fold the stream into canonical (group keys..., aggregates...) columns,
    groups in first-appearance order. SUM and AVG accumulate in stream
    order and raise at the first row whose running sum overflows."""
    if stream.n == 0 and not bp.group_by and all(a.fn == "COUNT" for a in bp.aggregates):
        # a global COUNT over an empty stream is 0; with no NULL in the
        # model, any other aggregate over it yields no row
        return [Column(a.ctype, np.zeros(1, dtype=np.int64)) for a in bp.aggregates]
    keys = [stream.column(ref) for ref in bp.group_by]
    gid, first = group_ids([col.values for col in keys], stream.n)
    groups = len(first)
    counts = np.bincount(gid, minlength=groups)
    out = [col.take(first) for col in keys]
    checks = []
    for agg in bp.aggregates:
        arg = stream.column(agg.arg) if agg.arg is not None else None
        if agg.fn == "COUNT":
            out.append(Column(agg.ctype, counts))
        elif agg.fn in ("SUM", "AVG"):
            sums, fault = group_sums(arg.values, gid, groups)
            checks.append((fault, agg.name))
            if agg.fn == "AVG":
                sums = checked_arith("/", sums, counts)[0]
            out.append(Column(agg.ctype, sums))
        else:
            out.append(arg.take(group_extreme(arg.values, gid, groups, agg.fn)))
    _raise_first(checks, stream.n)
    return out
