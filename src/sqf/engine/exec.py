"""Functional execution of a placed pipeline over real tables.

Execution is a functional simulation: stage semantics are exact (the result
multiset must match the reference evaluator), while simulated time comes
solely from the cost calculus. Predicates evaluate all operands (no short
circuit), and join output is processed in (left row, right row) order, so
arithmetic faults surface on the same logical row on every join algorithm
and on the reference route.

The engine runs a candidate's stage list as the planner built it: which
stages exist, their order, and where each predicate applies are decided
there, so the stages the calculus prices are the stages that run.

The engine is columnar: every stage runs as vector kernels over numpy
columns (`Table.columns`, one array per column; the plan's schemas give
their types). Rows are held as positions by join slot into the
tables they read, independent per slot until the join pairs them and aligned
after it, and cells are gathered only where a stage reads them. A slot that
still holds every row of its table has no positions: its columns are read
in place. That holds also after a stage that keeps every row in order (a
bloom stage that passes every probe row, or a join that pairs each outer
row with exactly one inner row), which leaves the slot as it is. A
filter turns its mask into an index list once and narrows the slot's
positions with it; a join's pair indices become the positions.
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
from ..frontend.ast import Arith, BoolOp, IntLiteral, StrLiteral
from ..frontend.binder import BCmp, BoundPlan, ValueRef
from ..hashing import CHECKSUM_SEED, KEY_IMAGE_SEED, fnv1a64_rows
from ..relcore import (
    ColumnType,
    Table,
    TypeKind,
    encode_columns,
    int_image,
    joint_codes,
    pad_bytes,
)
from .align import check_record_fits
from .bloom import BloomCascadeConfig, bloom_build_probe, bloom_dims
from .kernels import (
    OVERFLOW,
    checked_arith,
    group_extreme,
    group_extremes,
    group_ids,
    group_sums,
    pair_codes,
    rank,
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
    result_rows: int


# --------------------------------------------------------------------------
# expression evaluation
# --------------------------------------------------------------------------

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


def _evaluate(expr, column):
    """(values, fault codes or None) of a bound expression, reading each
    ValueRef's values through `column(ref)`: the engine passes a run's
    `_Run.column`.

    INT values are int64, CHAR values padded bytes, conditions booleans;
    literals broadcast. A CHAR comparison compares the padded cells' int64
    images (`int_image`) where they have them, which order like their
    bytes, and the padded bytes otherwise.
    A row's fault is its first in evaluation order: left operand, right
    operand, then the operation itself.
    """
    if isinstance(expr, ValueRef):
        return column(expr), None
    if isinstance(expr, IntLiteral):
        return np.int64(expr.value), None
    if isinstance(expr, StrLiteral):  # padded to its bound width, at least 1
        return np.array([expr.value.ljust(1).encode("ascii")]), None
    if isinstance(expr, Arith):
        a, fa = _evaluate(expr.lhs, column)
        b, fb = _evaluate(expr.rhs, column)
        values, fault = checked_arith(expr.op, a, b)
        return values, _first_fault(fa, fb, fault)
    if isinstance(expr, BCmp):
        a, fa = _evaluate(expr.lhs, column)
        b, fb = _evaluate(expr.rhs, column)
        if expr.kind is TypeKind.CHAR:
            a, b = pad_bytes(a, expr.width), pad_bytes(b, expr.width)
            image = int_image(a)
            if image is not None:  # compare order-preserving int64 images
                a, b = image, int_image(b)
        return _CMP[expr.op](a, b), _first_fault(fa, fb)
    if isinstance(expr, BoolOp):
        parts = [_evaluate(child, column) for child in expr.children]
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


def _mask(pred, column, n: int) -> np.ndarray:
    """Which of `n` rows pass a predicate, its columns read through
    `column`; an arithmetic fault raises for its row."""
    values, fault = _evaluate(pred, column)
    _raise_first([(fault, "WHERE")], n)
    return np.broadcast_to(values, (n,))


def key_images(keys: np.ndarray, key_type: ColumnType) -> np.ndarray:
    """64-bit images of canonical join keys: INT keys as their two's
    complement bits, padded CHAR keys hashed under KEY_IMAGE_SEED."""
    if key_type.kind is TypeKind.INT:
        return keys.view(np.uint64)
    return fnv1a64_rows([keys.view(np.uint8).reshape(len(keys), key_type.width_bytes)],
                        [KEY_IMAGE_SEED])[0]


def result_checksum(table: Table) -> int:
    """Order-insensitive 64-bit digest of a result table: the row hashes of
    its columns, summed modulo 2^64."""
    hashes = fnv1a64_rows(encode_columns(table.columns), [CHECKSUM_SEED])
    return int(hashes.sum(dtype=np.uint64))


# --------------------------------------------------------------------------
# the executor
# --------------------------------------------------------------------------

def gather(values: np.ndarray, pos: np.ndarray | None) -> np.ndarray:
    """A table column's values at a slot's positions, in that order; None
    is every row, read in place (the column itself)."""
    return values if pos is None else values[pos]


def execute_pipeline(
    c: "CandidatePipeline",
    tables: dict,
    fabric: FabricState,
    placement: Placement,
    dev: DeviceProfile,
    seed: int = 0,
    estimate=None,
) -> tuple[Table, ExecReport]:
    """Run a planner candidate's stages in order, one StageCount per stage.

    Requires `placement` to be allocated and reconfigured for `c`'s modules.
    Result row order is fully specified only when the plan has ORDER BY.
    """
    started = time.perf_counter()
    bp = c.plan
    _check_configured(c, fabric, placement)
    run = _Run(bp, tables, dev, seed)
    stages = tuple(StageCount(s.role, *getattr(run, s.role)(s)) for s in c.stages)
    table = Table(bp.output_schema, tuple(run.output()))
    report = ExecReport(
        stages=stages,
        wall_seconds=time.perf_counter() - started,
        simulated_seconds=estimate.total_seconds if estimate is not None else None,
        bloom_false_positives=run.bloom_fp,
        result_rows=table.row_count,
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


class _Run:
    """One execution. Each stage role is a method that advances the run and
    returns the stage's (input, output) row counts.

    Its rows are positions by join slot, plus the computed columns. A
    slot's positions are None while it holds every row of its table, so its
    columns and join keys are read in place. A bloom stage or join that
    keeps every row in order narrows nothing, so a slot's positions stay
    None past it.
    Until the join, each slot's positions are filtered on their own; the
    join pairs them, and from then on (from the start without a join) the
    slots and the computed columns are aligned, one entry per row. The
    join keys are coded once per run, jointly for both sides: by the bloom
    stage, whose codes `narrow` keeps aligned with the rows until the host
    join pairs on them, or else by the join itself.
    """

    def __init__(self, bp: BoundPlan, tables: dict, dev: DeviceProfile, seed: int):
        self.bp, self.dev, self.seed = bp, dev, seed
        self.sides = tuple(tables[name] for name in bp.table_names())
        self.positions = [None] * len(self.sides)  # None: every row
        self.joined = not bp.has_join
        self.computed: list[np.ndarray] = []
        self.columns = None  # output columns, once projected or aggregated
        self.codes = None  # `joint_codes` of the join keys: ([codes per slot], count, base)
        self.bloom_fp = None

    def rows(self, slot: int) -> int:
        """The number of rows a slot holds."""
        pos = self.positions[slot]
        return self.sides[slot].row_count if pos is None else len(pos)

    @property
    def n(self) -> int:
        return self.rows(0) if self.joined else self.rows(0) + self.rows(1)

    def narrow(self, slot: int, index: np.ndarray | None) -> None:
        """Keep a slot's rows at `index`, positions into its current rows,
        and the join key codes of those rows, once coded. None keeps every
        row in order: the positions and codes stay as they are."""
        if index is None:
            return
        pos = self.positions[slot]
        self.positions[slot] = index if pos is None else pos[index]
        if self.codes is not None:
            self.codes[0][slot] = self.codes[0][slot][index]

    def column(self, ref: ValueRef) -> np.ndarray:
        """A table column or a computed attribute at the current rows."""
        if ref.kind == "computed":
            return self.computed[ref.index]
        return gather(self.sides[ref.slot].columns[ref.index], self.positions[ref.slot])

    def keys(self) -> list[np.ndarray]:
        """Canonical join keys of each side's current rows: INT values, or
        CHAR bytes padded to the key width."""
        bp = self.bp
        keys = [gather(side.columns[k], pos) for side, k, pos in
                zip(self.sides, bp.join_keys, self.positions)]
        if bp.join_key_type.kind is TypeKind.CHAR:
            keys = [pad_bytes(k, bp.join_key_type.width_bytes) for k in keys]
        return keys

    def output(self) -> list[np.ndarray]:
        if self.columns is None:
            self.columns = [self.column(ref) for ref in self.bp.output]
        return self.columns

    def _join(self, n_in):
        """Pair the sides' rows with equal keys in (left, right) order, on
        their key codes: the bloom stage's, else coded here."""
        if self.codes is None:
            self.codes = joint_codes(self.keys())
        (left, right), n_codes, _ = self.codes
        self.codes = None  # the key codes end with the join
        for slot, index in enumerate(pair_codes(left, right, n_codes)):
            self.narrow(slot, index)
        self.joined = True
        return n_in, self.n

    def source(self, stage):
        return self.n, self.n

    passthrough = source

    def restriction(self, stage):
        """Apply (slot, predicate) filters: slot 0/1 filters that slot's
        positions, None every slot. Each mask becomes one index list. A
        restriction runs before the ALU, so there are no computed columns
        to filter."""
        n_in = self.n
        for slot, pred in stage.predicates:
            slots = range(len(self.sides)) if slot is None else (slot,)
            keep = np.flatnonzero(_mask(pred, self.column, self.rows(slots[0])))
            for s in slots:
                self.narrow(s, keep)
        return n_in, self.n

    def sort_left(self, stage):
        return self.rows(0), self.rows(0)

    def sort_right(self, stage):
        return self.rows(1), self.rows(1)

    def hash_join(self, stage):
        return self._join(max(self.rows(0), self.rows(1)))

    def merge_join(self, stage):
        return self._join(self.n)

    host_join = merge_join

    def bloom_cascade(self, stage):
        """Build the cascade over the smaller side and keep the probe rows
        that pass it, a side filter like a pushed-down restriction.

        Each distinct key of either side is hashed once: both sides' keys
        are coded jointly (`joint_codes`), and one hash pass over the codes
        either side holds sets the bits of the codes the build side holds
        and yields a pass flag per code, gathered back to the probe rows.
        Setting a bit twice changes nothing, so the bits and the mask are
        those of hashing every row. An offset-coded INT code's key is the
        base plus the code; any other code's key is scattered from the rows
        that hold it. The probe side's codes are narrowed with its rows, and
        the host join pairs on them; when every probe row passes, neither
        is touched."""
        keys = self.keys()
        self.codes = side_codes, n_codes, base = joint_codes(keys)
        self.build = build = 0 if len(keys[0]) <= len(keys[1]) else 1
        probe = 1 - build
        held = [np.zeros(n_codes, dtype=bool) for _ in keys]  # the codes each side holds
        for side in (0, 1):
            held[side][side_codes[side]] = True
        union = np.flatnonzero(held[0] | held[1])
        if base is not None and self.bp.join_key_type.kind is TypeKind.INT:
            union_keys = union + np.int64(base)
        else:
            key_of = np.empty(n_codes, dtype=keys[0].dtype)  # the key of each code held
            for side in (0, 1):
                key_of[side_codes[side]] = keys[side]
            union_keys = key_of[union]
        m_bits, k = bloom_dims(len(keys[build]))
        config = BloomCascadeConfig(stage.module.param("stages"), m_bits, k, self.seed)
        images = key_images(union_keys, self.bp.join_key_type)
        passes = np.zeros(n_codes, dtype=bool)
        passes[union] = bloom_build_probe(config, images, held[build][union])
        keep = np.flatnonzero(passes[side_codes[probe]])
        self.narrow(probe, None if len(keep) == len(keys[probe]) else keep)
        kept = self.codes[0][probe]  # the codes of the probe rows kept
        self.bloom_fp = len(kept) - int(np.count_nonzero(held[build][kept]))
        return len(keys[probe]), len(kept)

    def align(self, stage):
        """Alignment packs each side's co-design records into cache-line
        blocks; the engine checks only that a record fits one."""
        for side in (self.build, 1 - self.build):
            check_record_fits(self.bp.schemas[side], self.dev.cache_line_bytes)
        return self.n, self.n

    def alu(self, stage):
        _alu(self.bp, self)
        return self.n, self.n

    def aggregate(self, stage):
        canonical = _aggregate(self.bp, self)
        self.columns = [canonical[i] for i in self.bp.output]
        return self.n, len(canonical[0])

    def reorder(self, stage):
        n = len(self.output()[0])
        return n, n

    def sort(self, stage):
        columns = self.output()
        order = sort_order([(columns[idx], asc) for idx, asc in self.bp.order_by])
        self.columns = [col[order] for col in columns]
        return len(order), len(order)


def _alu(bp: BoundPlan, run: _Run) -> None:
    """Append the computed columns; raise at the first row that faults."""
    checks = []
    for comp in bp.computed:
        values, fault = _evaluate(comp.expr, run.column)
        checks.append((fault, comp.name))
        run.computed.append(np.broadcast_to(values, (run.n,)))
    _raise_first(checks, run.n)


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def _aggregate(bp: BoundPlan, run: _Run) -> list[np.ndarray]:
    """Fold the run's rows into canonical (group keys..., aggregates...)
    columns, groups in first-appearance order. SUM and AVG accumulate in row
    order and raise at the first row whose running sum overflows.

    Aggregates fold in code space, one entry per group id (`group_ids`),
    and are put in appearance order once, at the end. Each distinct
    argument is gathered once. An INT MIN or MAX is the per-id extreme of
    the values; a CHAR one is ranked once and read at its extreme's row."""
    if run.n == 0 and not bp.group_by and all(a.fn == "COUNT" for a in bp.aggregates):
        # a global COUNT over no rows is 0; with no NULL in the
        # model, any other aggregate over it yields no row
        return [np.zeros(1, dtype=np.int64) for _ in bp.aggregates]
    column = functools.cache(run.column)  # each column gathered once
    keys = [column(ref) for ref in bp.group_by]
    gid, order, first, counts = group_ids(keys, run.n)
    out = [key[first] for key in keys]
    ranked = functools.cache(lambda ref: rank(column(ref)))
    checks = []
    for agg in bp.aggregates:
        if agg.fn == "COUNT":
            out.append(counts[order])
        elif agg.fn in ("SUM", "AVG"):
            sums, fault = group_sums(column(agg.arg), gid, len(counts))
            checks.append((fault, agg.name))
            sums = sums[order]
            if agg.fn == "AVG":
                sums = checked_arith("/", sums, counts[order])[0]
            out.append(sums)
        elif agg.arg.ctype.kind is TypeKind.INT:  # the per-id extreme is the value
            out.append(group_extremes(column(agg.arg), gid, len(counts), agg.fn)[order])
        else:
            rows = group_extreme(ranked(agg.arg), gid, len(counts), agg.fn)
            out.append(column(agg.arg)[rows[order]])
    _raise_first(checks, run.n)
    return out
