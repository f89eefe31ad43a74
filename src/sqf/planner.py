"""Candidate pipeline enumeration, the time/energy calculus, and selection.

The calculus is a bottleneck/phase model (documented in docs/calculus.md):
streaming stages run concurrently at chained rates and contribute
`max(input/rate)`; sorts and hash-join builds add serial blocking phases;
reconfiguration and the co-design host stages (the host join and every
stage after it) add their own terms. Each candidate carries one ordered
stage list, which the calculus prices and the engine runs, and the source
bytes per tuple of each side, which its layout streams. Enumeration decides
these facts once per plan, from one walk of each top-level WHERE conjunct
and each computed select item, and builds each join algorithm's stage list
directly; the algorithms share the stages they have in common. All
cardinalities come from exact table statistics through textbook
independence heuristics, so estimates are deterministic. They are a stage
list's flows, which the layouts of one join algorithm share; rates and
bytes are each candidate's own. One function prices a candidate from its
flows, and every estimate carries its energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .engine.align import record_bytes
from .engine.bloom import analytic_fp_rate, bloom_dims
from .errors import MissingStats, NoCandidates
from .fabric import DeviceProfile
from .frontend.ast import Arith, BoolOp, IntLiteral, StrLiteral
from .frontend.binder import (
    BCmp,
    BoundPlan,
    ValueRef,
    needs_reorder,
    split_conjuncts,
    walk_bound,
)
from .library import (
    MAX_RESTRICTION_TERMS,
    OPTIONAL_KINDS,
    ModuleInstance,
    ModuleKind,
    instantiate,
)
from .relcore import TypeKind

DEFAULT_CMP_SELECTIVITY = 1.0 / 3.0

JOIN_ALGO_NONE = "none"
JOIN_ALGO_HASH = "hash_fpga"
JOIN_ALGO_MERGE = "merge_fpga"
JOIN_ALGO_CODESIGN = "hash_codesign"

HOST_HASH_JOIN = "HASH_JOIN_HOST"


@dataclass(frozen=True)
class Stage:
    """One stage of a candidate pipeline. `module` is None for the source
    and for host stages: the host join and every stage after it.

    `predicates` holds a restriction's (slot, predicate) filters; no other
    stage filters. Slot 0 or 1 filters that table before the join (a plan
    without a join has slot 0 only); slot None every row after the join."""

    role: str
    module: ModuleInstance | None = None
    predicates: tuple = ()


_SOURCE = Stage("source")


@dataclass(frozen=True)
class CandidatePipeline:
    tag: str
    join_algo: str
    layout: str  # "row" | "column"
    stages: tuple[Stage, ...]  # from the source, in the order the engine runs them
    plan: BoundPlan
    tuple_bytes: tuple[int, ...]  # per side, what the source stage streams per tuple

    @property
    def modules(self) -> tuple[ModuleInstance, ...]:
        """The fabric stages' modules in stream order."""
        return tuple(s.module for s in self.stages if s.module is not None)

    @property
    def host_stage(self) -> str | None:
        return HOST_HASH_JOIN if self.join_algo == JOIN_ALGO_CODESIGN else None


@dataclass(frozen=True)
class StageEstimate:
    name: str
    input_tuples: float
    rate_tps: float
    selectivity: float  # clipped to [0, 1] for reporting
    blocking_seconds: float

    @property
    def seconds(self) -> float:
        return self.input_tuples / self.rate_tps if self.rate_tps > 0 else 0.0


@dataclass(frozen=True)
class CostEstimate:
    """A candidate's estimate; a report's `estimate` section lists these
    fields, and each StageEstimate's, in this order."""

    stream_seconds: float
    blocking_seconds: float
    reconfig_seconds: float
    host_seconds: float
    total_seconds: float
    energy_joules: float
    stages: tuple[StageEstimate, ...]


# --------------------------------------------------------------------------
# plan analysis
# --------------------------------------------------------------------------

def _analyse(bp: BoundPlan):
    """(filters, ALU nodes, column-layout source bytes) of a plan, from one
    walk of each top-level WHERE conjunct and each computed select item.

    - filters: (slot, predicate, comparisons) per conjunct. A conjunct
      reading one table has that table's slot (slot 0 when it reads no
      column); one spanning both sides has slot None. A predicate holding
      arithmetic is one filter with slot None.
    - ALU nodes: each computed item's arithmetic nodes, and one for an item
      without arithmetic (a copied column or a literal). A predicate's
      arithmetic is evaluated by its restriction, not the ALU.
    - column-layout bytes: per side, the widths of the touched columns
      (join keys included), which column layout streams; None when the plan
      touches more than half of its tables' columns, as column layout is
      offered only otherwise.
    """
    touched = [set() for _ in bp.tables]

    def walk(expr):
        """(slots read, comparisons, arithmetic nodes) of `expr`, whose
        columns count as touched."""
        slots, terms, ariths = set(), 0, 0
        for node in walk_bound(expr):
            if isinstance(node, ValueRef) and node.kind == "column":
                slots.add(node.slot)
                touched[node.slot].add(node.index)
            elif isinstance(node, BCmp):
                terms += 1
            elif isinstance(node, Arith):
                ariths += 1
        return slots, terms, ariths

    conjuncts = split_conjuncts(bp.restriction) if bp.restriction is not None else []
    walked = [(conj, *walk(conj)) for conj in conjuncts]
    if any(ariths for *_, ariths in walked):
        filters = [(None, bp.restriction, sum(terms for _, _, terms, _ in walked))]
    else:
        filters = [(0 if slots <= {0} else 1 if slots == {1} else None, conj, terms)
                   for conj, slots, terms, _ in walked]
    nodes = sum(max(1, walk(comp.expr)[2]) for comp in bp.computed)

    refs = [*bp.group_by, *(agg.arg for agg in bp.aggregates if agg.arg is not None),
            *(() if bp.grouped else bp.output)]
    for ref in refs:
        if ref.kind == "column":
            touched[ref.slot].add(ref.index)
    for slot, index in enumerate(bp.join_keys):
        touched[slot].add(index)
    if 2 * sum(map(len, touched)) > sum(schema.arity for schema in bp.schemas):
        return filters, nodes, None
    return filters, nodes, tuple(max(1, sum(schema.columns[i][1].width_bytes for i in cols))
                                 for schema, cols in zip(bp.schemas, touched))


# --------------------------------------------------------------------------
# selectivity estimation
# --------------------------------------------------------------------------

def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def _column_stat(slot: int, index: int, bp: BoundPlan, stats: dict):
    """The stat of column `index` of the table in `slot`: `ColumnStats`
    holds one per schema column, in schema order."""
    return stats[bp.tables[slot]].columns[index]


def _cmp_selectivity(cmp: BCmp, bp: BoundPlan, stats: dict) -> float:
    lhs, rhs, op = cmp.lhs, cmp.rhs, cmp.op
    literal = (IntLiteral, StrLiteral)
    if isinstance(rhs, ValueRef) and isinstance(lhs, literal):
        lhs, rhs = rhs, lhs
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if isinstance(lhs, ValueRef) and lhs.kind == "column" and isinstance(rhs, literal):
        stat = _column_stat(lhs.slot, lhs.index, bp, stats)
        d = stat.distinct_count
        if op == "=":
            return _clamp(1.0 / d) if d > 0 else 1.0
        if op == "<>":
            return _clamp(1.0 - 1.0 / d) if d > 0 else 1.0
        if cmp.kind is TypeKind.INT and stat.min_value is not None:
            lo, hi, c = stat.min_value, stat.max_value, rhs.value
            if hi == lo:
                if op in ("<", "<="):
                    return 1.0 if (lo < c or (op == "<=" and lo == c)) else 0.0
                return 1.0 if (lo > c or (op == ">=" and lo == c)) else 0.0
            if op in ("<", "<="):
                return _clamp((c - lo) / (hi - lo))
            return _clamp((hi - c) / (hi - lo))
        return DEFAULT_CMP_SELECTIVITY
    if (
        op == "="
        and isinstance(lhs, ValueRef) and lhs.kind == "column"
        and isinstance(rhs, ValueRef) and rhs.kind == "column"
    ):
        d1 = _column_stat(lhs.slot, lhs.index, bp, stats).distinct_count
        d2 = _column_stat(rhs.slot, rhs.index, bp, stats).distinct_count
        d = max(d1, d2)
        return _clamp(1.0 / d) if d > 0 else 1.0
    return DEFAULT_CMP_SELECTIVITY


def estimate_selectivity(expr, bp: BoundPlan, stats: dict) -> float:
    """Independence-heuristic selectivity of a bound predicate, in [0, 1]."""
    if isinstance(expr, BCmp):
        return _cmp_selectivity(expr, bp, stats)
    if isinstance(expr, BoolOp):
        subs = [estimate_selectivity(c, bp, stats) for c in expr.children]
        if expr.op == "NOT":
            return _clamp(1.0 - subs[0])
        if expr.op == "AND":
            out = 1.0
            for s in subs:
                out *= s
            return _clamp(out)
        out = 0.0
        for s in subs:
            out = out + s - out * s
        return _clamp(out)
    return DEFAULT_CMP_SELECTIVITY


def _selectivity(predicates, selectivity) -> float:
    """Independence-heuristic selectivity of (slot, predicate) filters, each
    predicate's from `selectivity(predicate)`."""
    out = 1.0
    for _, pred in predicates:
        out *= selectivity(pred)
    return _clamp(out)


def _group_count(bp: BoundPlan, stats: dict, n_in: float) -> float:
    if not bp.group_by:
        return 1.0
    product = 1.0
    for ref in bp.group_by:
        if ref.kind == "column":
            d = _column_stat(ref.slot, ref.index, bp, stats).distinct_count
            product *= max(1, d)
        else:
            product *= max(1.0, n_in)
    return min(n_in, product) if n_in > 0 else 0.0


# --------------------------------------------------------------------------
# pipeline enumeration
# --------------------------------------------------------------------------

def _stage_lists(bp: BoundPlan, filters, nodes: int, lib: dict, algos) -> dict:
    """Each join algorithm's stages, from the source in the order the engine
    runs them, built from the plan's filters and ALU nodes (`_analyse`). A
    restriction holds (slot, predicate) filters.

    One rule places every WHERE, with or without a join: a conjunct reading
    one table filters that table's slot before the join, and a conjunct
    spanning both sides runs after the join. A predicate holding arithmetic
    runs whole after the join, so a faulting row is found in (left, right)
    join order, as the reference evaluator finds it. The host join and every
    stage after it are host stages, with no module; there no module holds
    the filters, so one host restriction holds them all. The stages the
    algorithms have in common are built once and shared.
    """
    def stage(role, kind, preds=(), **params):
        return Stage(role, instantiate(lib, kind, params), preds)

    def restriction(filters):
        """A chain of restrictions holding `filters` in order, each sized for
        the comparisons it evaluates: at most a RESTRICTION module's terms,
        unless one filter has more; none when there is no filter."""
        links = []  # (terms, filters) per restriction
        for slot, pred, terms in filters:
            if links and links[-1][0] + terms <= MAX_RESTRICTION_TERMS:
                links[-1] = (links[-1][0] + terms, links[-1][1] + ((slot, pred),))
            else:
                links.append((terms, ((slot, pred),)))
        return [stage("restriction", ModuleKind.RESTRICTION, link, terms=terms)
                for terms, link in links]

    before = restriction(f for f in filters if f[0] is not None)
    above = [f for f in filters if f[0] is None]
    after_join = restriction(above)
    host_filters = [Stage("restriction", None, tuple(f[:2] for f in above))] if above else []
    after = []
    if nodes:
        after.append(stage("alu", ModuleKind.ALU, nodes=nodes))
    if bp.grouped:
        after.append(stage("aggregate", ModuleKind.AGGREGATE, grouped=bool(bp.group_by)))
    if needs_reorder(bp):
        after.append(stage("reorder", ModuleKind.REORDER))
    if bp.order_by:
        after.append(stage("sort", ModuleKind.SORT))

    lists = {}
    for algo in algos:
        host = []
        if algo == JOIN_ALGO_HASH:
            fabric = [*before, stage("hash_join", ModuleKind.HASH_JOIN), *after_join, *after]
        elif algo == JOIN_ALGO_MERGE:
            fabric = [*before, stage("sort_left", ModuleKind.SORT),
                      stage("sort_right", ModuleKind.SORT),
                      stage("merge_join", ModuleKind.MERGE_JOIN), *after_join, *after]
        elif algo == JOIN_ALGO_CODESIGN:
            fabric = [*before, stage("bloom_cascade", ModuleKind.BLOOM_CASCADE),
                      stage("align", ModuleKind.ALIGN)]
            host = [Stage("host_join"), *host_filters,
                    *(Stage(s.role, None, s.predicates) for s in after)]
        else:
            fabric = [*before, *after_join, *after]
            fabric = fabric or [stage("passthrough", ModuleKind.PASSTHROUGH)]
        lists[algo] = (_SOURCE, *fabric, *host)
    return lists


def codesign_blockers(bp: BoundPlan, lib: dict, dev: DeviceProfile) -> list[str]:
    """Why a join gets no co-design variant: each filter kind the library
    lacks, then the sides whose co-design record is wider than the device's
    cache line, the alignment block (its multiplier is fixed at 1)."""
    blockers = [f"the library has no {kind.value} module"
                for kind in OPTIONAL_KINDS if kind not in lib]
    misfits = [f"{table} {record_bytes(schema)} B" for table, schema in zip(bp.tables, bp.schemas)
               if record_bytes(schema) > dev.cache_line_bytes]
    if misfits:
        blockers.append(f"co-design records wider than the {dev.cache_line_bytes}"
                        " B cache line: " + ", ".join(misfits))
    return blockers


def enumerate_pipelines(
    bp: BoundPlan, lib: dict, dev: DeviceProfile
) -> list[CandidatePipeline]:
    """All executable pipelines for a plan, in deterministic order:
    row-layout FPGA-only per join algorithm, column-layout variants when the
    plan touches at most half of the source columns, then the co-design
    variant when a join exists and `codesign_blockers` names nothing; a
    stage whose kind the library lacks raises UnknownModuleKind. The plan is
    analysed once; each candidate carries its stages and the source bytes
    per tuple its layout streams."""
    filters, nodes, column_bytes = _analyse(bp)
    algos = [JOIN_ALGO_HASH, JOIN_ALGO_MERGE] if bp.has_join else [JOIN_ALGO_NONE]
    layouts = {"row": tuple(schema.tuple_bytes for schema in bp.schemas),
               "column": column_bytes}
    variants = [(layout, algo) for layout, tb in layouts.items() if tb is not None
                for algo in algos]
    if bp.has_join and not codesign_blockers(bp, lib, dev):
        variants.append(("row", JOIN_ALGO_CODESIGN))

    stages = _stage_lists(bp, filters, nodes, lib, dict.fromkeys(algo for _, algo in variants))
    return [CandidatePipeline(f"{layout}/{algo}", algo, layout, stages[algo], bp,
                              layouts[layout])
            for layout, algo in variants]


# --------------------------------------------------------------------------
# the calculus
# --------------------------------------------------------------------------

def _require_stats(bp: BoundPlan, stats: dict):
    for table in bp.table_names():
        if table not in stats:
            raise MissingStats(table)


def _join_key_distinct(bp: BoundPlan, stats: dict) -> int:
    d_l, d_r = [_column_stat(slot, index, bp, stats).distinct_count
                for slot, index in enumerate(bp.join_keys)]
    return max(d_l, d_r, 1)


def _flows(stages, bp: BoundPlan, stats: dict, selectivity):
    """The logical flows of `stages` on `bp`: (source sides, one (input
    tuples, selectivity, reported selectivity, blocking levels, blocking
    tuples) per stage after the source).

    They depend only on the plan, the statistics and the stage list, so the
    layouts of one stage list share them. The selectivity is the raw
    output / input ratio, and the reported one is clipped to [0, 1]. A stage
    blocks for `levels * (blocking tuples / rate)`: a hash join's build
    side once, a fabric sort once per merge level. `selectivity(predicate)`
    gives a predicate's `estimate_selectivity`.
    """
    _require_stats(bp, stats)
    # the streams: one per table until the join, then the join's output
    sides = [float(stats[table].row_count) for table in bp.tables]
    source = tuple(sides)
    key_d = _join_key_distinct(bp, stats) if bp.has_join else 1
    flow = sum(sides)
    flows = []
    for stage in stages[1:]:
        role, module = stage.role, stage.module
        n_in = n_out = flow  # default: read the previous stage's output, keep it all
        levels, n_blocking = 0, 0.0

        if role == "restriction":
            sides = [n * _selectivity([p for p in stage.predicates if p[0] in (i, None)],
                                      selectivity)
                     for i, n in enumerate(sides)]
            n_out = sum(sides)
        elif role in ("hash_join", "merge_join", "host_join"):
            n_out = sides[0] * sides[1] / key_d
            if role == "hash_join":
                n_in = max(sides)
                levels, n_blocking = 1, min(sides)
            elif role == "merge_join":
                n_in = sides[0] + sides[1]
            sides = [n_out]
        elif role in ("sort_left", "sort_right"):
            n_in = n_out = sides[role == "sort_right"]
            levels, n_blocking = _sort_levels(module, n_in), n_in
        elif role == "bloom_cascade":
            n_build = min(sides)
            n_in = max(sides)
            join_key_out = sides[0] * sides[1] / key_d
            true_match = min(1.0, join_key_out / n_in) if n_in > 0 else 0.0
            m, k = bloom_dims(n_build)
            fp = analytic_fp_rate(m, k, n_build, module.param("stages"))
            n_out = n_in * _clamp(true_match + fp)
        elif role == "align":  # probe survivors plus the build side
            n_in = n_out = flow + min(sides)
        elif role == "aggregate":
            n_out = _group_count(bp, stats, n_in)
        elif role == "sort":
            levels, n_blocking = _sort_levels(module, n_in), n_in

        sel = n_out / n_in if n_in > 0 else 1.0
        flows.append((n_in, sel, _clamp(sel), levels, n_blocking))
        flow = n_out
    return source, flows


def _sort_levels(module, n: float) -> int:
    """Merge passes of a fabric sort; a host sort has no blocking phase."""
    runs = math.ceil(n / module.param("run_capacity")) if module is not None and n > 0 else 0
    return math.ceil(math.log2(runs)) if runs > 1 else 0


def _memo_flows(c: CandidatePipeline, stats: dict, memo: dict):
    """`_flows` of `c`, computed once per (plan, stage list) in `memo`, as
    is each (plan, predicate)'s selectivity. Keys are object ids; each entry
    holds the objects of its key, so no id is reused while the memo lives."""
    bp = c.plan
    hit = memo.get((id(bp), id(c.stages)))
    if hit is None:
        def selectivity(pred):
            known = memo.get((id(bp), id(pred)))
            if known is None:
                known = memo[id(bp), id(pred)] = (bp, pred, estimate_selectivity(pred, bp, stats))
            return known[2]

        hit = memo[id(bp), id(c.stages)] = (bp, c.stages,
                                            _flows(c.stages, bp, stats, selectivity))
    return hit[2]


def _source_stage(source, tuple_bytes, dev: DeviceProfile):
    """(seconds, upstream rate, StageEstimate) of the source stage, which
    streams `source` tuples per side from memory at `tuple_bytes` each: its
    seconds, the tuple rate of its widest side, which caps the first fabric
    stage, and its estimate."""
    seconds = sum(map(mul, source, tuple_bytes)) / dev.mem_bytes_per_s
    tuples = sum(source)
    r0 = dev.mem_bytes_per_s / max(*tuple_bytes, 1)
    return seconds, r0, StageEstimate("source", tuples, tuples / seconds if seconds > 0 else r0,
                                      1.0, 0.0)


def _price(c: CandidatePipeline, flows, dev: DeviceProfile) -> CostEstimate:
    """The estimate of `c` from its plan's `flows` (`_flows`): the rates,
    blocking and reconfiguration seconds of its layout and modules, and its
    energy."""
    source, stage_flows = flows
    stream_seconds, r0, source_stage = _source_stage(source, c.tuple_bytes, dev)
    stages = [source_stage]
    blocking_total = host_seconds = 0.0
    bitstream_bytes = 0
    active = []  # (slots, blocking seconds) per fabric stage
    upstream_rate = r0
    host_rate, clock_hz = dev.host_tuples_per_s, dev.clock_hz

    for stage, (n_in, sel, reported, levels, n_blocking) in zip(c.stages[1:], stage_flows):
        module = stage.module
        if module is None:  # a host stage, with no blocking phase
            stages.append(StageEstimate(stage.role, n_in, host_rate, reported, 0.0))
            host_seconds += n_in / host_rate
            continue
        spec = module.spec
        rate = min(upstream_rate, spec.tuples_per_cycle * min(clock_hz, spec.max_clock_hz))
        blocking = levels * (n_blocking / rate) if levels and rate > 0 else 0.0
        stages.append(StageEstimate(stage.role, n_in, rate, reported, blocking))
        stream_seconds = max(stream_seconds, n_in / rate if rate > 0 else 0.0)
        blocking_total += blocking
        bitstream_bytes += module.bitstream_bytes
        active.append((module.slots, blocking))
        upstream_rate = rate * sel if sel > 0 else rate

    reconfig_seconds = bitstream_bytes / dev.icap_bytes_per_s
    total = stream_seconds + blocking_total + reconfig_seconds + host_seconds
    # static power over the whole run, per-slot active power while a module
    # streams (plus its own blocking phases), and reconfiguration power
    energy = dev.p_static_w * total
    for slots, blocking in active:
        energy += dev.p_slot_active_w * slots * (stream_seconds + blocking)
    return CostEstimate(
        stream_seconds=stream_seconds,
        blocking_seconds=blocking_total,
        reconfig_seconds=reconfig_seconds,
        host_seconds=host_seconds,
        total_seconds=total,
        energy_joules=energy + dev.p_reconfig_w * reconfig_seconds,
        stages=tuple(stages),
    )


def full_estimate(
    c: CandidatePipeline, stats: dict, dev: DeviceProfile, memo: dict | None = None
) -> CostEstimate:
    """The estimate of `c`, energy included. `rank` passes one `memo` dict to
    every candidate it prices, so candidates of one plan share its flows and
    selectivities; a memo serves one `stats`."""
    return _price(c, _memo_flows(c, stats, {} if memo is None else memo), dev)


def rank(
    cands: list[CandidatePipeline], stats: dict, dev: DeviceProfile
) -> list[tuple[CandidatePipeline, CostEstimate]]:
    """Every candidate with its estimate, each priced once, in selection order:
    total time, then energy, then enumeration order."""
    if not cands:
        raise NoCandidates()
    memo: dict = {}
    priced = [(c, full_estimate(c, stats, dev, memo)) for c in cands]
    return sorted(priced, key=lambda p: (p[1].total_seconds, p[1].energy_joules))


def select_best(
    cands: list[CandidatePipeline], stats: dict, dev: DeviceProfile
) -> tuple[CandidatePipeline, CostEstimate]:
    """Argmin of total time; ties resolved by energy, then enumeration order."""
    return rank(cands, stats, dev)[0]


def software_baseline(
    c: CandidatePipeline, est: CostEstimate, stats: dict, dev: DeviceProfile
) -> tuple[float, float]:
    """(seconds, joules) for running the same logical stages serially on the
    profile's host processor; the reference point for modeled energy ratios.

    `est` is an estimate of `c` on any profile, as `rank` gives it. Its
    stages hold each stage's input tuples, which the profile does not
    change, so no flow is computed and nothing is priced again: the source
    streams from `dev`'s memory, and every later stage's input runs at its
    host rate."""
    source = [float(stats[table].row_count) for table in c.plan.tables]
    seconds = _source_stage(source, c.tuple_bytes, dev)[2].seconds
    for stage in est.stages[1:]:
        seconds += stage.input_tuples / dev.host_tuples_per_s
    return seconds, dev.p_static_w * seconds
