"""Catalog of pre-synthesized operator modules and their instantiation.

Each module kind has one spec with slot, bitstream, and throughput metadata.
Instances scale in slots with a kind-specific unit quantity:

    RESTRICTION    one unit per started block of 4 predicate terms
    ALU            one unit per started block of 4 arithmetic nodes
    SORT           one unit per started 1024-tuple run-capacity block
    BLOOM_CASCADE  one unit per filter stage
    AGGREGATE      one unit when grouping is required
    (all other kinds have zero units)

so `slots = base_slots + slots_per_unit * units` and
`bitstream_bytes = slots * bitstream_bytes_per_slot`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DuplicateKind,
    InvalidField,
    LibraryParseError,
    MissingKind,
    ParamOutOfRange,
    UnknownModuleKind,
)

MAX_RESTRICTION_TERMS = 8
MAX_ALU_NODES = 16
MAX_SORT_RUN_CAPACITY = 1 << 20
MAX_BLOOM_STAGES = 8
MAX_TUPLES_PER_CYCLE = 4.0


class ModuleKind(enum.Enum):
    RESTRICTION = "RESTRICTION"
    ALU = "ALU"
    AGGREGATE = "AGGREGATE"
    REORDER = "REORDER"
    SORT = "SORT"
    MERGE_JOIN = "MERGE_JOIN"
    HASH_JOIN = "HASH_JOIN"
    BLOOM_CASCADE = "BLOOM_CASCADE"
    ALIGN = "ALIGN"
    PASSTHROUGH = "PASSTHROUGH"


OPTIONAL_KINDS = frozenset({ModuleKind.BLOOM_CASCADE, ModuleKind.ALIGN})

_SPEC_FIELDS = (
    "kind",
    "base_slots",
    "slots_per_unit",
    "bitstream_bytes_per_slot",
    "tuples_per_cycle",
    "max_clock_hz",
)


@dataclass(frozen=True)
class ModuleSpec:
    kind: ModuleKind
    base_slots: int
    slots_per_unit: int
    bitstream_bytes_per_slot: int
    tuples_per_cycle: float
    max_clock_hz: float

    def __post_init__(self):
        if self.base_slots < 1:
            raise InvalidField("base_slots", "must be positive")
        if self.slots_per_unit < 0:
            raise InvalidField("slots_per_unit", "must be non-negative")
        if self.bitstream_bytes_per_slot < 1:
            raise InvalidField("bitstream_bytes_per_slot", "must be positive")
        if not 0 < self.tuples_per_cycle <= MAX_TUPLES_PER_CYCLE:
            raise InvalidField("tuples_per_cycle", f"must be in (0, {MAX_TUPLES_PER_CYCLE}]")
        if self.max_clock_hz <= 0:
            raise InvalidField("max_clock_hz", "must be positive")


@dataclass(frozen=True)
class ModuleInstance:
    spec: ModuleSpec
    params: tuple[tuple[str, object], ...]  # canonical sorted (key, value) pairs
    slots: int
    bitstream_bytes: int

    @property
    def kind(self) -> ModuleKind:
        return self.spec.kind

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def identity(self) -> tuple:
        """Residency key: what content a loaded bitstream represents."""
        return (self.spec.kind.value, self.params)


@dataclass(frozen=True)
class ModuleLibrary:
    specs: dict

    def __contains__(self, kind: ModuleKind) -> bool:
        return kind in self.specs

    def spec(self, kind: ModuleKind) -> ModuleSpec:
        if kind not in self.specs:
            raise UnknownModuleKind(kind.value)
        return self.specs[kind]

    @property
    def kinds(self) -> tuple[ModuleKind, ...]:
        return tuple(self.specs)


def json_int(rec: dict, name: str) -> int:
    """An integer field of a JSON record; booleans and fractions are rejected."""
    value = rec[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidField(name, "must be an integer")
    return value


def json_float(rec: dict, name: str) -> float:
    """A finite numeric field of a JSON record."""
    value = rec[name]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidField(name, "must be a finite number")


def load_library(path) -> ModuleLibrary:
    """Load the module catalog from a JSON array of spec records.

    Records carry exactly the ModuleSpec field names plus an optional
    `comment` string (documentation only); anything else is rejected.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such library file: {p}")
    try:
        records = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LibraryParseError(f"{p}: {exc}") from exc
    if not isinstance(records, list):
        raise LibraryParseError(f"{p}: top level must be an array of spec records")

    specs: dict = {}
    for rec in records:
        if not isinstance(rec, dict):
            raise LibraryParseError("spec record must be an object")
        for key in rec:
            if key not in _SPEC_FIELDS and key != "comment":
                raise InvalidField(key, "unknown field")
        for key in _SPEC_FIELDS:
            if key not in rec:
                raise InvalidField(key, "missing field")
        try:
            kind = ModuleKind(rec["kind"])
        except ValueError:
            raise InvalidField("kind", f"unknown module kind `{rec['kind']}`") from None
        if kind in specs:
            raise DuplicateKind(kind.value)
        specs[kind] = ModuleSpec(
            kind=kind,
            base_slots=json_int(rec, "base_slots"),
            slots_per_unit=json_int(rec, "slots_per_unit"),
            bitstream_bytes_per_slot=json_int(rec, "bitstream_bytes_per_slot"),
            tuples_per_cycle=json_float(rec, "tuples_per_cycle"),
            max_clock_hz=json_float(rec, "max_clock_hz"),
        )

    for kind in ModuleKind:
        if kind not in specs and kind not in OPTIONAL_KINDS:
            raise MissingKind(kind.value)
    return ModuleLibrary(specs)


def _units(kind: ModuleKind, params: dict) -> int:
    if kind is ModuleKind.RESTRICTION:
        terms = params.get("terms", 1)
        if not 1 <= terms <= MAX_RESTRICTION_TERMS:
            raise ParamOutOfRange(kind.value, f"terms must be in [1, {MAX_RESTRICTION_TERMS}]")
        return math.ceil(terms / 4)
    if kind is ModuleKind.ALU:
        nodes = params.get("nodes", 1)
        if not 1 <= nodes <= MAX_ALU_NODES:
            raise ParamOutOfRange(kind.value, f"nodes must be in [1, {MAX_ALU_NODES}]")
        return math.ceil(nodes / 4)
    if kind is ModuleKind.SORT:
        capacity = params.get("run_capacity", 1024)
        if not 1 <= capacity <= MAX_SORT_RUN_CAPACITY:
            raise ParamOutOfRange(kind.value, "run_capacity out of range")
        return math.ceil(capacity / 1024)
    if kind is ModuleKind.BLOOM_CASCADE:
        stages = params.get("stages", 1)
        if not 1 <= stages <= MAX_BLOOM_STAGES:
            raise ParamOutOfRange(kind.value, f"stages must be in [1, {MAX_BLOOM_STAGES}]")
        return stages
    if kind is ModuleKind.AGGREGATE:
        return 1 if params.get("grouped", False) else 0
    return 0


def instantiate(
    lib: ModuleLibrary,
    kind: ModuleKind,
    params: dict | None = None,
) -> ModuleInstance:
    """Create a parameterized instance; slots and bitstream size follow the spec."""
    spec = lib.spec(kind)
    params = dict(params or {})
    units = _units(kind, params)
    slots = spec.base_slots + spec.slots_per_unit * units
    canonical = tuple(sorted(params.items()))
    return ModuleInstance(
        spec=spec,
        params=canonical,
        slots=slots,
        bitstream_bytes=slots * spec.bitstream_bytes_per_slot,
    )
