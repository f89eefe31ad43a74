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
`bitstream_bytes = slots * bitstream_bytes_per_slot`. `instantiate` records
every sizing parameter it used in the instance's `params`, its default
included, so the calculus and the engine read the value the slots were
sized with.

`read_json` and `record` read every JSON configuration file: this catalog,
the device profiles and the suite manifest. Each is UTF-8 JSON whose
objects hold exactly their documented fields plus an optional `comment`.
"""

from __future__ import annotations

import enum
import functools
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

    # Members are singletons, so equality is identity: the identity hash
    # keeps every dict lookup keyed on a kind out of Python-level hashing.
    __hash__ = object.__hash__


# the co-design filter kinds, in the order a forced choice's error names them
OPTIONAL_KINDS = (ModuleKind.BLOOM_CASCADE, ModuleKind.ALIGN)


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

    def param(self, name: str):
        return dict(self.params)[name]

    def identity(self) -> tuple:
        """Residency key: what content a loaded bitstream represents."""
        return (self.spec.kind.value, self.params)


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


def read_json(path, what: str, top: type):
    """The JSON document in the UTF-8 file `path`, whose top level must be a
    `top` (`dict` or `list`); `what` names the file in a missing-file error."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such {what}: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    # ValueError covers undecodable bytes, malformed JSON and integers past
    # the digit limit; RecursionError, arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise LibraryParseError(f"{p}: {exc}") from None
    if not isinstance(doc, top):
        raise LibraryParseError(
            f"{p}: top level must be {'an object' if top is dict else 'an array'}")
    return doc


def record(value, what: str, checks: dict, optional=()) -> dict:
    """`value` as a JSON object holding exactly the keys of `checks` (those in
    `optional` may be absent) plus an optional documentation-only `comment`;
    each present field becomes `check(value, key)`."""
    if not isinstance(value, dict):
        raise LibraryParseError(f"{what} must be an object")
    for key in value:
        if key not in checks and key != "comment":
            raise InvalidField(key, "unknown field")
    for key in checks:
        if key not in value and key not in optional:
            raise InvalidField(key, "missing field")
    return {key: check(value, key) for key, check in checks.items() if key in value}


def _kind(rec: dict, name: str) -> ModuleKind:
    try:
        return ModuleKind(rec[name])
    except ValueError:
        raise InvalidField(name, f"unknown module kind `{rec[name]}`") from None


_SPEC_CHECKS = {"kind": _kind, "base_slots": json_int, "slots_per_unit": json_int,
                "bitstream_bytes_per_slot": json_int, "tuples_per_cycle": json_float,
                "max_clock_hz": json_float}


def load_library(path) -> dict:
    """Load the module catalog, `{ModuleKind: ModuleSpec}`, from a JSON array
    of spec records, each a `record` of exactly the ModuleSpec fields."""
    specs: dict = {}
    for rec in read_json(path, "library file", list):
        spec = ModuleSpec(**record(rec, "spec record", _SPEC_CHECKS))
        if spec.kind in specs:
            raise DuplicateKind(spec.kind.value)
        specs[spec.kind] = spec

    for kind in ModuleKind:
        if kind not in specs and kind not in OPTIONAL_KINDS:
            raise MissingKind(kind.value)
    return specs


# kind -> (sizing parameter, default, smallest, largest, values per slot
# unit); an instance takes ceil(value / values per unit) units, and a kind
# not listed takes none
_UNITS = {
    ModuleKind.RESTRICTION: ("terms", 1, 1, MAX_RESTRICTION_TERMS, 4),
    ModuleKind.ALU: ("nodes", 1, 1, MAX_ALU_NODES, 4),
    # pinned; keeps worst-case chains within one region
    ModuleKind.SORT: ("run_capacity", 1024, 1, MAX_SORT_RUN_CAPACITY, 1024),
    ModuleKind.BLOOM_CASCADE: ("stages", 2, 1, MAX_BLOOM_STAGES, 1),
    ModuleKind.AGGREGATE: ("grouped", False, 0, 1, 1),
}


def instantiate(
    lib: dict,
    kind: ModuleKind,
    params: dict | None = None,
) -> ModuleInstance:
    """A parameterized instance; slots and bitstream size follow the spec.
    The range check runs on every call; the instance, a pure function of
    the spec and the canonical params, is built once and then shared."""
    if kind not in lib:
        raise UnknownModuleKind(kind.value)
    spec = lib[kind]
    params = dict(params or {})
    sizing = _UNITS.get(kind)
    if sizing is not None:
        name, default, lo, hi, _ = sizing
        value = params.setdefault(name, default)
        if not lo <= value <= hi:
            raise ParamOutOfRange(kind.value, f"{name} must be in [{lo}, {hi}]")
    canonical = tuple(sorted(params.items()))
    return _instance(spec, canonical, tuple(type(v) for _, v in canonical))


@functools.lru_cache(maxsize=1024)
def _instance(spec: ModuleSpec, params: tuple, types: tuple) -> ModuleInstance:
    """The instance of `spec` with canonical `params`. `types` keeps apart
    values that compare equal but differ in type (`1` and `True`), so an
    instance holds the values it was asked for."""
    units = 0
    sizing = _UNITS.get(spec.kind)
    if sizing is not None:
        name, _, _, _, per_unit = sizing
        units = math.ceil(dict(params)[name] / per_unit)
    slots = spec.base_slots + spec.slots_per_unit * units
    return ModuleInstance(
        spec=spec,
        params=params,
        slots=slots,
        bitstream_bytes=slots * spec.bitstream_bytes_per_slot,
    )
