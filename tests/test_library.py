from __future__ import annotations

import enum
import json

import pytest

from conftest import REPO, bind_sql
from sqf.errors import (
    DuplicateKind,
    InvalidField,
    MissingKind,
    ParamOutOfRange,
    UnknownModuleKind,
)
from sqf.library import ModuleKind, instantiate, load_library
from sqf.planner import enumerate_pipelines
from sqf.relcore import load_csv


def test_default_library_has_all_kinds(default_library):
    assert len(default_library) == 10
    for kind in ModuleKind:
        assert kind in default_library


def test_planning_hashes_no_kind_in_python(default_library, default_device, suite_dir,
                                           monkeypatch):
    """Dicts keyed on a kind look it up by its identity hash: enumerating
    the suite's queries calls no Python-level `Enum.__hash__`."""
    calls = [0]
    real = enum.Enum.__hash__

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counting)
    tables = {name: load_csv(suite_dir / "tables" / f"{name}.csv")
              for name in ("orders", "customers")}
    for query in sorted(suite_dir.glob("q*.sql")):
        assert enumerate_pipelines(bind_sql(query.read_text(), tables), default_library,
                                   default_device)
    assert calls[0] == 0
    assert {kind: kind.value for kind in ModuleKind}[ModuleKind("SORT")] == "SORT"


def _records():
    return json.loads((REPO / "library.default.json").read_text())


def test_missing_kind(tmp_path):
    records = [r for r in _records() if r["kind"] != "SORT"]
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(records))
    with pytest.raises(MissingKind) as err:
        load_library(path)
    assert err.value.kind == "SORT"


def test_optional_kinds_may_be_absent(tmp_path):
    records = [r for r in _records() if r["kind"] not in ("BLOOM_CASCADE", "ALIGN")]
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(records))
    lib = load_library(path)
    assert ModuleKind.BLOOM_CASCADE not in lib
    assert ModuleKind.ALIGN not in lib


def test_duplicate_kind(tmp_path):
    records = _records()
    records.append(dict(records[-1]))
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(records))
    with pytest.raises(DuplicateKind):
        load_library(path)


def test_invalid_field_zero_bitstream(tmp_path):
    records = _records()
    records[0]["bitstream_bytes_per_slot"] = 0
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(records))
    with pytest.raises(InvalidField):
        load_library(path)


def test_unknown_field_rejected(tmp_path):
    records = _records()
    records[0]["lut_count"] = 99
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(records))
    with pytest.raises(InvalidField) as err:
        load_library(path)
    assert err.value.name == "lut_count"


def test_restriction_sizing(default_library):
    inst = instantiate(default_library, ModuleKind.RESTRICTION, {"terms": 2})
    # 2 terms fit one 4-term block
    spec = default_library[ModuleKind.RESTRICTION]
    assert inst.slots == spec.base_slots + spec.slots_per_unit * 1
    five = instantiate(default_library, ModuleKind.RESTRICTION, {"terms": 5})
    assert five.slots == spec.base_slots + spec.slots_per_unit * 2


def test_restriction_two_terms_single_slot(tmp_path):
    # base_slots 1 with slots_per_unit 0: up to the cap, always one slot
    records = _records()
    for rec in records:
        if rec["kind"] == "RESTRICTION":
            rec["base_slots"] = 1
            rec["slots_per_unit"] = 0
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(records))
    lib = load_library(path)
    inst = instantiate(lib, ModuleKind.RESTRICTION, {"terms": 2})
    assert inst.slots == 1


def test_sort_sizing(default_library):
    spec = default_library[ModuleKind.SORT]
    inst = instantiate(default_library, ModuleKind.SORT, {"run_capacity": 4096})
    assert inst.slots == spec.base_slots + spec.slots_per_unit * 4


def test_unknown_module_kind(tmp_path):
    records = [r for r in _records() if r["kind"] != "ALIGN"]
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(records))
    lib = load_library(path)
    with pytest.raises(UnknownModuleKind):
        instantiate(lib, ModuleKind.ALIGN)


def test_param_out_of_range(default_library):
    for kind, params, message in [
        (ModuleKind.RESTRICTION, {"terms": 9}, "RESTRICTION: terms must be in [1, 8]"),
        (ModuleKind.ALU, {"nodes": 0}, "ALU: nodes must be in [1, 16]"),
        (ModuleKind.SORT, {"run_capacity": 0}, "SORT: run_capacity must be in [1, 1048576]"),
        (ModuleKind.BLOOM_CASCADE, {"stages": 0}, "BLOOM_CASCADE: stages must be in [1, 8]"),
    ]:
        with pytest.raises(ParamOutOfRange) as err:
            instantiate(default_library, kind, params)
        assert str(err.value) == message


@pytest.mark.parametrize("kind, name", [
    (ModuleKind.RESTRICTION, "terms"),
    (ModuleKind.ALU, "nodes"),
    (ModuleKind.SORT, "run_capacity"),
    (ModuleKind.BLOOM_CASCADE, "stages"),
    (ModuleKind.AGGREGATE, "grouped"),
])
def test_default_instance_records_its_sizing_value(default_library, kind, name):
    """An instance built without parameters reports, through `param`, the
    value its slots were sized with: passing that value builds it again."""
    default = instantiate(default_library, kind)
    assert instantiate(default_library, kind, {name: default.param(name)}) == default


def test_bitstream_monotone_in_slots(default_library):
    sizes = [
        instantiate(default_library, ModuleKind.SORT, {"run_capacity": cap}).bitstream_bytes
        for cap in (1024, 2048, 4096, 8192)
    ]
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


def test_instantiate_is_pure(default_library):
    a = instantiate(default_library, ModuleKind.ALU, {"nodes": 3})
    b = instantiate(default_library, ModuleKind.ALU, {"nodes": 3})
    assert a == b
    assert a.slots >= 1
    assert a.bitstream_bytes == a.slots * a.spec.bitstream_bytes_per_slot


def test_equal_arguments_give_the_identical_instance(default_library):
    a = instantiate(default_library, ModuleKind.RESTRICTION, {"terms": 3})
    assert instantiate(default_library, ModuleKind.RESTRICTION, {"terms": 3}) is a
    # the default is part of the canonical params, and equal specs are one key
    again = load_library(REPO / "library.default.json")
    assert instantiate(again, ModuleKind.SORT) is instantiate(
        default_library, ModuleKind.SORT, {"run_capacity": 1024})
    # values that compare equal but differ in type are kept apart
    one = instantiate(default_library, ModuleKind.AGGREGATE, {"grouped": 1})
    true = instantiate(default_library, ModuleKind.AGGREGATE, {"grouped": True})
    assert type(one.param("grouped")) is int and type(true.param("grouped")) is bool


def test_out_of_range_raises_on_every_call(default_library):
    assert instantiate(default_library, ModuleKind.RESTRICTION, {"terms": 8}).param("terms") == 8
    for _ in range(3):
        with pytest.raises(ParamOutOfRange):
            instantiate(default_library, ModuleKind.RESTRICTION, {"terms": 9})
        with pytest.raises(ParamOutOfRange):
            instantiate(default_library, ModuleKind.SORT, {"run_capacity": 0})


def test_every_instance_has_at_least_one_slot(default_library):
    params_by_kind = {
        ModuleKind.RESTRICTION: {"terms": 1},
        ModuleKind.ALU: {"nodes": 1},
        ModuleKind.SORT: {"run_capacity": 1},
        ModuleKind.BLOOM_CASCADE: {"stages": 1},
        ModuleKind.AGGREGATE: {"grouped": False},
    }
    for kind in ModuleKind:
        inst = instantiate(default_library, kind, params_by_kind.get(kind, {}))
        assert inst.slots >= 1
