from __future__ import annotations

import json
import random

import pytest

from conftest import REPO
from sqf.errors import InsufficientSlots, InvalidField, NotAllocated
from sqf.fabric import (
    DeviceProfile,
    FabricState,
    Placement,
    PlacementEntry,
    allocate,
    load_device_profile,
    reconfigure,
    release,
)
from sqf.library import ModuleInstance, ModuleKind, ModuleSpec


def block(slots: int, bytes_per_slot: int = 1000, kind=ModuleKind.PASSTHROUGH,
          params=()):
    spec = ModuleSpec(kind, slots, 0, bytes_per_slot, 1.0, 2.0e8)
    return ModuleInstance(spec, tuple(params), slots, slots * bytes_per_slot)


def test_default_profile_file():
    dev = load_device_profile(REPO / "device.default.json")
    assert dev.regions == 2
    assert dev.slots_per_region == 16
    assert dev.icap_bytes_per_s == 4.0e8
    assert dev.mem_bytes_per_s == 1.6e9
    assert dev.clock_hz == 2.0e8


def test_profile_rejects_unknown_field(tmp_path):
    rec = json.loads((REPO / "device.default.json").read_text())
    rec["voltage"] = 1.0
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(rec))
    with pytest.raises(InvalidField):
        load_device_profile(path)


@pytest.mark.parametrize("field", ["regions", "slots_per_region"])
def test_profile_names_the_field_below_one(field):
    with pytest.raises(InvalidField) as err:
        DeviceProfile(**{field: 0})
    assert err.value.name == field


def test_allocate_first_fit():
    dev = DeviceProfile(regions=1, slots_per_region=8)
    fabric = FabricState(dev)
    p = allocate(fabric, [block(1), block(2)])
    assert p.region == 0
    assert [(e.start, e.stop) for e in p.entries] == [(0, 1), (1, 3)]


def test_allocate_back_to_back():
    dev = DeviceProfile(regions=1, slots_per_region=8)
    fabric = FabricState(dev)
    allocate(fabric, [block(4)])
    second = allocate(fabric, [block(4)])
    assert second.region == 0
    assert (second.entries[0].start, second.entries[0].stop) == (4, 8)


def test_allocate_insufficient_slots():
    dev = DeviceProfile(regions=2, slots_per_region=4)
    fabric = FabricState(dev)
    allocate(fabric, [block(2)])  # fragments region 0 to a 2-run
    allocate(fabric, [block(2)])
    allocate(fabric, [block(2)])  # region 1 down to 2 free
    with pytest.raises(InsufficientSlots) as err:
        allocate(fabric, [block(5)])
    assert err.value.needed == 5
    assert err.value.max_contiguous_free == 2


def test_reconfigure_seconds():
    dev = DeviceProfile()
    fabric = FabricState(dev)
    p = allocate(fabric, [block(1, 100_000), block(1, 200_000)])
    report = reconfigure(fabric, p)
    assert report.seconds == pytest.approx(0.00075)
    assert report.bytes == 300_000


def test_reconfigure_resident_is_free():
    fabric = FabricState(DeviceProfile())
    p = allocate(fabric, [block(2, 500)])
    first = reconfigure(fabric, p)
    assert first.bytes == 1000
    second = reconfigure(fabric, p)
    assert second.bytes == 0
    assert second.seconds == 0.0
    assert second.skipped_entries == 1


def test_release_then_reallocate_identical():
    fabric = FabricState(DeviceProfile())
    modules = [block(3), block(2)]
    p1 = allocate(fabric, modules)
    release(fabric, p1)
    p2 = allocate(fabric, modules)
    assert p1 == p2


def test_release_twice_raises():
    fabric = FabricState(DeviceProfile())
    p = allocate(fabric, [block(1)])
    release(fabric, p)
    with pytest.raises(NotAllocated):
        release(fabric, p)


def test_release_keeps_residency():
    fabric = FabricState(DeviceProfile())
    modules = [block(2, 700)]
    p1 = allocate(fabric, modules)
    assert reconfigure(fabric, p1).bytes == 1400
    release(fabric, p1)
    p2 = allocate(fabric, modules)
    assert p2 == p1
    again = reconfigure(fabric, p2)
    assert again.seconds == 0.0 and again.bytes == 0


def test_residency_evicted_by_overlap():
    fabric = FabricState(DeviceProfile())
    a = [block(2, 700)]
    p1 = allocate(fabric, a)
    reconfigure(fabric, p1)
    release(fabric, p1)
    other = [block(1, 900, kind=ModuleKind.REORDER)]
    p2 = allocate(fabric, other)
    reconfigure(fabric, p2)  # overwrites slot 0, evicting the old content
    release(fabric, p2)
    p3 = allocate(fabric, a)
    assert reconfigure(fabric, p3).bytes == 1400


def test_allocate_release_round_trip_bitmap():
    fabric = FabricState(DeviceProfile())
    p = allocate(fabric, [block(5)])
    release(fabric, p)
    # both regions are whole again: each takes a full-width chain at slot 0
    first = allocate(fabric, [block(16)])
    second = allocate(fabric, [block(16)])
    assert (first.region, first.entries[0].start) == (0, 0)
    assert (second.region, second.entries[0].start) == (1, 0)


def test_reconfigure_not_allocated():
    fabric = FabricState(DeviceProfile())
    p = allocate(fabric, [block(1)])
    release(fabric, p)
    with pytest.raises(NotAllocated):
        reconfigure(fabric, p)


def test_randomized_schedule_invariants():
    rng = random.Random(99)
    dev = DeviceProfile(regions=3, slots_per_region=12)
    fabric = FabricState(dev)
    live = []
    for step in range(2000):
        action = rng.random()
        if action < 0.5:
            modules = [
                block(rng.randint(1, 4), rng.choice([300, 500, 800]),
                      kind=rng.choice(list(ModuleKind)))
                for _ in range(rng.randint(1, 3))
            ]
            try:
                live.append(allocate(fabric, modules))
            except InsufficientSlots:
                pass
        elif action < 0.8 and live:
            reconfigure(fabric, rng.choice(live))
        elif live:
            release(fabric, live.pop(rng.randrange(len(live))))
        fabric.check_invariants()


@pytest.mark.parametrize("region, start, stop", [(2, 0, 1), (0, 15, 17), (0, -1, 1)])
def test_invariants_reject_a_range_outside_the_device(region, start, stop):
    fabric = FabricState(DeviceProfile())
    stray = Placement((PlacementEntry(block(stop - start), region, start, stop),))
    fabric.placements[id(stray)] = stray
    with pytest.raises(AssertionError):
        fabric.check_invariants()
