"""Reconfigurable fabric model: regions of slots, placement, and loading
bitstreams through the configuration port.

Regions are linear slot chains. A pipeline is placed contiguously, in stream
order, inside a single region (first-fit over regions, then start offsets).
The live placements are the only record of occupancy: a region's free slots
are the gaps between their entries.
A load takes its bytes over the port's rate, and is free when the
identical module content is already resident at the exact slot range.

FabricState mutations are not thread safe; callers serialize allocate,
release, and reconfigure. Pipelines placed in different regions may execute
concurrently once configured.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InsufficientSlots, InvalidField, NotAllocated
from .library import ModuleInstance, json_float, json_int, read_json, record


@dataclass(frozen=True)
class DeviceProfile:
    regions: int = 2
    slots_per_region: int = 16
    icap_bytes_per_s: float = 4.0e8
    mem_bytes_per_s: float = 1.6e9
    clock_hz: float = 2.0e8
    p_static_w: float = 5.0
    p_slot_active_w: float = 1.0
    p_reconfig_w: float = 2.0
    host_tuples_per_s: float = 2.0e7
    cache_line_bytes: int = 64

    def __post_init__(self):
        for name in ("regions", "slots_per_region"):
            if getattr(self, name) < 1:
                raise InvalidField(name, "must be positive")
        for name in ("icap_bytes_per_s", "mem_bytes_per_s", "clock_hz", "host_tuples_per_s"):
            if getattr(self, name) <= 0:
                raise InvalidField(name, "must be positive")
        for name in ("p_static_w", "p_slot_active_w", "p_reconfig_w"):
            if getattr(self, name) < 0:
                raise InvalidField(name, "must be non-negative")
        c = self.cache_line_bytes
        if c < 1 or (c & (c - 1)) != 0:
            raise InvalidField("cache_line_bytes", "must be a positive power of two")


# the annotations are strings under `from __future__ import annotations`
_PROFILE_CHECKS = {f.name: json_int if f.type == "int" else json_float
                   for f in fields(DeviceProfile)}


def load_device_profile(path) -> DeviceProfile:
    """Load a profile from JSON with exactly the DeviceProfile fields
    (plus an optional documentation-only `comment`)."""
    doc = read_json(path, "device profile", dict)
    return DeviceProfile(**record(doc, "device profile", _PROFILE_CHECKS))


@dataclass(frozen=True)
class PlacementEntry:
    instance: ModuleInstance
    region: int
    start: int
    stop: int  # exclusive


@dataclass(frozen=True)
class Placement:
    entries: tuple[PlacementEntry, ...]

    @property
    def region(self) -> int:
        return self.entries[0].region


@dataclass(frozen=True)
class ReconfigReport:
    """A report's `reconfig` section lists these fields in this order."""

    seconds: float
    bytes: int
    skipped_entries: int  # already resident at their exact ranges


class FabricState:
    """Active placements plus the residency cache of loaded bitstreams."""

    def __init__(self, profile: DeviceProfile):
        self.profile = profile
        # residency: (region, start, stop) -> module identity, kept across release
        self.resident: dict[tuple[int, int, int], tuple] = {}
        self.placements: dict[int, Placement] = {}

    # -- queries -----------------------------------------------------------

    def is_allocated(self, placement: Placement) -> bool:
        return id(placement) in self.placements

    def is_resident(self, entry: PlacementEntry) -> bool:
        key = (entry.region, entry.start, entry.stop)
        return self.resident.get(key) == entry.instance.identity()

    def check_invariants(self) -> None:
        """Active ranges inside the device and pairwise disjoint; test hook."""
        ranges = []
        for placement in self.placements.values():
            for e in placement.entries:
                ranges.append((e.region, e.start, e.stop))
        ranges.sort()
        regions, slots = self.profile.regions, self.profile.slots_per_region
        for region, start, stop in ranges:
            if not (0 <= region < regions and 0 <= start and stop <= slots):
                raise AssertionError(f"slot range {start}..{stop} outside region {region}")
        for (r1, _, e1), (r2, s2, _) in zip(ranges, ranges[1:]):
            if r1 == r2 and s2 < e1:
                raise AssertionError(f"overlapping slot ranges in region {r1}")


def _free_runs(fabric: FabricState, region: int):
    """The (start, length) gaps between the region's live entries, ascending."""
    taken = sorted((e.start, e.stop) for p in fabric.placements.values()
                   for e in p.entries if e.region == region)
    cursor = 0
    for start, stop in taken:
        if start > cursor:
            yield cursor, start - cursor
        cursor = stop
    if cursor < fabric.profile.slots_per_region:
        yield cursor, fabric.profile.slots_per_region - cursor


def allocate(fabric: FabricState, modules) -> Placement:
    """First-fit placement of a module chain, atomically.

    Regions are scanned in index order and start offsets ascending; the chain
    occupies one contiguous run in stream order.
    """
    modules = list(modules)
    if not modules:
        raise ValueError("cannot place an empty pipeline")
    needed = sum(m.slots for m in modules)
    longest = 0
    for region in range(fabric.profile.regions):
        for cursor, length in _free_runs(fabric, region):
            if length >= needed:
                entries = []
                for m in modules:
                    entries.append(PlacementEntry(m, region, cursor, cursor + m.slots))
                    cursor += m.slots
                placement = Placement(tuple(entries))
                fabric.placements[id(placement)] = placement
                return placement
            longest = max(longest, length)
    raise InsufficientSlots(needed, longest)


def release(fabric: FabricState, placement: Placement) -> None:
    """Free the slots; residency survives until the range is overwritten."""
    if id(placement) not in fabric.placements:
        raise NotAllocated()
    del fabric.placements[id(placement)]


def reconfigure(fabric: FabricState, placement: Placement) -> ReconfigReport:
    """Load every non-resident entry through the configuration port;
    `seconds` is the transfer time, bytes over the port's rate."""
    if id(placement) not in fabric.placements:
        raise NotAllocated()
    loaded_bytes = 0
    skipped = 0
    for e in placement.entries:
        if fabric.is_resident(e):
            skipped += 1
            continue
        loaded_bytes += e.instance.bitstream_bytes
        _evict_overlaps(fabric, e)
        fabric.resident[(e.region, e.start, e.stop)] = e.instance.identity()
    seconds = loaded_bytes / fabric.profile.icap_bytes_per_s
    return ReconfigReport(seconds=seconds, bytes=loaded_bytes, skipped_entries=skipped)


def _evict_overlaps(fabric: FabricState, entry: PlacementEntry):
    stale = [
        (region, start, stop)
        for (region, start, stop) in fabric.resident
        if region == entry.region and start < entry.stop and entry.start < stop
    ]
    for key in stale:
        del fabric.resident[key]
