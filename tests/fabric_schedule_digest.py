"""Digest of seeded random fabric schedules, for comparing two versions of
`sqf.fabric` that must place identically.

Each seed builds a device of 1-4 regions of 1-20 slots and runs 1500 random
allocate / reconfigure / release steps, checking the fabric's invariants
after every step. The digest covers every placement's slot ranges, every
`InsufficientSlots(needed, max_contiguous_free)` and every `ReconfigReport`.

    PYTHONPATH=src python tests/fabric_schedule_digest.py
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import astuple

from sqf.errors import InsufficientSlots
from sqf.fabric import DeviceProfile, FabricState, allocate, reconfigure, release
from sqf.library import ModuleInstance, ModuleKind, ModuleSpec

SEEDS = 40
STEPS = 1500


def _block(rng: random.Random, max_slots: int) -> ModuleInstance:
    slots = rng.randint(1, max_slots)
    spec = ModuleSpec(rng.choice(list(ModuleKind)), slots, 0, 1000, 1.0, 2.0e8)
    return ModuleInstance(spec, (), slots, slots * rng.choice([300, 500, 800]))


def schedule(seed: int) -> list:
    """The observable outcome of every step of one seeded schedule."""
    rng = random.Random(seed)
    dev = DeviceProfile(regions=rng.randint(1, 4), slots_per_region=rng.randint(1, 20))
    fabric = FabricState(dev)
    live, log = [], []
    for _ in range(STEPS):
        action = rng.random()
        if action < 0.45:
            modules = [_block(rng, 6) for _ in range(rng.randint(1, 4))]
            try:
                p = allocate(fabric, modules)
            except InsufficientSlots as err:
                log.append(("full", err.needed, err.max_contiguous_free))
            else:
                live.append(p)
                log.append(("alloc", [(e.region, e.start, e.stop) for e in p.entries]))
        elif action < 0.75 and live:
            log.append(("reconfig", astuple(reconfigure(fabric, rng.choice(live)))))
        elif live:
            release(fabric, live.pop(rng.randrange(len(live))))
            log.append(("release", len(live)))
        fabric.check_invariants()
    return log


def digest() -> str:
    h = hashlib.sha256()
    for seed in range(SEEDS):
        h.update(repr(schedule(seed)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
