"""Property: a resident memo always equals a fresh replay.

Random interleavings of everything that can happen to a shared memo
directory between two walks of one process — its own flush, another
writer's flush, compaction by either, an ``fsck --repair`` rewrite, a
bitflip-damaged write, a torn tail from a writer caught mid-batch (and
that writer finishing), and ``rm -r`` plus recreate of the directory.
After every step the process's ``open_memo`` (resident, tail replay
when it can) must equal a fresh replay of the same directory in
entries and in counted stats, and must give the same answers to the
same lookups.
"""

import json
import random
import shutil

import pytest

from repro import faults
from repro.durable.fsck import repair_journal
from repro.durable.journal import frame_record, segment_paths
from repro.incremental.journal import (
    MEMO_PREFIX, MemoJournal, open_memo, release_memo,
)
from repro.incremental.memo import MemoStore
from repro.obs import MetricsRegistry, use_registry

KEYS = [f"k{index}" for index in range(12)]

STEP_KINDS = ("own_flush", "other_flush", "own_compact", "other_compact",
              "repair", "bitflip_own", "bitflip_other", "torn_start",
              "torn_finish", "recreate")


def random_steps(rng, count):
    """``count`` random ``(step, argument)`` pairs."""
    steps = []
    for _ in range(count):
        kind = rng.choice(STEP_KINDS)
        if kind in ("own_flush", "other_flush"):
            arg = rng.sample(KEYS, rng.randint(1, 4))
        elif kind == "repair":
            arg = rng.random() < 0.5
        elif kind.startswith("bitflip"):
            arg = rng.randrange(2**16)
        elif kind == "torn_start":
            arg = rng.choice(KEYS)
        else:
            arg = None
        steps.append((kind, arg))
    return steps


def value(key):
    # Content-hash semantics: a key always maps to the same value.
    return {"cycles": int(key[1:]) * 7}


def fresh_store(directory, **kwargs):
    store = MemoStore()
    store.attach_journal(MemoJournal(directory, **kwargs))
    return store


def state(store):
    return (dict(store._points), dict(store._legality),
            set(store._verified), dict(store._schedules),
            store.hits, store.misses, store.invalidations, store.counts())


def put(store, keys):
    for key in keys:
        store.point_put(key, value(key))
    store.flush()


class World:
    def __init__(self, directory, scratch):
        self.directory = directory
        self.scratch = scratch
        self.torn = None  # the second half of an in-progress line
        self.tails = 0

    def check(self):
        """Open resident and fresh, compare, and return the resident."""
        registry = MetricsRegistry()
        with use_registry(registry):
            resident = open_memo(self.directory)
        self.tails += int(registry.counter_value(
            "incremental.journal.replays", kind="tail"))
        fresh = fresh_store(self.directory)
        assert state(resident) == state(fresh)
        for key in KEYS[::3]:
            assert resident.point_get(key) == fresh.point_get(key)
        assert state(resident) == state(fresh)
        return resident

    def bitflip(self, seed):
        spec = self.scratch / "bitflip.json"
        spec.write_text(json.dumps({"seed": seed, "faults": [{
            "site": "journal_bitflip", "mode": "bitflip",
            "jobs": [MEMO_PREFIX], "max_hits": 1,
        }]}))
        faults.activate(str(spec))

    def apply(self, step, arg, resident):
        """Run one step; ``resident`` is the process's own store."""
        directory = self.directory
        if step == "own_flush":
            put(resident, arg)
        elif step == "other_flush":
            put(fresh_store(directory, max_segment_bytes=300), arg)
        elif step == "own_compact":
            resident._journal.compact()
        elif step == "other_compact":
            fresh_store(directory)._journal.compact()
        elif step == "repair":
            repair_journal(directory, MEMO_PREFIX, compact=arg)
            self.torn = None
        elif step in ("bitflip_own", "bitflip_other"):
            target = resident if step == "bitflip_own" else \
                fresh_store(directory)
            self.bitflip(arg)
            try:
                put(target, KEYS[arg % len(KEYS):][:3] or KEYS[:1])
            finally:
                faults.deactivate()
        elif step == "torn_start" and self.torn is None:
            line = frame_record({"ts": 0, "schema_version": 1,
                                 "event": "memo_entry", "domain": "point",
                                 "key": arg, "value": value(arg)}) + "\n"
            self.torn = line[len(line) // 2:]
            self._append_raw(line[:len(line) // 2])
        elif step == "torn_finish" and self.torn is not None:
            self._append_raw(self.torn)
            self.torn = None
        elif step == "recreate":
            shutil.rmtree(directory)
            directory.mkdir()
            self.torn = None

    def _append_raw(self, text):
        segments = segment_paths(self.directory, MEMO_PREFIX)
        target = segments[-1] if segments else \
            self.directory / f"{MEMO_PREFIX}.jsonl"
        with open(target, "a") as stream:
            stream.write(text)


@pytest.mark.parametrize("seed", range(60))
def test_resident_open_equals_fresh_open(tmp_path, seed):
    faults.deactivate()
    rng = random.Random(seed)
    steps = random_steps(rng, rng.randint(1, 14))
    directory = tmp_path / "memo"
    directory.mkdir()
    world = World(directory, tmp_path)
    release_memo(world.check())
    for step, arg in steps:
        resident = world.check()
        world.apply(step, arg, resident)
        release_memo(resident)
    release_memo(world.check())


def test_interleaving_without_rewrites_never_replays_in_full(tmp_path):
    """Own and other flushes (with rotation) and a line another writer
    finishes later are appends only: after the first open, every open
    is a tail replay."""
    world = World(tmp_path / "memo", tmp_path)
    world.directory.mkdir()
    release_memo(world.check())
    steps = [("own_flush", ["k1", "k2"]), ("other_flush", ["k3"]),
             ("torn_start", "k4"), ("torn_finish", None),
             ("own_flush", ["k5"]), ("other_flush", ["k6", "k7", "k8"]),
             ("own_flush", ["k11"])]
    for step, arg in steps:
        resident = world.check()
        world.apply(step, arg, resident)
        release_memo(resident)
    release_memo(world.check())
    assert world.tails == len(steps) + 1
    assert len(segment_paths(world.directory, MEMO_PREFIX)) > 1
