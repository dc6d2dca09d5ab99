"""The process-resident memo: tail replay and its fall-backs.

``open_memo`` keeps the last directory's store in one per-process slot
(``release_memo`` puts it back), and the next open of that directory
reads only what was appended since.  The contract, one test per item:
a resident reuse equals a fresh ``open_memo`` over the same directory
in entries and counted stats (damage in the consumed bytes is reported
again); anything but an append falls back to the full replay; a final
line without a newline is re-read; two stores open at once never share
state; and a flush adopts other writers' entries before it compacts
(the lost-update regression).
"""

import json
import shutil

import pytest

from repro import faults
from repro.durable.fsck import repair_journal
from repro.durable.journal import frame_record, segment_paths
from repro.dse import ExploreConfig, SearchOptions, explore
from repro.incremental.journal import (
    MEMO_PREFIX, MemoJournal, open_memo, release_memo,
)
from repro.incremental.memo import MemoStore
from repro.obs import MetricsRegistry, use_registry
from repro.target import wildstar_pipelined


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    faults.deactivate()
    yield
    faults.deactivate()


def writer(directory, **kwargs):
    """A second store on ``directory`` that never touches the slot."""
    store = MemoStore()
    store.attach_journal(MemoJournal(directory, **kwargs))
    return store


def state(store):
    return {
        "points": dict(store._points),
        "legality": dict(store._legality),
        "verified": set(store._verified),
        "schedules": dict(store._schedules),
        "hits": store.hits,
        "misses": store.misses,
        "invalidations": store.invalidations,
        "counts": store.counts(),
    }


def reopen(directory):
    """``(store, replay kind)`` of one ``open_memo``, checked against a
    fresh replay of the same directory."""
    registry = MetricsRegistry()
    with use_registry(registry):
        store = open_memo(directory)
    fresh = writer(directory)
    assert state(store) == state(fresh)
    kinds = [kind for kind in ("full", "tail") if registry.counter_value(
        "incremental.journal.replays", kind=kind)]
    assert len(kinds) == 1
    return store, kinds[0]


def put_points(store, keys):
    for key in keys:
        store.point_put(key, {"cycles": len(key)})
    store.flush()


def last_segment(directory):
    return segment_paths(directory, MEMO_PREFIX)[-1]


class TestTailReplay:
    def test_own_appends_resume_from_the_tail(self, tmp_path):
        store, kind = reopen(tmp_path)
        assert kind == "full"
        put_points(store, ["a", "b"])
        release_memo(store)
        again, kind = reopen(tmp_path)
        assert kind == "tail"
        assert again is store
        assert again.counts()["point"] == 2

    def test_other_writers_appends_are_adopted(self, tmp_path):
        store, _ = reopen(tmp_path)
        put_points(store, ["a"])
        release_memo(store)
        put_points(writer(tmp_path), ["b", "c"])
        again, kind = reopen(tmp_path)
        assert kind == "tail"
        assert sorted(again._points) == ["a", "b", "c"]

    def test_rotation_by_another_writer_is_still_a_tail(self, tmp_path):
        store, _ = reopen(tmp_path)
        put_points(store, ["a"])
        release_memo(store)
        other = writer(tmp_path, max_segment_bytes=200)
        for key in ("b", "c", "d"):
            put_points(other, [key])
        again, kind = reopen(tmp_path)
        assert kind == "tail"
        assert sorted(again._points) == ["a", "b", "c", "d"]

    def test_walk_stats_equal_a_fresh_open(self, tmp_path):
        from repro.kernels import kernel_by_name
        program = kernel_by_name("fir").program()
        board = wildstar_pipelined()
        memo_dir = tmp_path / "memo"

        def walk(**memo):
            return explore(program, board, config=ExploreConfig(
                search=SearchOptions(strategy="balance"), **memo))

        walk(memo_dir=memo_dir)
        copy = tmp_path / "copy"
        shutil.copytree(memo_dir, copy)
        fresh = walk(memo=writer(copy))
        registry = MetricsRegistry()
        with use_registry(registry):
            resident = walk(memo_dir=memo_dir)
        assert registry.counter_value(
            "incremental.journal.replays", kind="tail") == 1
        assert resident.memo_stats == fresh.memo_stats
        assert resident.memo_stats["hits"] > 0

    def test_consumed_damage_is_reported_on_every_open(self, tmp_path):
        store = writer(tmp_path)
        put_points(store, ["a", "b"])
        path = last_segment(tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"cycles":1', '"cycles":7')
        path.write_text("\n".join(lines) + "\n")

        first, kind = reopen(tmp_path)
        assert (kind, first.invalidations) == ("full", 1)
        release_memo(first)
        second, kind = reopen(tmp_path)
        assert (kind, second.invalidations) == ("tail", 1)
        release_memo(second)
        put_points(writer(tmp_path), ["c"])
        third, kind = reopen(tmp_path)
        assert (kind, third.invalidations) == ("tail", 1)

    def test_final_line_without_newline_is_read_again(self, tmp_path):
        store, _ = reopen(tmp_path)
        put_points(store, ["a"])
        release_memo(store)
        line = frame_record({"ts": 0, "schema_version": 1,
                             "event": "memo_entry", "domain": "point",
                             "key": "b", "value": {"cycles": 1}})
        half = len(line) // 2
        with open(last_segment(tmp_path), "a") as stream:
            stream.write(line[:half])
        torn, kind = reopen(tmp_path)
        assert (kind, torn.invalidations) == ("tail", 1)
        release_memo(torn)
        with open(last_segment(tmp_path), "a") as stream:
            stream.write(line[half:] + "\n")
        whole, kind = reopen(tmp_path)
        assert (kind, whole.invalidations) == ("tail", 0)
        assert sorted(whole._points) == ["a", "b"]


class TestFallBack:
    def _resident(self, directory, keys=("a", "b")):
        store, _ = reopen(directory)
        put_points(store, list(keys))
        release_memo(store)

    def test_compaction_elsewhere(self, tmp_path):
        self._resident(tmp_path)
        other = writer(tmp_path)
        other.point_put("c", {"cycles": 1})
        assert other._journal.compact()
        store, kind = reopen(tmp_path)
        assert kind == "full"
        assert sorted(store._points) == ["a", "b", "c"]

    def test_snapshot_in_the_tail(self, tmp_path):
        from repro.durable.journal import DurableJournal
        self._resident(tmp_path)
        journal = DurableJournal(tmp_path, MEMO_PREFIX)
        journal.open()
        journal.append({"ts": 0, "schema_version": 1,
                        "event": "journal_snapshot", "journal": MEMO_PREFIX,
                        "state": {"entries": [["point", "c", {"cycles": 1}]]}})
        journal.close()
        store, kind = reopen(tmp_path)
        assert kind == "full"
        assert sorted(store._points) == ["a", "b", "c"]

    def test_own_flush_onto_an_unfinished_line(self, tmp_path):
        self._resident(tmp_path)
        with open(last_segment(tmp_path), "a") as stream:
            stream.write('{"event":"memo_entry","dom')  # a writer died here
        store, kind = reopen(tmp_path)
        assert kind == "tail"
        put_points(store, ["c", "d"])  # "c" lands on the dead line
        release_memo(store)
        again, kind = reopen(tmp_path)
        assert kind == "full"
        assert sorted(again._points) == ["a", "b", "d"]

    def test_repair_rewrite(self, tmp_path):
        self._resident(tmp_path)
        with open(last_segment(tmp_path), "a") as stream:
            stream.write("{not json\n")
        repair_journal(tmp_path, MEMO_PREFIX)
        _, kind = reopen(tmp_path)
        assert kind == "full"

    def test_shrunk_segment(self, tmp_path):
        self._resident(tmp_path)
        path = last_segment(tmp_path)
        data = path.read_bytes()
        with open(path, "r+b") as stream:
            stream.truncate(data.index(b"\n") + 1)
        store, kind = reopen(tmp_path)
        assert kind == "full"
        assert len(store._points) == 1

    def test_last_line_rewritten_in_place(self, tmp_path):
        self._resident(tmp_path, keys=("a", "b"))
        path = last_segment(tmp_path)
        data = path.read_bytes().replace(b'"key":"b"', b'"key":"c"')
        with open(path, "r+b") as stream:  # same inode, same size
            stream.write(data)
        store, kind = reopen(tmp_path)
        assert kind == "full"
        assert "b" not in store._points

    def test_directory_removed_and_recreated(self, tmp_path):
        memo_dir = tmp_path / "memo"
        self._resident(memo_dir)
        shutil.rmtree(memo_dir)
        memo_dir.mkdir()
        put_points(writer(memo_dir), ["x"])
        store, kind = reopen(memo_dir)
        assert kind == "full"
        assert sorted(store._points) == ["x"]

    def test_closed_store(self, tmp_path):
        store, _ = reopen(tmp_path)
        put_points(store, ["a"])
        release_memo(store)
        open_memo(tmp_path).close()  # takes it from the slot, closes it
        again, kind = reopen(tmp_path)
        assert kind == "full"

    def test_failed_flush(self, tmp_path, monkeypatch):
        store, _ = reopen(tmp_path)
        store.point_put("a", {"cycles": 1})

        def boom():
            raise OSError("disk on fire")

        monkeypatch.setattr(store._journal, "_open", boom)
        store.flush()
        release_memo(store)
        again, kind = reopen(tmp_path)
        assert kind == "full"
        assert again is not store

    def test_damaged_write(self, tmp_path):
        spec = tmp_path / "bitflip.json"
        spec.write_text(json.dumps({"seed": 3, "faults": [{
            "site": "journal_bitflip", "mode": "bitflip",
            "jobs": ["memo"], "max_hits": 1,
        }]}))
        memo_dir = tmp_path / "memo"
        store, _ = reopen(memo_dir)
        faults.activate(str(spec))
        put_points(store, ["a", "b"])
        faults.deactivate()
        assert store.invalidations == 1
        release_memo(store)
        again, kind = reopen(memo_dir)
        assert kind == "full"
        assert again.invalidations == 1

    def test_another_directory_replaces_the_slot(self, tmp_path):
        self._resident(tmp_path / "one")
        _, kind = reopen(tmp_path / "two")
        assert kind == "full"
        _, kind = reopen(tmp_path / "one")
        assert kind == "full"


class TestNoAliasing:
    def test_open_takes_the_store_out_of_the_slot(self, tmp_path):
        store, _ = reopen(tmp_path)
        put_points(store, ["a"])
        release_memo(store)
        first = open_memo(tmp_path)
        second = open_memo(tmp_path)
        assert first is store
        assert second is not first
        second.point_put("b", {"cycles": 1})
        assert "b" not in first._points

    def test_unflushed_store_is_not_kept(self, tmp_path):
        store = open_memo(tmp_path)
        store.point_put("a", {"cycles": 1})
        release_memo(store)
        assert open_memo(tmp_path) is not store


class TestCompactionKeepsOtherWriters:
    def test_compaction_adopts_the_tail_first(self, tmp_path):
        first = writer(tmp_path, max_segment_bytes=200)
        second = writer(tmp_path, max_segment_bytes=200)
        put_points(second, [f"b{index}" for index in range(5)])
        put_points(first, [f"a{index}" for index in range(5)])
        assert first._journal.compactions >= 1
        fresh = writer(tmp_path)
        assert sorted(fresh._points) == sorted(
            [f"a{index}" for index in range(5)]
            + [f"b{index}" for index in range(5)])
        assert fresh.invalidations == 0


class TestThreads:
    def test_concurrent_opens_never_share_a_store(self, tmp_path):
        import sys
        import threading
        in_use, guard, errors = set(), threading.Lock(), []

        def work(name):
            try:
                for index in range(15):
                    store = open_memo(tmp_path)
                    with guard:
                        assert id(store) not in in_use
                        in_use.add(id(store))
                    store.point_put(f"{name}-{index}", {"cycles": index})
                    store.flush()
                    with guard:
                        in_use.discard(id(store))
                    release_memo(store)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(f"t{n}",))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        fresh = writer(tmp_path)
        assert len(fresh._points) == 6 * 15
        assert fresh.invalidations == 0
