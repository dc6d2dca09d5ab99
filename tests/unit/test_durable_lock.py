"""The inter-process file lock, and the memo journal that holds it.

``FileLock`` bounds acquisition so a hung peer cannot wedge every other
writer; ``MemoJournal.flush`` holds it across a whole batch of appends
so concurrent processes flushing into one memo directory end with the
union of their entries.
"""

import multiprocessing

import pytest

from repro.durable import FileLock
from repro.errors import CacheLockTimeout
from repro.incremental import MEMO_PREFIX, open_memo


class TestFileLock:
    def test_contended_lock_times_out_typed(self, tmp_path):
        lock_path = tmp_path / "memo.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        try:
            waiter = FileLock(lock_path, timeout_s=0.2)
            with pytest.raises(CacheLockTimeout):
                waiter.acquire()
        finally:
            holder.release()

    def test_acquires_once_released(self, tmp_path):
        lock_path = tmp_path / "memo.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        holder.release()
        waiter = FileLock(lock_path, timeout_s=0.2)
        waiter.acquire()  # must not raise
        waiter.release()

    def test_mkdir_fallback_times_out(self, tmp_path, monkeypatch):
        lock_path = tmp_path / "memo.lock"
        holder = FileLock(lock_path)
        monkeypatch.setattr(holder, "_use_fcntl", False)
        holder.acquire()
        try:
            waiter = FileLock(lock_path, timeout_s=0.2, stale_s=60.0)
            monkeypatch.setattr(waiter, "_use_fcntl", False)
            with pytest.raises(CacheLockTimeout):
                waiter.acquire()
        finally:
            holder.release()


class TestMemoJournalLock:
    def test_flush_times_out_instead_of_hanging(self, tmp_path):
        store = open_memo(tmp_path)
        store._journal._lock.timeout_s = 0.2
        store.point_put("k", {"v": 1})
        blocker = FileLock(tmp_path / f"{MEMO_PREFIX}.lock")
        blocker.acquire()  # a hung peer holding the journal lock
        try:
            assert store._journal.flush() == 0
        finally:
            blocker.release()
        assert store._journal.write_failures == 1
        assert store.invalidations == 1  # dropped, counted, re-learnable
        store.point_put("k2", {"v": 2})
        assert store._journal.flush() == 1  # recovers once the peer lets go
        assert open_memo(tmp_path).point_get("k2") == {"v": 2}

    def test_two_writers_union(self, tmp_path):
        first = open_memo(tmp_path)
        second = open_memo(tmp_path)
        first.point_put("only-first", {"v": 1})
        second.point_put("only-second", {"v": 2})
        first.flush()
        second.flush()  # must not clobber first's entry
        final = open_memo(tmp_path)
        assert final.counts()["point"] == 2
        assert final.point_get("only-first") == {"v": 1}
        assert final.point_get("only-second") == {"v": 2}

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        workers = 4
        per_worker = 25
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_hammer_journal,
                args=(str(tmp_path), worker, per_worker),
            )
            for worker in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        final = open_memo(tmp_path)
        assert final.invalidations == 0
        for worker in range(workers):
            for i in range(per_worker):
                assert final.point_get(f"w{worker}-{i}") == \
                    {"v": worker * 1000 + i}


def _hammer_journal(directory: str, worker: int, count: int) -> None:
    """Child-process body: flush one new entry at a time, under
    contention."""
    for i in range(count):
        store = open_memo(directory)
        store.point_put(f"w{worker}-{i}", {"v": worker * 1000 + i})
        store.flush()
