"""The persistent cross-run memo journal.

Warm starts should survive restarts, and fleet workers exploring the
same space should share what any of them learned.  ``MemoJournal``
gives the memo store both, on the durability substrate the job store
and run ledger already trust: CRC-framed segmented JSONL
(:mod:`repro.durable.journal`, prefix ``memo``), with the ``fsck``
verbs extended to cover it (``repro fsck`` knows the prefix).  Its
``point`` domain is the only persistent estimate store: navigation and
confirmation estimates alike are journaled here, keyed per backend.

**Record format** (one plain-JSON line, ``crc32``-framed):

.. code-block:: json

   {"event": "memo_entry", "schema_version": 1,
    "domain": "point", "key": "<sha256>", "value": {...}, "ts": ...,
    "crc32": "..."}

plus the substrate's ``journal_snapshot`` records written by
compaction, whose ``state`` holds the full entry map.

**Write policy.**  Appends are *buffered* and flushed in batch (end of
an exploration, end of a worker job) under a
:class:`~repro.durable.lock.FileLock`, as one group commit:
``DurableJournal.append_many`` writes and fsyncs once per segment
touched, not once per record, with the same bytes and the same fault
behaviour as one ``append`` per record.  Under the same lock the flush
first adopts what other writers appended since this store last read,
so a compaction it triggers snapshots every entry on disk and not only
this store's; afterwards it moves its read cursor past its own
appends.  A lost buffer is harmless: memo entries are re-learnable, so
the journal is best-effort durable where the job store is
required-durable.  Every write failure degrades to in-memory operation
and is counted, never raised.

**Read policy.**  The first open of a directory in a process replays
every good record through the store's idempotent adopt path and counts
every damaged one as an ``incremental.memo.invalidations`` (a corrupt
memo record is simply a memo we no longer have).  Replay never raises:
a journal ruined end-to-end loads as an empty memo and the walk runs
from scratch — the chaos suite pins exactly this degradation.  The
store then stays resident: :func:`open_memo` keeps the last
directory's store in one per-process slot, and the next open of that
directory reads only the bytes any process appended since, through a
per-segment cursor (:func:`~repro.durable.journal.read_tail`).  A tail
replay is indistinguishable from a full one — the same entries, and
the walk's hits, misses and invalidations counted the same, because
damage in the bytes already consumed is reported again on every open.
It falls back to the full replay whenever the chain changed other than
by appends (a consumed segment vanished, changed inode or shrank, its
last consumed line reads back different, or a snapshot appears in the
tail), when the store was closed, or when its last flush failed or
wrote a damaged record.  ``incremental.journal.replays{kind=full|tail}``
and ``incremental.journal.replayed_records`` count the work.

Fault sites come with the substrate: ``disk_full``,
``journal_bitflip``, and ``journal_torn`` keyed on ``"memo"`` fire
inside ``append``, so corruption is injectable mid-run without any
code here knowing about it.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durable.journal import (
    DurableJournal,
    JournalTail,
    SNAPSHOT_EVENT,
    SegmentCursor,
    read_tail,
    segment_paths,
)
from repro.durable.lock import FileLock
from repro.incremental.memo import MEMO_DOMAINS, MemoStore
from repro.obs import current_registry

#: The journal's segment prefix (``memo.jsonl``, ``memo.0001.jsonl``, …).
MEMO_PREFIX = "memo"

#: The v1 typed event name for one memo entry.
MEMO_EVENT = "memo_entry"

#: Compact once this many closed segments have accumulated.
_COMPACT_SEGMENTS = 2

#: Memo journals rotate early: segments are retired whole by
#: compaction, and smaller units bound what one corruption can erase.
_SEGMENT_BYTES = 1 * 1024 * 1024


class MemoJournal:
    """Durable, flock-guarded persistence for a :class:`MemoStore`.

    One instance belongs to one store (wired by
    ``MemoStore.attach_journal``).  Multiple processes may share the
    directory: the flush path holds ``memo.lock`` across
    re-open/append/close, so concurrent batch workers interleave whole
    batches rather than torn lines, and entries are value-transparent
    (content-hash keys cover every input), so replay order between
    processes cannot matter.
    """

    def __init__(
        self,
        directory: Path,
        lock_timeout_s: Optional[float] = 30.0,
        clock: Callable[[], float] = time.time,
        max_segment_bytes: int = _SEGMENT_BYTES,
    ):
        self.directory = Path(directory)
        self._clock = clock
        self._max_segment_bytes = max_segment_bytes
        self._lock = FileLock(
            self.directory / f"{MEMO_PREFIX}.lock", timeout_s=lock_timeout_s
        )
        self._pending: List[Tuple[str, str, Any]] = []
        self._store = None
        #: how far this journal has read; ``None`` when it cannot resume
        self._cursor: Optional[Tuple[SegmentCursor, ...]] = None
        #: invalidations the consumed bytes cost, by reason: a fresh
        #: replay reports them, so every tail replay reports them again
        self._consumed_damage: Dict[str, int] = {}
        #: cleared once the store may hold what a fresh replay would not
        #: (a failed or damaged write, a chain rewritten under a flush)
        self._clean = False
        self.write_failures = 0
        self.records_flushed = 0
        self.records_loaded = 0
        self.compactions = 0

    # -- loading ---------------------------------------------------------------

    @property
    def resumable(self) -> bool:
        """Whether the next :meth:`load` into the attached store may read
        only the journal's tail."""
        return self._clean and self._cursor is not None and not self._pending

    def load(self, store) -> int:
        """Replay the journal into ``store``; returns entries adopted.

        When this journal already replayed into ``store`` and stayed
        :attr:`resumable`, only the tail is read (the walk's counters
        restart and damage in the consumed bytes is reported again);
        otherwise the whole chain is, into an emptied store.  Damage
        never raises: corrupt records and torn tails count as
        invalidations on the store, then replay continues.  Unknown
        events are skipped silently (forward compatibility — a newer
        writer's vocabulary must not wedge an older reader).
        """
        tail = None
        if store is self._store and self.resumable:
            tail = self._read(self._cursor)
            if tail is not None and tail.snapshot_seen:
                tail = None  # another process compacted
        kind = "full" if tail is None else "tail"
        if tail is None:
            store.begin_session(clear=store is self._store)
            self._consumed_damage = {}
            tail = self._read(())
        else:
            store.begin_session()
            for reason, count in sorted(self._consumed_damage.items()):
                store.invalidate(count, reason=reason)
        self._store = store
        registry = current_registry()
        for label in ("full", "tail"):
            registry.counter("incremental.journal.replays", kind=label)
        registry.counter("incremental.journal.replays", kind=kind).inc()
        replayed = registry.counter("incremental.journal.replayed_records")
        if tail is None:
            self._cursor, self._clean = None, False
            return 0
        replayed.inc(len(tail.lines))
        adopted = self._replay(store, tail, report=True)
        self._cursor, self._clean = tail.cursor, True
        self.records_loaded += adopted
        return adopted

    def _read(self, cursor) -> Optional[JournalTail]:
        try:
            return read_tail(self.directory, MEMO_PREFIX, cursor)
        except Exception:  # noqa: BLE001 - replay never raises
            return None

    def _replay(self, store, tail: JournalTail, report: bool) -> int:
        """Adopt ``tail``'s records; count each lost one on the store
        when ``report``, and remember the consumed ones' losses."""
        adopted = 0
        damage = self._consumed_damage
        for record, consumed in tail.lines:
            lost: List[str] = []
            if record is None:
                lost.append("corrupt")
            else:
                adopted += self._adopt_record(store, record, lost)
            for reason in lost:
                if consumed:
                    damage[reason] = damage.get(reason, 0) + 1
                if report:
                    store.invalidate(reason=reason)
        return adopted

    def _adopt_record(self, store, record, lost: List[str]) -> int:
        event = record.get("event")
        if event == SNAPSHOT_EVENT:
            state = record.get("state")
            entries = state.get("entries") if isinstance(state, dict) else None
            if not isinstance(entries, list):
                lost.append("malformed")
                return 0
            adopted = 0
            for entry in entries:
                if not (isinstance(entry, list) and len(entry) == 3
                        and isinstance(entry[0], str)
                        and isinstance(entry[1], str)):
                    lost.append("malformed")
                    continue
                adopted += self._adopt(store, entry[0], entry[1], entry[2],
                                       lost)
            return adopted
        if event == MEMO_EVENT:
            domain = record.get("domain")
            key = record.get("key")
            if not isinstance(domain, str) or not isinstance(key, str):
                lost.append("malformed")
                return 0
            return self._adopt(store, domain, key, record.get("value"), lost)
        return 0

    @staticmethod
    def _adopt(store, domain: str, key: str, value, lost: List[str]) -> int:
        if domain not in MEMO_DOMAINS:
            lost.append("unknown_domain")
            return 0
        try:
            return 1 if store._adopt(domain, key, value) else 0
        except (TypeError, ValueError, KeyError):
            lost.append("undecodable")
            return 0

    def _catch_up(self) -> None:
        """Adopt what other writers appended since this journal last read.

        Runs under the lock, before a flush appends or compacts, so a
        compaction snapshots every entry on disk and not only this
        store's.  What it finds is not this walk's to count: losses are
        only remembered, for the next open to report as a fresh replay
        would.
        """
        store = self._store
        if store is None:
            return
        tail = None if self._cursor is None else self._read(self._cursor)
        if tail is None or tail.snapshot_seen:
            # Rewritten under us (compacted or repaired elsewhere): adopt
            # it whole.  The store may now hold entries the rewrite
            # dropped, so the next open replays in full.
            self._clean = False
            self._consumed_damage = {}
            tail = self._read(())
            if tail is None:
                return
        if tail.open_line:
            # This flush's first record will land on another writer's
            # unfinished line and read back damaged.
            self._clean = False
        self._replay(store, tail, report=False)
        self._cursor = tail.cursor

    def _skip_own_appends(self, compacted: bool) -> None:
        """Move the cursor past what this journal just wrote (under the
        lock, so nobody else wrote since :meth:`_catch_up`)."""
        if compacted:
            self._cursor, self._consumed_damage = (), {}
        if self._cursor is None:
            return
        try:
            tail = read_tail(self.directory, MEMO_PREFIX, self._cursor,
                             parse=False)
        except OSError:
            tail = None
        self._cursor = None if tail is None else tail.cursor

    # -- writing ---------------------------------------------------------------

    def record(self, domain: str, key: str, value: Any) -> None:
        """Buffer one new entry for the next :meth:`flush`."""
        self._pending.append((domain, key, value))

    def flush(self) -> int:
        """Group-commit every buffered entry under the cross-process lock.

        Returns how many records landed.  Failures (lock timeout, disk
        full, any OSError — including the injected ``disk_full`` fault)
        are counted on :attr:`write_failures` and the rest of the batch
        is dropped: the memo keeps working in memory and re-learns on
        the next cold walk, which is exactly the degradation contract.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        journal = None
        try:
            with self._lock:
                self._catch_up()
                journal = self._open()
                try:
                    journal.append_many({
                        "ts": self._clock(),
                        "schema_version": 1,
                        "event": MEMO_EVENT,
                        "domain": domain,
                        "key": key,
                        "value": value,
                    } for domain, key, value in pending)
                    compacted = self._maybe_compact(journal)
                finally:
                    journal.close()
                self._skip_own_appends(compacted)
        except (OSError, TimeoutError):
            written = journal.appended_records if journal is not None else 0
            self.write_failures += 1
            self._clean = False
            if self._store is not None:
                self._store.invalidate(len(pending) - written,
                                       reason="write_failed")
            return written
        self.records_flushed += len(pending)
        return len(pending)

    def _open(self) -> DurableJournal:
        journal = DurableJournal(
            self.directory, MEMO_PREFIX,
            clock=self._clock,
            max_segment_bytes=self._max_segment_bytes,
            on_damage=self._on_damage,
        )
        journal.open()
        return journal

    def _on_damage(self) -> None:
        # A fault-mangled append (bitflip/torn) is a record the next
        # load will reject — count the loss where it happens.
        self._clean = False
        if self._store is not None:
            self._store.invalidate(reason="damaged_write")

    def _maybe_compact(self, journal: DurableJournal) -> bool:
        if journal.closed_segment_count() < _COMPACT_SEGMENTS:
            return False
        if self._store is None:
            return False
        self._compact(journal)
        return True

    def _compact(self, journal: DurableJournal) -> None:
        journal.compact({"entries": self._snapshot_entries()})
        self.compactions += 1

    def compact(self) -> bool:
        """Fold the attached store into one snapshot segment now."""
        if self._store is None:
            return False
        try:
            with self._lock:
                self._catch_up()
                journal = self._open()
                try:
                    self._compact(journal)
                finally:
                    journal.close()
                self._skip_own_appends(compacted=True)
        except (OSError, TimeoutError):
            self.write_failures += 1
            self._clean = False
            return False
        return True

    def _snapshot_entries(self) -> List[List[Any]]:
        store = self._store
        entries: List[List[Any]] = []
        for key, value in store._points.items():
            entries.append(["point", key, value])
        for key, depths in store._legality.items():
            entries.append(["legality", key, list(depths)])
        for key in sorted(store._verified):
            entries.append(["verify", key, True])
        for key, value in store._schedules.items():
            entries.append(["schedule", key, value])
        return entries

    def close(self) -> None:
        self.flush()

    # -- inspection ------------------------------------------------------------

    def segment_count(self) -> int:
        return len(segment_paths(self.directory, MEMO_PREFIX))

    @property
    def pending(self) -> int:
        return len(self._pending)


#: The one process-resident store :func:`open_memo` hands out again.
_resident: Optional[MemoStore] = None
_resident_lock = threading.Lock()


def open_memo(directory: Optional[Path]) -> MemoStore:
    """The standard construction: a :class:`MemoStore`, journal-backed
    when ``directory`` is given, ephemeral otherwise.

    This is what every entry point (explore, batch worker, server
    scheduler, fleet shard) calls; the directory convention is
    ``<run-dir or state-dir>/memo/``.  When the process's resident
    store (see :func:`release_memo`) belongs to ``directory``, it is
    taken out of the slot and brought up to date from the journal's
    tail instead of replaying the whole journal.
    """
    global _resident
    if directory is None:
        return MemoStore()
    directory = Path(directory)
    with _resident_lock:
        store, _resident = _resident, None
    journal = store._journal if store is not None else None
    if journal is not None and (os.path.realpath(journal.directory)
                                == os.path.realpath(directory)):
        journal.load(store)
        return store
    store = MemoStore()
    store.attach_journal(MemoJournal(directory))
    return store


def release_memo(store: MemoStore) -> None:
    """Keep ``store`` for the next :func:`open_memo` of its directory.

    Call it after the store's final flush and do not touch the store
    again: the next open hands it out.  There is one slot per process,
    so a release replaces whatever store was kept before.  A store that
    could not resume (ephemeral, closed, holding unflushed entries, or
    whose last flush failed or wrote a damaged record) is not kept.
    """
    global _resident
    journal = store._journal
    if journal is None or not journal.resumable:
        return
    with _resident_lock:
        _resident = store
