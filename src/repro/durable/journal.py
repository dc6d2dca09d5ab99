"""The shared durable-log layer: checksummed, segmented JSONL journals.

Both long-lived journals in this system — the server's job store
(``jobs.jsonl`` under ``--state-dir``) and the batch run ledger
(``ledger.jsonl`` under ``--run-dir``) — started as single append-only
files whose replay tolerated exactly one failure mode: a clean torn
tail.  That is not what disks do.  Bit rot, partial sector writes, and
filesystem bugs damage records *in the middle* of a file, and an
unchecksummed reader either misparses them or silently drops them,
which makes "restart-resume" only as trustworthy as the medium.  This
module is the common durability substrate beneath both journals:

**Per-record CRC32 framing.**  Every appended record is stamped with a
``crc32`` field — CRC32 over the record's canonical JSON serialization
(sorted keys, compact separators, ``crc32`` itself excluded).  The line
on disk stays plain JSON, so every existing consumer (``repro trace``,
smoke scripts, ad-hoc ``jq``) keeps working, and journals written
*before* checksumming replay unchanged: a record without ``crc32`` is a
legacy record, accepted as-is with the old torn-tail-only semantics.
A framed record whose checksum does not match is **corrupt** — the
reader can now distinguish "the process died mid-append" (only ever the
final line of the final segment) from "the disk lied" (anywhere else).

**Segment rotation.**  The journal is an ordered list of segment files:
the legacy base name (``jobs.jsonl``) is segment zero, and rotation
continues into ``jobs.0001.jsonl``, ``jobs.0002.jsonl``, …  A fresh
journal starts at the base name, so small deployments never see more
than one file; size- and age-based rotation bound how much any single
corruption event can take down and give compaction whole-file units to
retire.

**Snapshot compaction.**  :meth:`DurableJournal.compact` folds the
owner-provided state into a single ``journal_snapshot`` record, writes
it as the first record of a fresh segment (atomically: temp file +
fsync + rename), then retires every older segment.  Replay folds a
snapshot by *resetting* to its state and continuing with subsequent
events — so a compacted journal replays to exactly the state the
uncompacted one did, in O(live state) instead of O(history).

**Damage discipline.**  :func:`scan_journal` never raises on damaged
input.  It returns every good record in order plus a precise damage
report: mid-file corruption (bad JSON, non-object, checksum mismatch)
with segment/line positions, and at most one torn tail (damage confined
to the final line of the final segment).  Callers decide policy —
the job store quarantines corrupt records to a ``.quarantine`` sidecar
and keeps replaying; ``repro fsck --repair`` truncates torn tails and
rewrites clean segments.

**Tail reading.**  :func:`read_tail` reads a chain from a per-segment
cursor (name, device, inode, bytes consumed, last consumed line), so a
long-lived reader adopts only what was appended since its last pass and
learns when the chain was rewritten instead (compaction, repair, a
deleted and recreated directory).  It splits and verifies lines exactly
as :func:`scan_journal` does.

Fault sites (see :mod:`repro.faults`): ``disk_full`` fires before every
appended record (an ``io_error`` rule turns it into ENOSPC),
``journal_bitflip`` flips one deterministic bit in the serialized line,
``journal_torn`` truncates the line mid-record and suppresses the
newline — the three ways a journal append lies, injectable on demand.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
)

from repro import faults

#: The reserved frame field carried on every checksummed record.
FRAME_FIELD = "crc32"

#: The snapshot record's event name (typed in :mod:`repro.obs.events`).
SNAPSHOT_EVENT = "journal_snapshot"

#: Rotate the active segment once it exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Numbered segment files: ``<prefix>.0001.jsonl`` and up.
_SEGMENT_RE = re.compile(r"^(?P<prefix>.+)\.(?P<index>\d{4,})\.jsonl$")

#: Sidecar holding quarantined (checksum-failed / unparseable) records.
QUARANTINE_SUFFIX = ".quarantine"


class JournalClosed(ValueError):
    """Append on a closed journal (the owner forgot to reopen)."""


# -- framing ------------------------------------------------------------------

def canonical_json(record: Mapping[str, Any]) -> str:
    """The byte-stable serialization the checksum covers."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_crc(record: Mapping[str, Any]) -> str:
    """CRC32 (8 hex chars) over the record's canonical form, with any
    existing frame field excluded."""
    body = {k: v for k, v in record.items() if k != FRAME_FIELD}
    crc = zlib.crc32(canonical_json(body).encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x}"


def frame_record(record: Mapping[str, Any]) -> str:
    """Serialize one record with its checksum stamped.

    The result is still one plain-JSON line — the frame is a field, not
    a wrapper — so pre-checksum readers parse it unchanged.
    """
    framed = dict(record)
    framed[FRAME_FIELD] = record_crc(record)
    return canonical_json(framed)


def verify_line(line: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Decode one journal line; returns ``(record, problem)``.

    Exactly one of the pair is ``None``.  Problems: ``bad_json`` (does
    not parse), ``not_object`` (parses to a non-dict), ``crc_mismatch``
    (framed, but the checksum disagrees — the disk lied).  A record with
    no frame field is legacy (pre-checksum) and is accepted verbatim.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None, "bad_json"
    if not isinstance(record, dict):
        return None, "not_object"
    stamped = record.get(FRAME_FIELD)
    if stamped is None:
        return record, None
    record = {k: v for k, v in record.items() if k != FRAME_FIELD}
    if not isinstance(stamped, str) or stamped != record_crc(record):
        return None, "crc_mismatch"
    return record, None


# -- segment discovery --------------------------------------------------------

def segment_paths(directory: Path, prefix: str) -> List[Path]:
    """Every segment of a journal, oldest first.

    The legacy base file (``<prefix>.jsonl``) sorts before every
    numbered segment — it is segment zero by construction.
    """
    directory = Path(directory)
    paths: List[Path] = []
    base = directory / f"{prefix}.jsonl"
    if base.exists():
        paths.append(base)
    numbered: List[Tuple[int, Path]] = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _SEGMENT_RE.match(entry.name)
            if match and match.group("prefix") == prefix:
                numbered.append((int(match.group("index")), entry))
    paths.extend(path for _, path in sorted(numbered))
    return paths


def quarantine_path(directory: Path, prefix: str) -> Path:
    return Path(directory) / f"{prefix}{QUARANTINE_SUFFIX}"


# -- scanning -----------------------------------------------------------------

@dataclass(frozen=True)
class DamagedRecord:
    """One journal line that failed framing, parsing, or checksum."""

    segment: str          # segment file name
    lineno: int           # 1-based within the segment
    problem: str          # bad_json | not_object | crc_mismatch
    raw: str              # the damaged line, verbatim

    def key(self) -> str:
        """Content identity for quarantine dedup across replays."""
        digest = zlib.crc32(self.raw.encode("utf-8", "replace")) & 0xFFFFFFFF
        return f"{self.segment}:{self.lineno}:{digest:08x}"


@dataclass
class JournalScan:
    """Everything one pass over a journal's segments learned."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    #: mid-file damage — never includes the torn tail
    corrupt: List[DamagedRecord] = field(default_factory=list)
    #: damage confined to the final line of the final segment
    torn_tail: Optional[DamagedRecord] = None
    segments: List[Path] = field(default_factory=list)
    framed_records: int = 0
    legacy_records: int = 0
    snapshot_records: int = 0

    @property
    def total_records(self) -> int:
        return len(self.records)


def scan_journal(directory: Path, prefix: str) -> JournalScan:
    """Read every segment, verifying frames; never raises on damage.

    The one concession to the pre-checksum crash model: damage on the
    *final* line of the *final* segment is a torn tail (the process died
    mid-append), reported separately from mid-file corruption so callers
    can keep the old "skip the torn write" semantics without also
    forgiving the disk.
    """
    scan = JournalScan(segments=segment_paths(directory, prefix))
    damaged: List[DamagedRecord] = []
    last_entry: Optional[Tuple[str, int]] = None  # (segment name, lineno)
    for segment in scan.segments:
        try:
            text = segment.read_text(errors="replace")
        except OSError:
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped:
                continue
            last_entry = (segment.name, lineno)
            record, problem = verify_line(stripped)
            if problem is not None:
                damaged.append(DamagedRecord(
                    segment=segment.name, lineno=lineno,
                    problem=problem, raw=stripped,
                ))
                continue
            if FRAME_FIELD in stripped:
                scan.framed_records += 1
            else:
                scan.legacy_records += 1
            if record.get("event") == SNAPSHOT_EVENT:
                scan.snapshot_records += 1
            scan.records.append(record)
    if damaged and last_entry is not None:
        tail = damaged[-1]
        if (tail.segment, tail.lineno) == last_entry:
            scan.torn_tail = tail
            damaged = damaged[:-1]
    scan.corrupt = damaged
    return scan


# -- tail reading -------------------------------------------------------------

@dataclass(frozen=True)
class SegmentCursor:
    """How far a reader has consumed one segment file."""

    name: str             # segment file name
    device: int
    inode: int
    offset: int           # bytes consumed; just past a newline, or 0
    last_line: bytes      # the final consumed line, newline included


@dataclass
class JournalTail:
    """What one :func:`read_tail` pass found past its cursor."""

    #: ``(record, consumed)`` per non-blank line, in journal order;
    #: ``record`` is ``None`` for a damaged line (see :func:`verify_line`).
    #: ``consumed`` is ``False`` for a segment's final line that has no
    #: newline yet: the cursor stops before it, so the next pass reads it
    #: again.
    lines: List[Tuple[Optional[Dict[str, Any]], bool]] = \
        field(default_factory=list)
    #: where the next pass starts; ``None`` when a segment could not be
    #: read, so no later pass can resume from this one
    cursor: Optional[Tuple[SegmentCursor, ...]] = ()
    #: the newest segment ends without a newline, so the next append
    #: lands on that unfinished line
    open_line: bool = False

    @property
    def snapshot_seen(self) -> bool:
        return any(record is not None and record.get("event") == SNAPSHOT_EVENT
                   for record, _consumed in self.lines)


def read_tail(directory: Path, prefix: str,
              cursor: Tuple[SegmentCursor, ...] = (),
              parse: bool = True) -> Optional[JournalTail]:
    """Read what was appended to a journal since ``cursor``.

    With the empty cursor this reads the whole chain.  Lines are split
    and verified exactly as :func:`scan_journal` does, so a reader that
    adds up its passes sees the records and damage one scan would.
    Returns ``None`` when the chain was changed other than by appends:
    a consumed segment vanished, changed device or inode, or shrank, its
    last consumed line no longer reads back byte-identical (inode reuse
    after a delete and recreate), or the segment list no longer starts
    with the consumed ones.  ``parse=False`` only moves the cursor to
    the end (for a writer skipping its own appends).
    """
    segments = segment_paths(directory, prefix)
    if [path.name for path in segments[:len(cursor)]] != \
            [entry.name for entry in cursor]:
        return None
    tail = JournalTail()
    cursors: List[SegmentCursor] = []
    for index, path in enumerate(segments):
        previous = cursor[index] if index < len(cursor) else None
        try:
            with open(path, "rb") as stream:
                status = os.fstat(stream.fileno())
                offset, last = 0, b""
                if previous is not None:
                    if ((status.st_dev, status.st_ino)
                            != (previous.device, previous.inode)
                            or status.st_size < previous.offset):
                        return None
                    offset, last = previous.offset, previous.last_line
                    stream.seek(offset - len(last))
                    if stream.read(len(last)) != last:
                        return None
                data = stream.read()
        except OSError:
            if previous is not None:
                return None
            tail.cursor = None
            continue
        end = data.rfind(b"\n") + 1
        tail.open_line = end < len(data)
        if end:
            last = data[data.rfind(b"\n", 0, end - 1) + 1:end]
        if parse:
            _split_lines(data[:end], True, tail.lines)
            _split_lines(data[end:], False, tail.lines)
        cursors.append(SegmentCursor(
            name=path.name, device=status.st_dev, inode=status.st_ino,
            offset=offset + end, last_line=last,
        ))
    if tail.cursor is not None:
        tail.cursor = tuple(cursors)
    return tail


def _split_lines(data: bytes, consumed: bool,
                 out: List[Tuple[Optional[Dict[str, Any]], bool]]) -> None:
    for line in data.decode("utf-8", "replace").splitlines():
        stripped = line.strip()
        if stripped:
            out.append((verify_line(stripped)[0], consumed))


def quarantine_records(directory: Path, prefix: str,
                       damaged: List[DamagedRecord],
                       clock: Callable[[], float] = time.time) -> int:
    """Append damaged records to the journal's ``.quarantine`` sidecar.

    Each entry wraps the raw line with its provenance (segment, line,
    problem).  Entries are deduplicated by content key so a store that
    replays the same damaged journal twice (the operator has not run
    ``fsck --repair`` yet) does not grow the sidecar without bound.
    Returns how many entries were newly written; sidecar write failures
    are swallowed — quarantine is best-effort bookkeeping, replay must
    continue regardless.
    """
    if not damaged:
        return 0
    path = quarantine_path(directory, prefix)
    seen = set()
    try:
        for line in path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "key" in entry:
                seen.add(entry["key"])
    except OSError:
        pass
    written = 0
    try:
        with open(path, "a") as stream:
            for record in damaged:
                if record.key() in seen:
                    continue
                stream.write(json.dumps({
                    "ts": clock(),
                    "key": record.key(),
                    "segment": record.segment,
                    "lineno": record.lineno,
                    "problem": record.problem,
                    "raw": record.raw,
                }) + "\n")
                written += 1
    except OSError:
        return written
    return written


# -- the writer ---------------------------------------------------------------

class DurableJournal:
    """Append-only writer over a journal's segment chain.

    One instance owns the *active* segment: the newest existing segment
    at open time (the legacy base name for a fresh journal).  ``append``
    frames, writes, flushes, and fsyncs one line, rotating first when
    the active segment has outgrown ``max_segment_bytes`` or
    ``max_segment_age_s``.  ``append_many`` is the group commit: it
    frames each record exactly as ``append`` does (same fault sites,
    consulted once per record, in order; same rotation boundaries) but
    issues one write and one fsync per segment touched, so the bytes on
    disk are those of N single appends.  On a failure at record k the
    records before k are written and fsync'd before the error
    propagates.  OSErrors propagate to the caller — append policy
    (required vs counted-drop vs read-only degradation) is the owner's
    concern, not the transport's.

    ``line_filter`` lets an owner keep a legacy mangle site in the write
    path (the run ledger's ``ledger_line``); any filter- or fault-damage
    to the line is counted on :attr:`damaged_writes` and reported
    through ``on_damage`` — a damaged write *is* a lost record, the
    checksum just makes the loss honest.
    """

    def __init__(
        self,
        directory: Path,
        prefix: str,
        clock: Callable[[], float] = time.time,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_segment_age_s: Optional[float] = None,
        line_filter: Optional[Callable[[str], str]] = None,
        on_damage: Optional[Callable[[], None]] = None,
    ):
        self.directory = Path(directory)
        self.prefix = prefix
        self.max_segment_bytes = max(1, int(max_segment_bytes))
        self.max_segment_age_s = max_segment_age_s
        self.damaged_writes = 0
        #: records written and fsync'd, damaged ones included
        self.appended_records = 0
        self.rotations = 0
        self.compactions = 0
        self._clock = clock
        self._line_filter = line_filter
        self._on_damage = on_damage
        self._stream = None
        self._active: Optional[Path] = None
        self._active_bytes = 0
        self._opened_at = 0.0

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._stream is None

    @property
    def active_path(self) -> Optional[Path]:
        return self._active

    def open(self) -> None:
        """(Re)open the newest segment for appending."""
        if self._stream is not None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        segments = segment_paths(self.directory, self.prefix)
        active = segments[-1] if segments else (
            self.directory / f"{self.prefix}.jsonl"
        )
        self._open_segment(active)

    def _open_segment(self, path: Path) -> None:
        self._stream = open(path, "a")
        self._active = path
        try:
            self._active_bytes = path.stat().st_size
        except OSError:
            self._active_bytes = 0
        self._opened_at = self._clock()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    # -- appending ------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> bool:
        """Frame, write, flush, fsync one record; returns ``True`` when
        this append rotated onto a new segment.

        Raises :class:`JournalClosed` when closed and lets ``OSError``
        (ENOSPC, EIO, …) and serialization errors propagate — policy
        belongs to the owner.
        """
        return self.append_many((record,)) > 0

    def append_many(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Group-commit ``records``; returns how many rotations happened.

        Each record goes through the same steps as in :meth:`append`
        (``disk_full`` check, rotation check, framing, line filter,
        ``journal_bitflip`` and ``journal_torn`` mangles), but the lines
        are buffered and each segment gets one write and one fsync.
        """
        if self._stream is None:
            raise JournalClosed(f"journal {self.prefix} is closed")
        batch: List[str] = []
        damaged = 0
        rotations = 0

        def commit() -> None:
            nonlocal batch, damaged
            if batch:
                self._stream.write("".join(batch))
                self._stream.flush()
                os.fsync(self._stream.fileno())
                self.appended_records += len(batch)
            hurt, batch, damaged = damaged, [], 0
            self.damaged_writes += hurt
            for _ in range(hurt if self._on_damage is not None else 0):
                self._on_damage()

        try:
            for record in records:
                faults.check("disk_full", key=self.prefix)
                if self._rotation_due():
                    commit()
                    self.rotate()
                    rotations += 1
                data, hurt = self._render(record)
                batch.append(data)
                damaged += hurt
                self._active_bytes += len(data.encode("utf-8", "replace"))
        except BaseException:
            commit()
            raise
        commit()
        return rotations

    def _render(self, record: Mapping[str, Any]) -> Tuple[str, bool]:
        """One record's bytes as they land, and whether they are damaged."""
        line = frame_record(record)
        written = line
        if self._line_filter is not None:
            written = self._line_filter(written)
        written = faults.mangle("journal_bitflip", written, key=self.prefix)
        torn = faults.mangle("journal_torn", written, key=self.prefix)
        if torn != written:
            # A torn write stops mid-record: no newline ever lands.
            return torn, True
        return written + "\n", written != line

    def _rotation_due(self) -> bool:
        over_size = self._active_bytes >= self.max_segment_bytes
        over_age = (
            self.max_segment_age_s is not None
            and self._clock() - self._opened_at >= self.max_segment_age_s
        )
        return over_size or over_age

    def rotate(self) -> Path:
        """Close the active segment and start the next numbered one."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        next_path = self._next_segment_path()
        self._open_segment(next_path)
        self.rotations += 1
        return next_path

    def _next_segment_path(self) -> Path:
        highest = 0
        for path in segment_paths(self.directory, self.prefix):
            match = _SEGMENT_RE.match(path.name)
            if match and match.group("prefix") == self.prefix:
                highest = max(highest, int(match.group("index")))
        return self.directory / f"{self.prefix}.{highest + 1:04d}.jsonl"

    # -- compaction -----------------------------------------------------------

    def closed_segment_count(self) -> int:
        """Segments other than the active one — compaction's fodder."""
        segments = segment_paths(self.directory, self.prefix)
        if self._active is not None and self._active in segments:
            return len(segments) - 1
        return len(segments)

    def compact(self, state: Mapping[str, Any],
                schema_version: int = 1) -> Path:
        """Fold ``state`` into one snapshot record atomically, retire
        every older segment, and continue appending after the snapshot.

        The snapshot segment is written complete (temp file, flushed,
        fsync'd) and published with an atomic rename *before* any old
        segment is unlinked, so every crash window replays to the same
        state: crash before the rename reads the old segments; crash
        after it reads the snapshot (old segments, if any survive, are
        superseded the moment the replay folds the snapshot record).
        """
        retired = segment_paths(self.directory, self.prefix)
        folded_records = 0
        for segment in retired:
            try:
                folded_records += sum(
                    1 for line in segment.read_text(errors="replace")
                    .splitlines() if line.strip()
                )
            except OSError:
                continue
        snapshot = {
            "ts": self._clock(),
            "schema_version": schema_version,
            "event": SNAPSHOT_EVENT,
            "journal": self.prefix,
            "state": dict(state),
            "folded_segments": len(retired),
            "folded_records": folded_records,
        }
        target = self._next_segment_path()
        temp = target.with_suffix(target.suffix + ".tmp")
        with open(temp, "w") as stream:
            stream.write(frame_record(snapshot) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, target)
        self._fsync_directory()
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        for segment in retired:
            if segment == target:
                continue
            try:
                segment.unlink()
            except OSError:
                pass  # a survivor is superseded by the snapshot anyway
        self._open_segment(target)
        self.compactions += 1
        return target

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(str(self.directory), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FRAME_FIELD",
    "QUARANTINE_SUFFIX",
    "SNAPSHOT_EVENT",
    "DamagedRecord",
    "DurableJournal",
    "JournalClosed",
    "JournalScan",
    "JournalTail",
    "SegmentCursor",
    "canonical_json",
    "frame_record",
    "quarantine_path",
    "quarantine_records",
    "read_tail",
    "record_crc",
    "scan_journal",
    "segment_paths",
    "verify_line",
]
