"""Unit tests for the durable-log layer: framing, segments, compaction.

The contracts DESIGN.md §6.8 states, pinned one by one: checksummed
records are still plain JSON; legacy (unframed) records replay
unchanged; damage on the final line of the final segment is a torn
tail, damage anywhere else is corruption; rotation is size-driven;
compaction is atomic and replays to the same state; the three journal
fault sites do exactly what their names say.
"""

import json

import pytest

from repro import faults
from repro.durable.journal import (
    DurableJournal,
    JournalClosed,
    frame_record,
    quarantine_path,
    quarantine_records,
    record_crc,
    scan_journal,
    segment_paths,
    verify_line,
)


@pytest.fixture(autouse=True)
def _no_fault_leakage():
    faults.deactivate()
    yield
    faults.deactivate()


def open_journal(tmp_path, **kwargs):
    journal = DurableJournal(tmp_path, "jobs", **kwargs)
    journal.open()
    return journal


class TestFraming:
    def test_framed_line_is_plain_json(self):
        line = frame_record({"event": "job_started", "job_id": "j1"})
        record = json.loads(line)
        assert record["event"] == "job_started"
        assert record["crc32"] == record_crc({"event": "job_started",
                                              "job_id": "j1"})

    def test_roundtrip(self):
        original = {"event": "job_done", "job_id": "j1", "attempts": 2}
        record, problem = verify_line(frame_record(original))
        assert problem is None
        assert record == original  # the frame field is stripped

    def test_crc_ignores_existing_frame_field(self):
        record = {"event": "x", "crc32": "deadbeef"}
        assert record_crc(record) == record_crc({"event": "x"})

    def test_legacy_line_accepted_verbatim(self):
        record, problem = verify_line('{"event": "job_started"}')
        assert problem is None and record == {"event": "job_started"}

    def test_single_bit_flip_detected(self):
        line = frame_record({"event": "job_done", "job_id": "j1"})
        data = bytearray(line.encode())
        data[len(data) // 2] ^= 0x01
        record, problem = verify_line(bytes(data).decode("utf-8", "replace"))
        assert record is None
        assert problem in ("crc_mismatch", "bad_json")

    def test_problem_taxonomy(self):
        assert verify_line("{torn")[1] == "bad_json"
        assert verify_line('"a string"')[1] == "not_object"
        bad = dict(json.loads(frame_record({"event": "x"})))
        bad["event"] = "y"  # body changed, frame kept
        assert verify_line(json.dumps(bad))[1] == "crc_mismatch"


class TestSegments:
    def test_fresh_journal_uses_legacy_base_name(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.close()
        assert (tmp_path / "jobs.jsonl").exists()
        assert segment_paths(tmp_path, "jobs") == [tmp_path / "jobs.jsonl"]

    def test_size_rotation(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=80)
        for index in range(6):
            journal.append({"event": "e", "n": index})
        journal.close()
        names = [path.name for path in segment_paths(tmp_path, "jobs")]
        assert names[0] == "jobs.jsonl"
        assert len(names) > 1 and names[1] == "jobs.0001.jsonl"
        # replay spans every segment, in order
        scan = scan_journal(tmp_path, "jobs")
        assert [r["n"] for r in scan.records] == list(range(6))

    def test_reopen_appends_to_newest_segment(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=80)
        for index in range(4):
            journal.append({"event": "e", "n": index})
        active = journal.active_path
        journal.close()
        second = open_journal(tmp_path, max_segment_bytes=10_000)
        assert second.active_path == active
        second.close()

    def test_append_on_closed_journal_raises(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.close()
        with pytest.raises(JournalClosed):
            journal.append({"event": "a"})


class TestDamageTaxonomy:
    def test_torn_final_line_is_tail_not_corruption(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.close()
        with open(tmp_path / "jobs.jsonl", "a") as stream:
            stream.write('{"event": "b", "trunc')
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is not None
        assert scan.corrupt == []
        assert [r["event"] for r in scan.records] == ["a"]

    def test_mid_file_damage_is_corruption(self, tmp_path):
        journal = open_journal(tmp_path)
        for name in ("a", "b", "c"):
            journal.append({"event": name})
        journal.close()
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        lines[1] = lines[1][:10]  # not the final line: corruption
        (tmp_path / "jobs.jsonl").write_text("\n".join(lines) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is None
        assert len(scan.corrupt) == 1
        assert scan.corrupt[0].lineno == 2
        assert [r["event"] for r in scan.records] == ["a", "c"]

    def test_torn_tail_only_in_final_segment(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=60)
        for index in range(4):
            journal.append({"event": "e", "n": index})
        journal.close()
        segments = segment_paths(tmp_path, "jobs")
        assert len(segments) >= 2
        # Damage the last line of a NON-final segment: corruption.
        victim = segments[0]
        lines = victim.read_text().splitlines()
        lines[-1] = lines[-1][:8]
        victim.write_text("\n".join(lines) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is None
        assert len(scan.corrupt) == 1

    def test_legacy_journal_replays_unchanged(self, tmp_path):
        # A pre-checksum journal: plain records, no crc32 anywhere.
        with open(tmp_path / "jobs.jsonl", "w") as stream:
            for name in ("a", "b"):
                stream.write(json.dumps({"event": name}) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert [r["event"] for r in scan.records] == ["a", "b"]
        assert scan.legacy_records == 2 and scan.framed_records == 0
        assert scan.corrupt == [] and scan.torn_tail is None


class TestQuarantine:
    def test_quarantine_writes_and_dedups(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.append({"event": "b"})
        journal.append({"event": "c"})
        journal.close()
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        lines[1] = lines[1][:9]
        (tmp_path / "jobs.jsonl").write_text("\n".join(lines) + "\n")
        scan = scan_journal(tmp_path, "jobs")
        assert quarantine_records(tmp_path, "jobs", scan.corrupt) == 1
        # Re-quarantining the same damage is a no-op.
        assert quarantine_records(tmp_path, "jobs", scan.corrupt) == 0
        entries = [json.loads(line) for line in
                   quarantine_path(tmp_path, "jobs").read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["problem"] in ("bad_json", "crc_mismatch")
        assert entries[0]["segment"] == "jobs.jsonl"


class TestCompaction:
    def test_compact_folds_to_one_snapshot_segment(self, tmp_path):
        journal = open_journal(tmp_path, max_segment_bytes=60)
        for index in range(5):
            journal.append({"event": "e", "n": index})
        journal.compact({"total": 5})
        assert len(segment_paths(tmp_path, "jobs")) == 1
        journal.append({"event": "after"})
        journal.close()
        scan = scan_journal(tmp_path, "jobs")
        events = [r["event"] for r in scan.records]
        assert events == ["journal_snapshot", "after"]
        snapshot = scan.records[0]
        assert snapshot["state"] == {"total": 5}
        assert snapshot["folded_records"] == 5
        assert scan.snapshot_records == 1

    def test_compact_then_reopen(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append({"event": "a"})
        journal.compact({"seen": 1})
        journal.close()
        second = open_journal(tmp_path)
        second.append({"event": "b"})
        second.close()
        scan = scan_journal(tmp_path, "jobs")
        assert [r["event"] for r in scan.records] == \
            ["journal_snapshot", "b"]


class TestFaultSites:
    def _activate(self, tmp_path, rules):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"faults": rules}))
        faults.activate(str(spec))

    def test_disk_full_raises_enospc(self, tmp_path):
        journal = open_journal(tmp_path)
        self._activate(tmp_path, [
            {"site": "disk_full", "mode": "io_error", "max_hits": 1},
        ])
        import errno
        with pytest.raises(OSError) as caught:
            journal.append({"event": "a"})
        assert caught.value.errno == errno.ENOSPC
        journal.append({"event": "b"})  # max_hits spent: appends recover
        journal.close()

    def test_journal_bitflip_lands_but_fails_crc(self, tmp_path):
        journal = open_journal(tmp_path)
        self._activate(tmp_path, [
            {"site": "journal_bitflip", "mode": "bitflip", "max_hits": 1},
        ])
        journal.append({"event": "a"})
        journal.append({"event": "b"})
        journal.close()
        assert journal.damaged_writes == 1
        scan = scan_journal(tmp_path, "jobs")
        # The flipped record is on disk but damaged; the clean one reads.
        assert len(scan.records) == 1
        assert len(scan.corrupt) + (1 if scan.torn_tail else 0) == 1

    def test_journal_torn_truncates_and_drops_newline(self, tmp_path):
        journal = open_journal(tmp_path)
        self._activate(tmp_path, [
            {"site": "journal_torn", "mode": "corrupt", "max_hits": 1},
        ])
        journal.append({"event": "first"})
        journal.close()
        text = (tmp_path / "jobs.jsonl").read_text()
        assert not text.endswith("\n")  # mid-record: no newline landed
        scan = scan_journal(tmp_path, "jobs")
        assert scan.torn_tail is not None

    def test_damage_callback_counts(self, tmp_path):
        drops = []
        journal = DurableJournal(tmp_path, "jobs",
                                 on_damage=lambda: drops.append(1))
        journal.open()
        self._activate(tmp_path, [
            {"site": "journal_bitflip", "mode": "bitflip", "max_hits": 1},
        ])
        journal.append({"event": "a"})
        journal.close()
        assert drops == [1]


GROUP_SPECS = {
    "clean": [],
    "bitflip": [{"site": "journal_bitflip", "mode": "bitflip", "p": 0.3}],
    "torn": [{"site": "journal_torn", "mode": "corrupt", "p": 0.2}],
    "disk_full": [{"site": "disk_full", "mode": "io_error", "p": 0.1}],
    "mixed": [
        {"site": "journal_bitflip", "mode": "bitflip", "p": 0.2},
        {"site": "journal_torn", "mode": "corrupt", "p": 0.1},
        {"site": "disk_full", "mode": "io_error", "p": 0.05},
    ],
}


class TestGroupCommit:
    """``append_many`` of N records leaves exactly what N ``append``
    calls leave — lines, segment files, damage count — under every
    fault spec, because each record takes the same path."""

    RECORDS = [{"event": "memo_entry", "n": index, "pad": "x" * (index % 7)}
               for index in range(60)]

    def _run(self, directory, spec_rules, grouped):
        spec = directory.parent / f"{directory.name}.spec.json"
        spec.write_text(json.dumps({"seed": 5, "faults": spec_rules}))
        faults.activate(str(spec))
        drops = []
        journal = DurableJournal(directory, "memo", max_segment_bytes=400,
                                 on_damage=lambda: drops.append(1))
        journal.open()
        failed = None
        try:
            if grouped:
                journal.append_many(self.RECORDS)
            else:
                for record in self.RECORDS:
                    journal.append(record)
        except OSError as error:
            failed = error.errno
        finally:
            journal.close()
            faults.deactivate()
        files = {path.name: path.read_bytes()
                 for path in segment_paths(directory, "memo")}
        return files, journal.damaged_writes, len(drops), failed

    @pytest.mark.parametrize("name", sorted(GROUP_SPECS))
    def test_same_bytes_as_single_appends(self, tmp_path, name):
        single = self._run(tmp_path / "single", GROUP_SPECS[name], False)
        grouped = self._run(tmp_path / "grouped", GROUP_SPECS[name], True)
        assert grouped == single
        files, damaged, drops, _ = grouped
        assert len(files) > 1  # the batch crossed rotation boundaries
        assert drops == damaged
        if name in ("bitflip", "torn", "mixed"):
            assert damaged > 0

    def test_one_fsync_per_segment_touched(self, tmp_path, monkeypatch):
        import os
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd),
                                                     real(fd)))
        journal = DurableJournal(tmp_path, "memo", max_segment_bytes=400)
        journal.open()
        rotations = journal.append_many(self.RECORDS)
        journal.close()
        assert rotations == len(segment_paths(tmp_path, "memo")) - 1
        assert len(calls) == rotations + 1
        assert journal.appended_records == len(self.RECORDS)

    def test_records_before_a_fault_are_durable(self, tmp_path,
                                                monkeypatch):
        import errno
        import os
        consulted, synced = [], []

        def check(site, key=None):
            consulted.append(site)
            if len(consulted) == 3:
                raise OSError(errno.ENOSPC, "injected")

        real = os.fsync
        monkeypatch.setattr(faults, "check", check)
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd),
                                                     real(fd)))
        journal = open_journal(tmp_path)
        with pytest.raises(OSError):
            journal.append_many([{"event": name} for name in "abcd"])
        journal.close()
        assert consulted == ["disk_full"] * 3
        assert journal.appended_records == 2
        assert len(synced) == 1
        assert [r["event"] for r in scan_journal(tmp_path, "jobs")
                .records] == ["a", "b"]

    def test_torn_batch_scans_as_torn_tail_and_repairs(self, tmp_path):
        from repro.durable.fsck import inspect_path, repair_path
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"faults": [
            {"site": "journal_torn", "mode": "corrupt", "max_hits": 1},
        ]}))
        directory = tmp_path / "run"
        journal = DurableJournal(directory, "memo")
        journal.open()
        journal.append_many([{"event": "a"}, {"event": "b"}])
        faults.activate(str(spec))
        journal.append_many([{"event": "c"}])
        journal.close()
        faults.deactivate()
        scan = scan_journal(directory, "memo")
        assert scan.torn_tail is not None and not scan.corrupt
        repair_path(directory)
        (report,) = inspect_path(directory)
        assert report.clean
