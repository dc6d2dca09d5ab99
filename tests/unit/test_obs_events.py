"""Unit tests for the versioned event schema (repro.obs.events)."""

import json

import pytest

from repro.obs import events


class TestRoundTrip:
    def test_every_registered_event_round_trips(self):
        """Construct each event type with its required fields only and
        check to_record -> from_record is the identity."""
        import dataclasses
        for name, cls in events.event_types().items():
            kwargs = {}
            for spec in dataclasses.fields(cls):
                required = (
                    spec.default is dataclasses.MISSING
                    and spec.default_factory is dataclasses.MISSING
                )
                if not required:
                    continue
                if spec.type in ("float", float):
                    kwargs[spec.name] = 1.5
                elif spec.type in ("int", int):
                    kwargs[spec.name] = 2
                else:
                    kwargs[spec.name] = "x"
            event = cls(**kwargs)
            record = event.to_record()
            assert record["event"] == name
            assert record["schema_version"] == events.SCHEMA_VERSION
            restored = events.from_record(record, strict=True)
            assert restored == event

    def test_job_finish_full_round_trip(self):
        event = events.JobFinish(
            ts=10.0, job_id="fir-pipelined", attempt=1,
            selected_unroll=[8, 4], cycles=531, space=9676, speedup=17.2,
            points_searched=5, design_space_size=2048,
            cache_hits=3, cache_misses=2,
        )
        line = event.to_json()
        restored = events.from_json(line, strict=True)
        assert restored == event
        assert restored.points_searched == 5

    def test_to_record_flattens_extra(self):
        event = events.JobStart(ts=1.0, job_id="j", attempt=1,
                                extra={"future_field": 7})
        record = event.to_record()
        assert record["future_field"] == 7
        assert "extra" not in record


class TestVersioning:
    def test_v0_record_upgraded_in_non_strict_mode(self):
        v0 = {"event": "job_start", "ts": 1.0, "job_id": "a", "attempt": 1}
        event = events.from_record(v0)
        assert isinstance(event, events.JobStart)
        assert event.schema_version == events.SCHEMA_VERSION

    def test_v0_record_rejected_in_strict_mode(self):
        v0 = {"event": "job_start", "ts": 1.0, "job_id": "a", "attempt": 1}
        with pytest.raises(events.EventSchemaError):
            events.from_record(v0, strict=True)

    def test_upgrade_v0_stamps_version_only(self):
        record = {"event": "job_start", "ts": 1.0}
        upgraded = events.upgrade_v0(record)
        assert upgraded == {
            "event": "job_start", "ts": 1.0,
            "schema_version": events.SCHEMA_VERSION,
        }
        assert "schema_version" not in record  # input untouched

    def test_unsupported_version_rejected(self):
        record = {"event": "job_start", "ts": 1.0, "job_id": "a",
                  "attempt": 1, "schema_version": 99}
        with pytest.raises(events.EventSchemaError):
            events.from_record(record)


class TestForwardCompat:
    def test_unknown_fields_ride_in_extra(self):
        record = {"event": "job_start", "ts": 1.0, "job_id": "a",
                  "attempt": 1, "schema_version": 1, "novel": True}
        event = events.from_record(record)
        assert event.extra == {"novel": True}
        # and survive re-serialization
        assert events.from_record(event.to_record()).extra == {"novel": True}

    def test_unknown_event_becomes_generic(self):
        record = {"event": "from_the_future", "ts": 2.0,
                  "schema_version": 1, "payload": 3}
        event = events.from_record(record)
        assert isinstance(event, events.GenericEvent)
        assert event.name == "from_the_future"
        assert event.data == {"payload": 3}

    def test_unknown_event_strict_raises(self):
        record = {"event": "from_the_future", "ts": 2.0, "schema_version": 1}
        with pytest.raises(events.EventSchemaError):
            events.from_record(record, strict=True)


class TestFleetEvents:
    """The v1 fleet additions decode typed, not as GenericEvent."""

    def test_fleet_events_decode_typed(self):
        cases = {
            "worker_registered": events.WorkerRegistered,
            "lease_renewed": events.LeaseRenewed,
            "lease_expired": events.LeaseExpired,
            "shard_dispatched": events.ShardDispatched,
            "shard_rehomed": events.ShardRehomed,
            "shard_done": events.ShardDone,
        }
        registered = events.event_types()
        for name, cls in cases.items():
            assert registered[name] is cls

    def test_shard_rehomed_round_trip(self):
        event = events.ShardRehomed(
            ts=3.0, shard_id="shard-abc123", job_id="fir-pipelined",
            from_worker="w1",
        )
        restored = events.from_record(event.to_record(), strict=True)
        assert restored == event

    def test_worker_registered_validates(self):
        record = {"event": "worker_registered", "ts": 1.0, "worker": "w1",
                  "ttl_s": 10.0, "schema_version": 1}
        assert events.validate_record(record) == []

    def test_fleet_event_tolerates_future_fields(self):
        record = {"event": "lease_expired", "ts": 2.0, "worker": "w1",
                  "schema_version": 1, "grace_s": 5.0}
        event = events.from_record(record)
        assert isinstance(event, events.LeaseExpired)
        assert event.extra == {"grace_s": 5.0}


class TestValidation:
    def good(self):
        return {"event": "job_start", "ts": 1.0, "job_id": "a",
                "attempt": 1, "schema_version": 1}

    def test_conforming_record_has_no_problems(self):
        assert events.validate_record(self.good()) == []

    def test_missing_schema_version_flagged(self):
        record = self.good()
        del record["schema_version"]
        assert any("schema_version" in p
                   for p in events.validate_record(record))

    def test_missing_required_field_flagged(self):
        record = self.good()
        del record["job_id"]
        assert any("job_id" in p for p in events.validate_record(record))

    def test_unknown_field_flagged(self):
        record = self.good()
        record["surprise"] = 1
        assert any("surprise" in p for p in events.validate_record(record))

    def test_unknown_event_flagged(self):
        assert events.validate_record({"event": "nope"}) == [
            "unknown event 'nope'"
        ]

    def test_retired_cache_fields_of_old_traces_still_validate(self):
        """Run dirs recorded with the JSON estimate cache carry fields
        no longer produced; they must still pass ``--validate``."""
        start = {"event": "batch_start", "ts": 0.0, "jobs": 1, "workers": 1,
                 "cache": "run/estimates.json", "schema_version": 1}
        finish = {"event": "job_finish", "ts": 1.0, "job_id": "a",
                  "attempt": 1, "cache_hits": 0, "cache_misses": 7,
                  "cache_evictions": 2, "cache_save_error": None,
                  "schema_version": 1}
        for record in (start, finish):
            assert events.validate_record(record) == []
            assert events.from_record(record, strict=True).extra == {}

    def test_validate_jsonl_prefixes_line_numbers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bad = self.good()
        del bad["attempt"]
        path.write_text(
            json.dumps(self.good()) + "\n" + json.dumps(bad) + "\n"
        )
        problems = events.validate_jsonl(path)
        assert len(problems) == 1
        assert problems[0].startswith("line 2:")


class TestReadEvents:
    def test_skips_torn_lines_non_strict(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"event": "job_start", "ts": 1.0, "job_id": "a",
                "attempt": 1, "schema_version": 1}
        path.write_text(json.dumps(good) + "\n" + '{"torn')
        loaded = events.read_events(path)
        assert len(loaded) == 1
        assert isinstance(loaded[0], events.JobStart)

    def test_strict_raises_on_torn_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"torn')
        with pytest.raises(events.EventSchemaError):
            events.read_events(path, strict=True)

    def test_missing_file_is_empty(self, tmp_path):
        assert events.read_events(tmp_path / "nope.jsonl") == []
