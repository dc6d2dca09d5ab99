"""The ``repro trace`` report, pinned against a golden rendering.

The report must be derived *solely* from recorded artifacts — these
tests build a synthetic run (hand-authored spans and events, fixed
timestamps) and never execute an exploration.
"""

import json
from pathlib import Path

from repro.obs import Span, events
from repro.obs.report import (
    RunObservations, export_metrics, fraction_summary, load_run,
    point_timeline, render_report, stage_breakdown, validate_run,
)

GOLDEN = Path(__file__).parent.parent / "golden" / "trace_report.txt"


def _span(name, span_id, *, parent=None, t_wall=0.0, duration=0.0, **attrs):
    span = Span(name=name, span_id=span_id, parent_id=parent,
                t_wall=t_wall, attributes=attrs)
    span.duration_s = duration
    return span


def synthetic_spans():
    """Two jobs' worth of spans, as the coordinator's spans.jsonl would
    hold them: per-job sequential ids, interleaved wall clocks."""
    fir = "fir-pipelined"
    mm = "mm-pipelined"
    return [
        # job fir: root explore span + three point visits
        _span("dse.explore", "s1", t_wall=100.0, duration=1.0,
              job=fir, kernel="fir", board="WildStar/pipelined"),
        _span("pipeline", "s2", parent="s1", t_wall=100.0, duration=0.1,
              job=fir, kernel="fir"),
        _span("pipeline", "s3", parent="s1", t_wall=100.2, duration=0.1,
              job=fir, kernel="fir"),
        _span("pipeline", "s4", parent="s1", t_wall=100.5, duration=0.1,
              job=fir, kernel="fir"),
        _span("estimate.call", "s5", parent="s1", t_wall=100.1,
              duration=0.05, job=fir, backend="analytic"),
        # deliberately unattributed: a span recorded before backends
        # existed — the report must call the gap out, not hide it.
        _span("estimate.call", "s6", parent="s1", t_wall=100.3,
              duration=0.05, job=fir),
        _span("dse.point", "s7", parent="s1", t_wall=100.0, duration=0.2,
              job=fir, unroll=[1, 1], balance=2.824, cycles=10431,
              space=904, outcome="ok"),
        _span("dse.point", "s8", parent="s1", t_wall=100.2, duration=0.2,
              job=fir, unroll=[2, 1], balance=1.882, cycles=5200,
              space=1800, outcome="ok"),
        _span("dse.point", "s9", parent="s1", t_wall=100.5, duration=0.3,
              job=fir, unroll=[16, 16], outcome="infeasible"),
        # job mm: root explore span + two point visits
        _span("dse.explore", "s1", t_wall=100.1, duration=0.5,
              job=mm, kernel="mm", board="WildStar/pipelined"),
        _span("dse.point", "s2", parent="s1", t_wall=100.1, duration=0.2,
              job=mm, unroll=[1, 1, 1], balance=8.0, cycles=9135,
              space=1680, outcome="ok"),
        _span("dse.point", "s3", parent="s1", t_wall=100.4, duration=0.2,
              job=mm, unroll=[4, 2, 1], balance=4.0, cycles=1279,
              space=4009, outcome="ok"),
    ]


def synthetic_events():
    return [
        events.BatchStart(ts=100.0, jobs=2, workers=2),
        events.JobFinish(ts=101.0, job_id="fir-pipelined", attempt=1,
                         points_searched=3, design_space_size=2048,
                         speedup=19.79),
        events.JobFinish(ts=101.5, job_id="mm-pipelined", attempt=1,
                         points_searched=2, design_space_size=2048,
                         speedup=17.2),
        events.BatchFinish(ts=102.0, succeeded=2, failed=0, cache_hits=4,
                           cache_misses=1, points_synthesized=5),
    ]


def synthetic_run():
    return RunObservations(
        run_dir=Path("runs/golden"),
        events=synthetic_events(),
        spans=synthetic_spans(),
    )


def write_run_dir(run_dir):
    """Materialize the synthetic run as the on-disk artifact set."""
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "spans.jsonl", "w") as stream:
        for span in synthetic_spans():
            stream.write(json.dumps(span.to_dict()) + "\n")
    with open(run_dir / "trace.jsonl", "w") as stream:
        for event in synthetic_events():
            stream.write(event.to_json() + "\n")


class TestGolden:
    def test_report_matches_golden(self):
        rendered = render_report(synthetic_run()) + "\n"
        assert rendered == GOLDEN.read_text()


class TestSections:
    def test_stage_breakdown_aggregates_by_name(self):
        table = stage_breakdown(synthetic_spans()).render()
        # 3 + 2 point visits, total 1.1s of point time
        assert "dse.point" in table
        lines = [l for l in table.splitlines() if "dse.point" in l]
        assert "5" in lines[0] and "1.1000" in lines[0]

    def test_share_is_relative_to_root_spans(self):
        table = stage_breakdown(synthetic_spans()).render()
        # roots sum to 1.5s; dse.explore's own total is all of it
        explore_line = next(
            l for l in table.splitlines() if "dse.explore" in l
        )
        assert "100.0%" in explore_line

    def test_estimate_calls_split_by_backend(self):
        table = stage_breakdown(synthetic_spans()).render()
        assert "estimate.call[analytic]" in table
        # the unattributed span stays on the bare name
        bare = [l for l in table.splitlines()
                if "estimate.call " in l and "[" not in l]
        assert len(bare) == 1

    def test_unattributed_estimate_calls_counted(self):
        from repro.obs.report import unattributed_estimate_calls
        assert unattributed_estimate_calls(synthetic_spans()) == 1
        rendered = render_report(synthetic_run())
        assert "predates backend attribution" in rendered

    def test_timeline_groups_by_job_and_offsets_from_first_visit(self):
        lines = point_timeline(synthetic_spans())
        assert "  fir-pipelined" in lines
        assert "  mm-pipelined" in lines
        fir_start = lines.index("  fir-pipelined")
        assert lines[fir_start + 1].startswith("    +0.000s")
        assert "U=[1, 1]" in lines[fir_start + 1]
        assert "-> infeasible" in lines[fir_start + 3]

    def test_fraction_summary_from_job_finish_events(self):
        lines = fraction_summary(synthetic_events())
        assert any("3 of 2048 points (0.15%)" in line for line in lines)
        assert any("speedup 19.79x" in line for line in lines)

    def test_empty_run_degrades_gracefully(self):
        report = render_report(RunObservations(run_dir=Path("empty")))
        assert "no batch_finish event" in report
        assert "no design-point spans" in report
        assert "no job_finish events" in report


class TestOnDiskRun:
    def test_load_run_round_trips_artifacts(self, tmp_path):
        write_run_dir(tmp_path)
        obs = load_run(tmp_path)
        assert len(obs.spans) == len(synthetic_spans())
        assert len(obs.events) == len(synthetic_events())
        body = lambda report: report.split("\n", 1)[1]
        assert body(render_report(obs)) == body(render_report(synthetic_run()))

    def test_validate_run_accepts_conforming_artifacts(self, tmp_path):
        write_run_dir(tmp_path)
        assert validate_run(tmp_path) == []

    def test_validate_run_flags_unversioned_span(self, tmp_path):
        write_run_dir(tmp_path)
        with open(tmp_path / "spans.jsonl", "a") as stream:
            stream.write(json.dumps({"name": "rogue", "span_id": "s9",
                                     "t_wall": 0.0, "duration_s": 0.0}) + "\n")
        problems = validate_run(tmp_path)
        assert len(problems) == 1
        assert "schema_version" in problems[0]

    def test_validate_run_flags_unknown_event_field(self, tmp_path):
        write_run_dir(tmp_path)
        rogue = synthetic_events()[0].to_record()
        rogue["surprise"] = 1
        with open(tmp_path / "trace.jsonl", "a") as stream:
            stream.write(json.dumps(rogue) + "\n")
        problems = validate_run(tmp_path)
        assert len(problems) == 1
        assert "surprise" in problems[0]

    def test_cli_trace_renders_and_validates(self, tmp_path, capsys):
        from repro.cli import main
        write_run_dir(tmp_path)
        assert main(["trace", str(tmp_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "per-stage time breakdown" in out
        assert "all events and spans conform" in out

    def test_cli_trace_validate_fails_on_bad_stream(self, tmp_path, capsys):
        from repro.cli import main
        write_run_dir(tmp_path)
        with open(tmp_path / "trace.jsonl", "a") as stream:
            stream.write('{"event": "job_start", "ts": 0.0}\n')
        assert main(["trace", str(tmp_path), "--validate"]) == 1

    def test_cli_metrics_json_derives_from_spans(self, tmp_path, capsys):
        from repro.cli import main
        write_run_dir(tmp_path)  # no metrics.json in the synthetic run
        out_path = tmp_path / "metrics-out.json"
        assert main(["trace", str(tmp_path),
                     "--metrics-json", str(out_path)]) == 0
        exported = json.loads(out_path.read_text())
        assert exported["derived_from"] == "spans"
        assert exported["counters"]["span.count{span=dse.point}"] == 5

    def test_export_prefers_persisted_metrics(self, tmp_path):
        write_run_dir(tmp_path)
        persisted = {"counters": {"cache.hits": 4}, "gauges": {},
                     "histograms": {}}
        (tmp_path / "metrics.json").write_text(json.dumps(persisted))
        assert export_metrics(load_run(tmp_path)) == persisted

    def test_memo_journal_section_from_persisted_counters(self, tmp_path):
        write_run_dir(tmp_path)
        persisted = {"counters": {
            "incremental.journal.replays{kind=full}": 1,
            "incremental.journal.replays{kind=tail}": 4,
            "incremental.journal.replayed_records": 312,
        }, "gauges": {}, "histograms": {}}
        (tmp_path / "metrics.json").write_text(json.dumps(persisted))
        report = render_report(load_run(tmp_path))
        assert "memo journal\n\n  1 full replays, 4 tail replays, " \
               "312 records replayed" in report

    def test_no_memo_journal_section_without_counters(self, tmp_path):
        write_run_dir(tmp_path)
        assert "memo journal" not in render_report(load_run(tmp_path))
