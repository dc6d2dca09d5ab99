"""Render a recorded run's observability report — ``repro trace``.

Everything here is derived from the artifacts a journaled batch leaves
in its run directory; nothing is re-executed:

    <run-dir>/
      trace.jsonl    telemetry events (versioned, typed)
      ledger.jsonl   crash journal (versioned, typed)
      spans.jsonl    spans shipped back by workers
      metrics.json   the coordinator's merged metrics registry

The report answers the three questions the paper's efficiency claims
raise: *where did the time go* (per-stage breakdown over span
durations), *where did the visits go* (per-point timeline of every
design-point evaluation, in wall-clock order), and *how little of the
space was searched* (fraction-searched summary per job).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SPAN_SCHEMA_VERSION, Span, read_spans
from repro.report import Table

TRACE_NAME = "trace.jsonl"
SPANS_NAME = "spans.jsonl"
LEDGER_NAME = "ledger.jsonl"
METRICS_NAME = "metrics.json"


@dataclass
class RunObservations:
    """Everything ``repro trace`` loads from one run directory."""

    run_dir: Path
    events: List[obs_events.EventBase] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    metrics: Optional[Dict[str, Any]] = None


def load_run(run_dir: Path) -> RunObservations:
    """Read a run directory's recorded artifacts (tolerating absences —
    a crashed or partially-traced run still renders)."""
    run_dir = Path(run_dir)
    obs = RunObservations(run_dir=run_dir)
    trace_path = run_dir / TRACE_NAME
    if trace_path.exists():
        obs.events = obs_events.read_events(trace_path)
    spans_path = run_dir / SPANS_NAME
    if spans_path.exists():
        obs.spans = read_spans(spans_path)
    metrics_path = run_dir / METRICS_NAME
    if metrics_path.exists():
        try:
            loaded = json.loads(metrics_path.read_text())
        except (OSError, json.JSONDecodeError):
            loaded = None
        if isinstance(loaded, dict):
            obs.metrics = loaded
    return obs


# -- per-stage time breakdown -------------------------------------------------

def _stage_key(span: Span) -> str:
    """The breakdown row a span aggregates into.

    ``estimate.call`` spans split by their ``backend`` attribute (e.g.
    ``estimate.call[interp]``) so multi-backend runs show where the
    estimation time actually went; spans recorded before backends
    existed carry no attribute and stay on the bare name.
    """
    if span.name == "estimate.call":
        backend = span.attributes.get("backend")
        if backend:
            return f"estimate.call[{backend}]"
    return span.name


def unattributed_estimate_calls(spans: List[Span]) -> int:
    """``estimate.call`` spans with no backend attribute (pre-backend
    run dirs) — drives the forward-compat diagnostic in the report."""
    return sum(
        1 for span in spans
        if span.name == "estimate.call"
        and not span.attributes.get("backend")
    )


def stage_breakdown(spans: List[Span]) -> Table:
    """Aggregate span durations by name (``estimate.call`` further
    split per backend — see :func:`_stage_key`).

    ``share`` is each stage's total against the summed duration of the
    *root* spans (no parent) — the run's traced wall time — so nested
    stages legitimately sum past 100%.
    """
    totals: Dict[str, Tuple[int, float]] = {}
    root_seconds = 0.0
    for span in spans:
        seconds = span.duration_s or 0.0
        key = _stage_key(span)
        calls, total = totals.get(key, (0, 0.0))
        totals[key] = (calls + 1, total + seconds)
        if span.parent_id is None:
            root_seconds += seconds
    table = Table(
        "per-stage time breakdown",
        ["Stage", "Calls", "Total s", "Mean ms", "Share"],
    )
    ordered = sorted(totals.items(), key=lambda item: (-item[1][1], item[0]))
    for name, (calls, total) in ordered:
        mean_ms = (total / calls) * 1000.0 if calls else 0.0
        share = (total / root_seconds) if root_seconds else 0.0
        table.add_row(
            name, calls, f"{total:.4f}", f"{mean_ms:.3f}", f"{100 * share:.1f}%",
        )
    return table


# -- per-point visit timeline -------------------------------------------------

def point_timeline(spans: List[Span]) -> List[str]:
    """One line per design-point evaluation, grouped by job, ordered by
    wall-clock start, with offsets relative to each job's first visit."""
    points = [span for span in spans if span.name == "dse.point"]
    if not points:
        return ["  (no design-point spans recorded)"]
    by_job: Dict[str, List[Span]] = {}
    for span in points:
        job = str(span.attributes.get("job")
                  or span.attributes.get("kernel") or "?")
        by_job.setdefault(job, []).append(span)
    lines: List[str] = []
    for job in sorted(by_job):
        visits = sorted(by_job[job], key=lambda span: span.t_wall)
        epoch = visits[0].t_wall
        lines.append(f"  {job}")
        for span in visits:
            attrs = span.attributes
            offset = span.t_wall - epoch
            parts = [f"    +{offset:.3f}s", f"U={attrs.get('unroll', '?')}"]
            if attrs.get("balance") is not None:
                parts.append(f"balance={attrs['balance']:.3f}")
            if attrs.get("cycles") is not None:
                parts.append(f"cycles={attrs['cycles']}")
            if attrs.get("space") is not None:
                parts.append(f"space={attrs['space']}")
            outcome = attrs.get("outcome", span.status)
            parts.append(f"-> {outcome}")
            lines.append("  ".join(parts))
    return lines


# -- incremental reuse summary ------------------------------------------------

def incremental_summary(spans: List[Span]) -> List[str]:
    """Memo hit rates per job from ``dse.point`` span attributes.

    Each point span carries ``incremental`` (``hit``/``miss``/``off``),
    ``incremental.reused_regions`` (schedule regions served from the
    memo on a miss), and ``incremental.verify_skips``; aggregating them
    shows how much of the walk was amortized across neighboring points.
    Runs recorded before incremental evaluation existed carry no
    attribute at all and get no section (returns ``[]``) — old run
    dirs render exactly as they always did.
    """
    points = [span for span in spans if span.name == "dse.point"]
    tracked = [
        span for span in points
        if span.attributes.get("incremental") in ("hit", "miss")
    ]
    if not tracked:
        if any(s.attributes.get("incremental") == "off" for s in points):
            return ["  (incremental evaluation was off for this run)"]
        return []
    by_job: Dict[str, List[Span]] = {}
    for span in tracked:
        job = str(span.attributes.get("job")
                  or span.attributes.get("kernel") or "?")
        by_job.setdefault(job, []).append(span)
    lines: List[str] = []
    total_hits = total_points = 0
    for job in sorted(by_job):
        visits = by_job[job]
        hits = sum(
            1 for s in visits if s.attributes.get("incremental") == "hit"
        )
        regions = sum(
            int(s.attributes.get("incremental.reused_regions") or 0)
            for s in visits
        )
        skips = sum(
            int(s.attributes.get("incremental.verify_skips") or 0)
            for s in visits
        )
        total_hits += hits
        total_points += len(visits)
        parts = [
            f"  {job}",
            f"{hits}/{len(visits)} point hits "
            f"({100.0 * hits / len(visits):.0f}%)",
            f"{regions} regions reused",
        ]
        if skips:
            parts.append(f"{skips} verify skips")
        lines.append("  ".join(parts))
    if len(by_job) > 1:
        lines.append(
            f"  overall  {total_hits}/{total_points} point hits "
            f"({100.0 * total_hits / total_points:.0f}%)"
        )
    return lines


def memo_journal_summary(metrics: Optional[Dict[str, Any]]) -> List[str]:
    """Memo-journal replay work from the run's persisted counters.

    ``incremental.journal.replays{kind=full|tail}`` counts the opens
    that replayed the whole journal and those that read only its tail
    (a worker's resident memo); ``incremental.journal.replayed_records``
    counts the records those replays read.  Runs without the counters
    get no section (returns ``[]``).
    """
    counters = (metrics or {}).get("counters") or {}
    full = counters.get("incremental.journal.replays{kind=full}")
    tail = counters.get("incremental.journal.replays{kind=tail}")
    if full is None and tail is None:
        return []
    records = counters.get("incremental.journal.replayed_records", 0)
    return [f"  {int(full or 0)} full replays, {int(tail or 0)} tail "
            f"replays, {int(records)} records replayed"]


# -- fraction-searched summary ------------------------------------------------

def fraction_summary(events: List[obs_events.EventBase]) -> List[str]:
    """The paper's headline metric per job, from ``job_finish`` events."""
    lines: List[str] = []
    for event in events:
        if not isinstance(event, obs_events.JobFinish):
            continue
        searched = event.points_searched
        size = event.design_space_size
        if searched is None or not size:
            continue
        fraction = 100.0 * searched / size
        parts = [
            f"  {event.job_id}",
            f"{searched} of {size} points ({fraction:.2f}%)",
        ]
        if event.speedup is not None:
            parts.append(f"speedup {event.speedup:.2f}x")
        lines.append("  ".join(parts))
    return lines or ["  (no job_finish events recorded)"]


# -- headline -----------------------------------------------------------------

def _headline(obs: RunObservations) -> List[str]:
    finish = next(
        (e for e in reversed(obs.events)
         if isinstance(e, obs_events.BatchFinish)), None,
    )
    lines = [f"observability report: {obs.run_dir}"]
    if finish is not None:
        lines.append(
            f"  batch: {finish.succeeded} succeeded, {finish.failed} failed"
            f", cache {finish.cache_hits} hits / {finish.cache_misses} misses"
            f", {finish.points_synthesized} points synthesized"
        )
        drops = finish.telemetry_dropped + finish.ledger_dropped
        if drops:
            lines.append(
                f"  WARNING: {finish.telemetry_dropped} telemetry and "
                f"{finish.ledger_dropped} ledger writes were dropped — the "
                f"record below has gaps"
            )
    else:
        lines.append("  batch: no batch_finish event (crashed or in flight?)")
    lines.append(
        f"  recorded: {len(obs.events)} events, {len(obs.spans)} spans"
    )
    return lines


def render_report(obs: RunObservations) -> str:
    """The full ``repro trace`` text report."""
    sections: List[str] = []
    sections.extend(_headline(obs))
    sections.append("")
    if obs.spans:
        sections.append(stage_breakdown(obs.spans).render())
        legacy = unattributed_estimate_calls(obs.spans)
        if legacy:
            sections.append(
                f"  note: {legacy} estimate.call span(s) carry no backend "
                f"attribute — run dir predates backend attribution"
            )
    else:
        sections.append("per-stage time breakdown")
        sections.append("")
        sections.append("  (no spans recorded — was the run traced?)")
    sections.append("")
    sections.append("per-point visit timeline")
    sections.append("")
    sections.extend(point_timeline(obs.spans))
    reuse = incremental_summary(obs.spans)
    if reuse:
        sections.append("")
        sections.append("incremental reuse")
        sections.append("")
        sections.extend(reuse)
    replays = memo_journal_summary(obs.metrics)
    if replays:
        sections.append("")
        sections.append("memo journal")
        sections.append("")
        sections.extend(replays)
    sections.append("")
    sections.append("fraction searched")
    sections.append("")
    sections.extend(fraction_summary(obs.events))
    return "\n".join(sections)


# -- validation ---------------------------------------------------------------

def validate_run(run_dir: Path) -> List[str]:
    """Audit every event stream the run emitted against the v1 schema.

    Covers the telemetry trace, the ledger journal, and the span file;
    each problem is prefixed with the file it came from.  An empty list
    means the whole run conforms.
    """
    run_dir = Path(run_dir)
    problems: List[str] = []
    trace_path = run_dir / TRACE_NAME
    if trace_path.exists():
        problems.extend(
            f"{TRACE_NAME}: {problem}"
            for problem in obs_events.validate_jsonl(trace_path)
        )
    # The ledger may have rotated into numbered segments (PR 8); audit
    # the whole chain, not just the base file.
    from repro.durable.journal import segment_paths
    for path in segment_paths(run_dir, "ledger"):
        problems.extend(
            f"{path.name}: {problem}"
            for problem in obs_events.validate_jsonl(path)
        )
    spans_path = run_dir / SPANS_NAME
    if spans_path.exists():
        problems.extend(
            f"{SPANS_NAME}: {problem}"
            for problem in _validate_spans(spans_path)
        )
    return problems


def _validate_spans(path: Path) -> List[str]:
    problems: List[str] = []
    try:
        text = Path(path).read_text()
    except OSError as error:
        return [f"cannot read {path}: {error}"]
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(f"line {lineno}: not valid JSON: {error}")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {lineno}: span record must be an object")
            continue
        version = record.get("schema_version")
        if version != SPAN_SCHEMA_VERSION:
            problems.append(
                f"line {lineno}: span schema_version {version!r} != "
                f"{SPAN_SCHEMA_VERSION}"
            )
        for required in ("name", "span_id", "t_wall", "duration_s"):
            if required not in record:
                problems.append(
                    f"line {lineno}: span missing field {required!r}"
                )
    return problems


# -- metrics export -----------------------------------------------------------

def export_metrics(obs: RunObservations) -> Dict[str, Any]:
    """The run's metrics snapshot for ``--metrics-json``.

    Prefers the registry the coordinator persisted at ``batch_finish``
    time; a run recorded before metrics persistence (or whose save was
    lost) degrades to a snapshot *derived* from the span file — span
    counts and duration histograms per stage — marked as such.
    """
    if obs.metrics is not None:
        return obs.metrics
    registry = MetricsRegistry()
    for span in obs.spans:
        registry.counter("span.count", span=span.name).inc()
        registry.histogram("span.seconds", span=span.name).observe(
            span.duration_s or 0.0
        )
    derived = registry.snapshot()
    derived["derived_from"] = "spans"
    return derived
