"""Prometheus text exposition for a metrics-registry snapshot.

The exploration server's ``GET /metrics`` endpoint hands the registry's
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` to
:func:`render_prometheus` and serves the result — the text exposition
format (version 0.0.4) every Prometheus-compatible scraper speaks.

Mapping from the registry's model:

* Instrument names are dotted (``estimator.retries``); Prometheus names
  are underscore-separated with a ``repro_`` namespace prefix
  (``repro_estimator_retries``).
* The registry keys labelled series canonically as ``name{k=v,...}``;
  that key is parsed back apart and re-rendered with quoted, escaped
  label values.
* Registry histograms store *per-bucket* counts with explicit
  boundaries; Prometheus buckets are *cumulative* with ``le`` labels, so
  counts are prefix-summed here and the overflow bucket becomes
  ``le="+Inf"`` (which by construction equals ``_count``).

Rendering is pure string work over an already-serialized snapshot — it
never touches live instruments, so a scrape can run concurrently with
workers merging new numbers in.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Tuple

#: Prefix applied to every exposed metric name.
NAMESPACE = "repro"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """A registry instrument name as a Prometheus metric name."""
    return f"{NAMESPACE}_{_NAME_OK.sub('_', name)}"


def _parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split the registry's canonical ``name{k=v,...}`` series key."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, rendered = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in rendered.split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{_NAME_OK.sub("_", k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: Any) -> str:
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    if number == int(number):
        return str(int(number))
    return repr(number)


def _group_by_name(
    series: Mapping[str, Any]
) -> "Dict[str, List[Tuple[Dict[str, str], Any]]]":
    grouped: Dict[str, List[Tuple[Dict[str, str], Any]]] = {}
    for key in sorted(series):
        name, labels = _parse_series_key(key)
        grouped.setdefault(name, []).append((labels, series[key]))
    return grouped


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """The whole snapshot in Prometheus text exposition format.

    Accepts exactly what :meth:`MetricsRegistry.snapshot` produces (and
    what ``metrics.json`` persists); unknown top-level keys — such as the
    ``derived_from`` marker a spans-derived snapshot carries — are
    ignored.
    """
    lines: List[str] = []
    for name, variants in _group_by_name(snapshot.get("counters") or {}).items():
        exposed = metric_name(name)
        lines.append(f"# TYPE {exposed} counter")
        for labels, value in variants:
            lines.append(f"{exposed}{_render_labels(labels)} {_format_value(value)}")
    for name, variants in _group_by_name(snapshot.get("gauges") or {}).items():
        exposed = metric_name(name)
        lines.append(f"# TYPE {exposed} gauge")
        for labels, value in variants:
            lines.append(f"{exposed}{_render_labels(labels)} {_format_value(value)}")
    for name, variants in _group_by_name(
        snapshot.get("histograms") or {}
    ).items():
        exposed = metric_name(name)
        lines.append(f"# TYPE {exposed} histogram")
        for labels, dump in variants:
            boundaries = list(dump.get("boundaries") or ())
            counts = list(dump.get("counts") or ())
            cumulative = 0
            for boundary, count in zip(boundaries, counts):
                cumulative += count
                le = _render_labels(labels, f'le="{_format_value(boundary)}"')
                lines.append(f"{exposed}_bucket{le} {_format_value(cumulative)}")
            total = dump.get("count", 0)
            inf = _render_labels(labels, 'le="+Inf"')
            lines.append(f"{exposed}_bucket{inf} {_format_value(total)}")
            rendered = _render_labels(labels)
            lines.append(
                f"{exposed}_sum{rendered} {_format_value(dump.get('sum', 0.0))}"
            )
            lines.append(f"{exposed}_count{rendered} {_format_value(total)}")
    return "\n".join(lines) + "\n"
