"""Per-layer tracing for the benchmark's traced runs (``--trace 1``).

The program already records spans at a few boundaries: ``pipeline`` and
``pipeline.<stage>`` (Figure-3 compile), ``estimate.call``,
``dse.point``, ``dse.search`` and ``dse.explore``.  The layers between
them -- the IR verifier, DFG build, scheduling, area, content hashing,
the memo journal and the durable substrate -- record nothing, so
:func:`install` wraps their public functions from here, without
touching ``src/``.  Each function is replaced in every ``repro`` module
that binds it, which is where its caller looks it up (a module-level
``from x import f`` binds a second name; a function-local import reads
the defining module at call time).  ``os.fsync`` is wrapped too.

A wrapper opens a span on the program's ambient tracer
(:func:`repro.obs.trace.current_tracer`), so wrapper spans nest with the
program's own.  Outside a traced operation the ambient tracer is the
no-op default and the wrappers record nothing.

:class:`LayerStats` folds finished spans into per-layer totals.  A
span's *self time* is its duration minus the time covered by its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (defining module, function, span name, attribute extractor).  The
#: extractor turns the return value into span attributes.
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.frontend", "compile_source", "frontend.parse", None),
    ("repro.ir.verify", "check_ir", "ir.verify", None),
    ("repro.synthesis.estimator", "synthesize", "synthesis.synthesize", None),
    ("repro.synthesis.scheduling", "schedule_region", "synthesis.schedule",
     None),
    ("repro.synthesis.area", "operator_area", "synthesis.area", None),
    ("repro.synthesis.area", "register_area", "synthesis.area", None),
    ("repro.synthesis.area", "memory_interface_area", "synthesis.area", None),
    ("repro.synthesis.area", "controller_area", "synthesis.area", None),
    ("repro.incremental.hashing", "program_hash", "incremental.hash", None),
    ("repro.incremental.hashing", "point_key", "incremental.hash", None),
    ("repro.incremental.hashing", "region_fingerprint", "incremental.hash",
     None),
    ("repro.incremental.hashing", "schedule_context", "incremental.hash",
     None),
    ("repro.incremental.hashing", "context_fingerprint", "incremental.hash",
     None),
    ("repro.durable.journal", "scan_journal", "durable.scan", None),
)

#: (module, class, method, span name, attribute extractor).
METHODS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.synthesis.dfg", "DataflowBuilder", "build", "synthesis.dfg",
     lambda dfg: {"nodes": len(dfg.nodes)}),
    ("repro.durable.journal", "DurableJournal", "append", "durable.append",
     None),
    ("repro.incremental.journal", "MemoJournal", "load",
     "incremental.journal.load", None),
    ("repro.incremental.journal", "MemoJournal", "flush",
     "incremental.journal.flush", lambda written: {"records": written}),
)

#: The Figure-3 stages with a ``pipeline.<stage>`` span.
STAGES = ("legality", "unroll", "scalar_replacement", "peel", "licm",
          "normalize", "layout")

#: Layers whose self time the acceptance check sums on ``cold-walk``.
CORE_LAYERS = ("transform", "ir", "synthesis", "incremental", "durable")

#: Every layer a span can be charged to; ``bench`` is the benchmark's
#: own root span (time no program layer claims).
LAYERS = ("frontend", "transform", "ir", "synthesis", "estimate", "dse",
          "incremental", "durable", "bench")


def layer_of(name: str) -> str:
    if name == "pipeline" or name.startswith("pipeline."):
        return "transform"
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else "bench"


def _wrap(fn: Callable, name: str, extract: Optional[Callable]) -> Callable:
    from repro.obs import trace

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.current_tracer().span(name) as span:
            result = fn(*args, **kwargs)
            if extract is not None:
                for key, value in extract(result).items():
                    span.set_attribute(key, value)
            return result

    return wrapper


def install() -> None:
    """Wrap every listed function and method for the process's life."""
    import importlib

    import repro.cli  # noqa: F401 - loads the modules that bind names

    for module_name, attr, span_name, extract in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(original, span_name, extract)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for module_name, cls_name, method, span_name, extract in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, _wrap(getattr(cls, method), span_name, extract))
    os.fsync = _wrap(os.fsync, "durable.fsync", None)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class LayerStats:
    """Running per-span-name totals over any number of traces."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.attrs: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.point_ms: List[float] = []
        self.root_s = 0.0
        self.estimate_by_backend: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0]
        )

    def add(self, spans: Iterable) -> None:
        """Fold one trace (span ids unique within it)."""
        spans = list(spans)
        covered: Dict[str, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.duration_s or 0.0
        for span in spans:
            seconds = span.duration_s or 0.0
            self.calls[span.name] += 1
            self.total_s[span.name] += seconds
            self.self_s[span.name] += seconds - covered[span.span_id]
            if span.status != "ok":
                self.errors[span.name] += 1
            for key in ("nodes", "records"):
                value = span.attributes.get(key)
                if isinstance(value, (int, float)):
                    self.attrs[f"{span.name}.{key}"] += value
            if span.name == "dse.point":
                self.point_ms.append(seconds * 1000.0)
            if span.name == "estimate.call":
                row = self.estimate_by_backend[
                    str(span.attributes.get("backend", "?"))
                ]
                row[0] += 1
                row[1] += seconds
            if span.parent_id is None:
                self.root_s += seconds

    def add_grouped(self, spans: Iterable, key: str) -> None:
        """Fold spans from many tracers, split by attribute ``key`` (the
        server's span file: ids repeat across jobs, ``job`` does not)."""
        groups: Dict[object, list] = defaultdict(list)
        for span in spans:
            groups[span.attributes.get(key)].append(span)
        for group in groups.values():
            self.add(group)

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[layer_of(name)] += seconds
        return out

    def metrics(self) -> Dict[str, float]:
        """Span-derived per-layer metrics (names as in BENCHMARK.json)."""
        calls, total = self.calls, self.total_s
        compile_s = total["pipeline"]
        out: Dict[str, float] = {
            "frontend.parse.calls": calls["frontend.parse"],
            "frontend.parse.s": total["frontend.parse"],
            "transform.compile.calls": calls["pipeline"],
            "transform.compile.s": compile_s,
        }
        for stage in STAGES:
            out[f"transform.stage.{stage}.s"] = self.self_s[f"pipeline.{stage}"]
        out.update({
            "ir.verify.calls": calls["ir.verify"],
            "ir.verify.s": total["ir.verify"],
            "ir.verify.share_of_compile": (
                total["ir.verify"] / compile_s if compile_s else 0.0
            ),
            "synthesis.synthesize.calls": calls["synthesis.synthesize"],
            "synthesis.synthesize.s": total["synthesis.synthesize"],
            "synthesis.dfg.s": total["synthesis.dfg"],
            "synthesis.dfg.nodes": self.attrs["synthesis.dfg.nodes"],
            "synthesis.schedule.calls": calls["synthesis.schedule"],
            "synthesis.schedule.s": total["synthesis.schedule"],
            "synthesis.area.s": total["synthesis.area"],
            "estimate.call.calls": calls["estimate.call"],
            "estimate.call.s": total["estimate.call"],
            "dse.point.calls": calls["dse.point"],
            "dse.point.p50_ms": percentile(self.point_ms, 50),
            "dse.point.p90_ms": percentile(self.point_ms, 90),
            "dse.point.failed": self.errors["dse.point"],
            "incremental.hash.calls": calls["incremental.hash"],
            "incremental.hash.s": total["incremental.hash"],
            "incremental.journal.load.s": total["incremental.journal.load"],
            "incremental.journal.flush.s": total["incremental.journal.flush"],
            "incremental.journal.records":
                self.attrs["incremental.journal.flush.records"],
            "durable.append.calls": calls["durable.append"],
            "durable.append.s": total["durable.append"],
            "durable.fsyncs": calls["durable.fsync"],
            "durable.scan.s": total["durable.scan"],
        })
        layer_self = self.layer_self_s()
        for layer, seconds in layer_self.items():
            out[f"self.{layer}.s"] = seconds
        core = sum(layer_self[layer] for layer in CORE_LAYERS)
        out["self.core_share"] = core / self.root_s if self.root_s else 0.0
        return out


def memo_metrics(counter: Callable[[str, str], float]) -> Dict[str, float]:
    """``incremental.memo.<domain>.{hits,misses,hit_rate}`` from the
    program's ``incremental.memo.{hits,misses}`` counters, labelled by
    domain; ``counter(name, domain)`` reads one."""
    out: Dict[str, float] = {}
    for domain in ("point", "legality", "verify", "schedule"):
        hits = counter("incremental.memo.hits", domain)
        misses = counter("incremental.memo.misses", domain)
        out[f"incremental.memo.{domain}.hits"] = hits
        out[f"incremental.memo.{domain}.misses"] = misses
        out[f"incremental.memo.{domain}.hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    return out
