"""The four benchmark workloads and the output checks they share.

Every workload is a closed loop from one process.  It runs a number of
*rounds* fixed by ``--seconds`` (see :meth:`Bench.rounds`); a round is
the workload's whole input mix in a seeded order, so each run measures
the same multiset of operations and only the order depends on the seed.
Checks run after the timed loop.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from trace_layers import LayerStats, memo_metrics, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for memo dirs and server state, inside the checkout.
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Fresh-interpreter imports timed per run for ``setup_s`` (plus one
#: untimed warm-up that fills the byte-code and page caches).
IMPORT_SAMPLES = 5
#: Journals the warm-rewalk set-up fills; the median fill is timed.
FILLS = 3
#: Nominal round times (18 walks, or the five sweeps) on a 2-core VM.
COLD_ROUND_S = 0.8
WARM_ROUND_S = 0.4
SWEEP_ROUND_S = 24.0
#: Sweep rounds per run at least: the latency median is then taken
#: over two sweeps of each kernel, not over one.
MIN_SWEEP_ROUNDS = 2
IMPORT_STMT = ("import repro.dse, repro.kernels, repro.target, repro.ir, "
               "repro.transform, repro.incremental.journal")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP_ROOT)
    return env


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the layers."""
    samples = []
    for index in range(IMPORT_SAMPLES + 1):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_STMT], env=child_env(),
                       cwd=ROOT, check=True)
        if index:
            samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    """Bytes in a memo journal directory's segments."""
    return sum(entry.stat().st_size for entry in path.glob("*.jsonl"))


class Bench:
    """One run's measurements, failures and layer statistics."""

    def __init__(self, seed: int, seconds: float, traced: bool):
        import random

        from repro.obs import MetricsRegistry

        self.seed = seed
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.traced = traced
        self.latencies_ms: List[float] = []
        self.busy_s = 0.0
        self.ops = 0
        #: each round's operations per busy second.
        self.round_rates: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.rounds_run = 0
        self.stats = LayerStats()
        self.registry = MetricsRegistry()
        #: per-layer metrics not derived from spans (exact counts,
        #: byte sizes, server scrapes).
        self.layer: Dict[str, float] = {}
        TMP_ROOT.mkdir(exist_ok=True)
        self._tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))

    def tmpdir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self._tmp))

    def close(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still holds it

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def add_layer(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0) + value

    @contextmanager
    def op(self, name: str):
        """Scope one timed operation.  Traced runs record its spans under
        a fresh tracer, folded into :attr:`stats` on exit; yields the
        ``ObsConfig`` for ``explore()`` (``None`` when untraced)."""
        if not self.traced:
            yield None
            return
        from repro.obs import ObsConfig, Tracer, use_registry, use_tracer

        tracer = Tracer()
        obs = ObsConfig(tracer=tracer, metrics=self.registry)
        with use_tracer(tracer), use_registry(self.registry):
            with tracer.span(f"bench.{name}"):
                yield obs
        self.stats.add(tracer.finished)

    def rounds(self, run_round: Callable[[int], None], round_s: float,
               min_rounds: int = 1) -> None:
        """Run as many whole rounds as fill ``seconds`` at the nominal
        round time ``round_s``, at least ``min_rounds``.  The count
        depends on ``seconds`` only, never on the clock, so every run
        of a workload does the same work.  Each round's rate (the
        operations it counted over the busy time it added) is kept for
        the run's median throughput."""
        self.rounds_run = max(min_rounds, round(self.seconds / round_s))
        for index in range(self.rounds_run):
            ops, busy_s = self.ops, self.busy_s
            run_round(index)
            if self.busy_s > busy_s:
                self.round_rates.append(
                    (self.ops - ops) / (self.busy_s - busy_s))

    def end_to_end(self) -> Dict[str, float]:
        values = self.latencies_ms
        return {
            "setup_s": self.setup_s,
            "latency_p50_ms": percentile(values, 50),
            "latency_p90_ms": percentile(values, 90),
            "throughput_per_s": (statistics.median(self.round_rates)
                                 if self.round_rates else 0.0),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> Dict[str, float]:
        out = self.stats.metrics()
        out.update(memo_metrics(
            lambda name, domain: self.registry.counter_value(
                name, domain=domain)
        ))
        for name in PER_LAYER_DEFAULTS:
            out.setdefault(name, 0)
        out.update(self.layer)
        return out


#: Per-layer metrics only some workloads produce; zero elsewhere.
PER_LAYER_DEFAULTS = (
    "dse.points_searched", "durable.bytes",
    "server.submit.p50_ms", "server.dedup.p50_ms", "server.exec.s",
    "server.overhead.s", "server.jobs.completed", "server.jobs.deduped",
    "server.jobs.retried", "server.store.dropped", "admission.rejected",
)


# -- inputs --------------------------------------------------------------------

def walk_mix():
    """The nine kernels on both WildStar boards: 18 (kernel, board)."""
    from repro.kernels import ALL_KERNELS, EXTRA_KERNELS
    from repro.target import wildstar_nonpipelined, wildstar_pipelined

    boards = (wildstar_pipelined(), wildstar_nonpipelined())
    return [(kernel, board) for kernel in ALL_KERNELS + EXTRA_KERNELS
            for board in boards]


def pinned_space(kernel, board):
    """The space ``explore()`` would build: loops that add no memory
    parallelism pinned to factor 1 (as ``scripts/bench.py`` does)."""
    from repro.dse import DesignSpace
    from repro.dse.saturation import analyze_saturation

    program = kernel.program()
    saturation = analyze_saturation(program, board.num_memories)
    varying = set(saturation.memory_varying_depths)
    space = DesignSpace(program, board)
    pins = tuple(d for d in range(space.depth) if d not in varying)
    if pins:
        space = DesignSpace(program, board, pinned_depths=pins)
    return space


def selection(evaluation) -> Tuple[Tuple[int, ...], int, int]:
    return (tuple(evaluation.unroll), evaluation.cycles, evaluation.space)


def semantics_ok(kernel, design, seed: int) -> bool:
    """The transformed design computes the source program's outputs on
    seeded random inputs (the interpreter is the reference)."""
    from repro.ir import run_program

    inputs = kernel.random_inputs(seed)
    expected = run_program(kernel.program(), inputs)
    state = run_program(design.program, design.plan.distribute_inputs(inputs))
    arrays = state.snapshot_arrays()
    return all(
        design.plan.gather_array(arrays, name) == expected.arrays[name].cells
        for name in kernel.output_arrays
    )


def _label(kernel, board) -> str:
    return f"{kernel.name}/{board.name}"


def _walk(bench: Bench, kernel, board, memo_dir: Path):
    """One timed ``explore()`` walk (parse included); ``None`` when it
    failed or reported a typed diagnosis."""
    from repro.dse import ExploreConfig, explore

    bench.attempted += 1
    started = time.perf_counter()
    try:
        with bench.op("walk") as obs:
            result = explore(kernel.program(), board, config=ExploreConfig(
                memo_dir=memo_dir, obs=obs,
            ))
    except Exception as error:  # noqa: BLE001 - counted as failed
        bench.fail(f"{_label(kernel, board)}: {type(error).__name__}: "
                   f"{error}")
        return None
    seconds = time.perf_counter() - started
    bench.latencies_ms.append(seconds * 1000.0)
    bench.busy_s += seconds
    bench.ops += 1
    bench.add_layer("dse.points_searched", result.points_searched)
    if result.infeasible or result.baseline_degraded:
        bench.fail(f"{_label(kernel, board)}: "
                   f"{len(result.infeasible)} infeasible points")
        return None
    return result


def _check_walks(bench: Bench, results: Dict, reference: Dict,
                 what: str) -> None:
    """Every walk of a pair selected the reference design, and that
    design is semantically equal to its source program."""
    for label, (kernel, chosen, selections) in results.items():
        expected = reference.get(label)
        for found in selections:
            if found != expected:
                bench.fail(f"{what} {label} selected {found}, "
                           f"cold walk selected {expected}")
        if not semantics_ok(kernel, chosen.design, bench.seed):
            bench.fail(f"{what} {label}: selected design "
                       f"{chosen.unroll} diverges from the source")


def _walk_rounds(bench: Bench, mix, round_s: float,
                 memo_dir_for: Callable[[], Path],
                 after: Callable[[Path], None]) -> Dict:
    results: Dict = {}

    def one_round(_index: int) -> None:
        # Untimed: every round starts from the same heap, whatever the
        # seeded order (or set-up) left for the collector.
        gc.collect()
        for kernel, board in bench.rng.sample(mix, len(mix)):
            memo_dir = memo_dir_for()
            result = _walk(bench, kernel, board, memo_dir)
            after(memo_dir)
            if result is None:
                continue
            label = _label(kernel, board)
            entry = results.setdefault(label, (kernel, result.selected, []))
            entry[2].append(selection(result.selected))

    bench.rounds(one_round, round_s)
    bench.peak_rss_mb = peak_rss_mb()
    return results


# -- cold-walk -----------------------------------------------------------------

def cold_walk(bench: Bench) -> None:
    """``explore()`` with the default config, a fresh memo journal per
    walk, over 9 kernels x 2 boards."""
    bench.setup_s = import_seconds()
    mix = walk_mix()

    def after(memo_dir: Path) -> None:
        if bench.traced:
            bench.add_layer("durable.bytes", dir_bytes(memo_dir))
        shutil.rmtree(memo_dir, ignore_errors=True)

    results = _walk_rounds(bench, mix, COLD_ROUND_S,
                           lambda: bench.tmpdir("memo-"), after)
    reference = {label: selections[0]
                 for label, (_k, _r, selections) in results.items()}
    _check_walks(bench, results, reference, "cold-walk")


# -- warm-rewalk ---------------------------------------------------------------

def warm_rewalk(bench: Bench) -> None:
    """Re-walk the cold-walk mix over one memo journal that set-up filled
    with the same 18 walks.  Each walk opens the journal afresh, as a
    restarted batch or fleet worker does, and replays all 18 pairs'
    entries to use one pair's.  Set-up fills ``FILLS`` journals, each in
    a process of its own (``fill_journal.py``), so the heap the walks
    start from is that of a restarted worker; the median fill is
    ``setup_s`` and the walks use the last journal."""
    imports_s = import_seconds()
    mix = walk_mix()
    fills = []
    reference: Dict[str, Tuple] = {}
    for _ in range(FILLS):
        journal = bench.tmpdir("journal-")
        filled = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("fill_journal.py")),
             str(journal), str(bench.rng.randrange(2**32))],
            env=child_env(), cwd=ROOT, check=True, capture_output=True,
            text=True)
        report = json.loads(filled.stdout.splitlines()[-1])
        for label, (unroll, cycles, space) in report["selections"].items():
            found = (tuple(unroll), cycles, space)
            if reference.setdefault(label, found) != found:
                bench.fail(f"cold walk {label} selected {found}, then "
                           f"{reference[label]}")
        fills.append(report["seconds"])
    bench.setup_s = imports_s + statistics.median(fills)
    if bench.traced:
        bench.add_layer("durable.bytes", dir_bytes(journal))

    results = _walk_rounds(bench, mix, WARM_ROUND_S, lambda: journal,
                           lambda _dir: None)
    _check_walks(bench, results, reference, "warm-rewalk")


# -- exhaustive-sweep ----------------------------------------------------------

def exhaustive_sweep(bench: Bench) -> None:
    """``get_strategy("exhaustive").run(space)`` on each paper kernel's
    pinned lattice, pipelined board, ephemeral memo.

    The latency is one kernel's sweep (an exhaustive walk); throughput
    counts design points.  Per-point latency is the traced run's
    ``dse.point.p50_ms``/``p90_ms``: on one fixed lattice its upper
    percentiles fall between far-apart point costs and jump with noise."""
    from repro.dse import get_strategy
    from repro.incremental.journal import open_memo
    from repro.incremental.memo import use_memo
    from repro.kernels import ALL_KERNELS
    from repro.target import wildstar_pipelined

    bench.setup_s = import_seconds()
    board = wildstar_pipelined()
    best: Dict[str, List] = {}

    def one_round(_index: int) -> None:
        for kernel in bench.rng.sample(ALL_KERNELS, len(ALL_KERNELS)):
            space = pinned_space(kernel, board)
            gc.collect()  # untimed, as between walk rounds
            started = time.perf_counter()
            try:
                with bench.op("sweep"):
                    with use_memo(open_memo(None)):
                        found = get_strategy("exhaustive").run(space)
            except Exception as error:  # noqa: BLE001 - counted as failed
                bench.attempted += 1
                bench.fail(f"{kernel.name}: {type(error).__name__}: {error}")
                continue
            seconds = time.perf_counter() - started
            bench.latencies_ms.append(seconds * 1000.0)
            bench.busy_s += seconds
            bench.attempted += space.points_evaluated + space.points_failed
            bench.ops += space.points_evaluated
            bench.add_layer("dse.points_searched", found.points_searched)
            if space.points_failed:
                bench.fail(f"{kernel.name}: {space.points_failed} "
                           "infeasible points")
            fitting = [e for e in space.evaluated()
                       if e.estimate.fits(board)]
            expected = min(selection(e)[1:] for e in fitting)
            if selection(found.selected)[1:] != expected:
                bench.fail(f"exhaustive {kernel.name} picked "
                           f"{selection(found.selected)}, the minimum "
                           f"(cycles, space) over its points is {expected}")
            best.setdefault(kernel.name, [kernel, found.selected, set()])[
                2].add(selection(found.selected))

    bench.rounds(one_round, SWEEP_ROUND_S, MIN_SWEEP_ROUNDS)
    bench.peak_rss_mb = peak_rss_mb()
    for name, (kernel, chosen, picks) in best.items():
        if len(picks) != 1:
            bench.fail(f"exhaustive {name} picked differently across "
                       f"rounds: {sorted(picks)}")
        if not semantics_ok(kernel, chosen.design, bench.seed):
            bench.fail(f"exhaustive {name}: best design diverges from "
                       "the source")


WORKLOADS = {
    "cold-walk": cold_walk,
    "exhaustive-sweep": exhaustive_sweep,
    "warm-rewalk": warm_rewalk,
}
