#!/usr/bin/env python3
"""Steadiness check for the benchmark: run each workload with several
seeds and report each end-to-end metric's spread against its bound.

Run from the repository root::

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --runs 5 --workloads serve --traced-runs 3

The spread is the inter-quartile range of the runs' values over their
median (``statistics.quantiles(values, n=4)``).  A metric is *steady*
below a third of its bound and *unsteady* above the bound;
``setup_s`` is reported but not judged, as only its median is gated.
With ``--traced-runs`` the same seeds also run traced, which gives the
tracing overhead (traced median minus untraced median, per metric) and
the layer checks: no fsync on ``exhaustive-sweep`` and
``warm-rewalk``, no compile on ``warm-rewalk``, and the core layers'
self time covering most of the ``cold-walk`` walk time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workloads run.py still runs but BENCHMARK.json no longer lists.
DROPPED = {
    "exhaustive-sweep": (
        "each run costs 55 s (two rounds of 24 s; one round left its "
        "median sweep latency spread at 0.22), more than the other three "
        "workloads together; without it the other workloads' runs could "
        "double to 20 s within the time budget, and the layers it loads "
        "are measured on cold-walk at smaller scale"),
}

TRACED_PREFIX = "traced end-to-end: "


def run_once(command, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout}"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    for line in lines:
        if line.startswith(TRACED_PREFIX):
            values["traced"] = json.loads(line[len(TRACED_PREFIX):])
    return values


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args(argv)

    unsteady = {}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads.split(","):
        runs = [run_once(spec["command"], workload, seed, args.seconds, 0)
                for seed in seeds]
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}.."
              f"{seeds.stop - 1}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run[name] for run in runs]
            share = spread(values)
            if name == "setup_s":
                verdict = "not judged"
            elif share <= bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
                unsteady.setdefault(workload, []).append(
                    f"{name} spread {share:.3f} > bound {bound}")
            print(f"  {name:<12} median {statistics.median(values):>12.6g} "
                  f"{metric['unit']:<4} spread {share:6.3f} "
                  f"bound {bound:<5} {verdict}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        if args.traced_runs:
            traced = [run_once(spec["command"], workload, seed,
                               args.seconds, 1)
                      for seed in list(seeds)[:args.traced_runs]]
            report_traced(spec, workload, runs, traced)
    for workload, reasons in unsteady.items():
        print(f"unsteady: {workload}: {'; '.join(reasons)}")
    for workload, reason in DROPPED.items():
        print(f"dropped from BENCHMARK.json: {workload}: {reason}")
    return 1 if unsteady else 0


def report_traced(spec, workload: str, runs, traced) -> None:
    print(f"  tracing overhead ({len(traced)} traced runs):")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        plain = statistics.median(run[name] for run in runs)
        with_trace = statistics.median(run["traced"][name] for run in traced)
        print(f"    {name:<12} {with_trace - plain:>+12.6g} {metric['unit']}"
              f" ({(with_trace - plain) / plain:+.1%})")

    def median(name):
        return statistics.median(run[name] for run in traced)

    if workload in ("exhaustive-sweep", "warm-rewalk"):
        print(f"  check durable.fsyncs == 0: {median('durable.fsyncs')}")
    if workload == "warm-rewalk":
        print(f"  check transform.compile.calls == 0: "
              f"{median('transform.compile.calls')}")
    if workload == "cold-walk":
        core = ("transform", "ir", "synthesis", "incremental", "durable")
        every = ("frontend", "estimate", "dse", "bench") + core
        share = (sum(median(f"self.{layer}.s") for layer in core)
                 / sum(median(f"self.{layer}.s") for layer in every))
        print(f"  check core layers' self time share of walk time > 0.5: "
              f"{share:.3f}")


if __name__ == "__main__":
    sys.exit(main())
