#!/usr/bin/env python3
"""The design-space-exploration benchmark: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload cold-walk --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
layers (see ``trace_layers.py``) and reports the per-layer metrics.
Metric names, units and bounds are those of ``BENCHMARK.json``; what
each one means, per workload, is in ``README.md`` next to this file.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every operation succeeded and every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from trace_layers import CORE_LAYERS, install

ROOT = Path(__file__).resolve().parent.parent


def _human(name: str, value: float, unit: str) -> str:
    return f"  {name:<34} {value:>14.6g} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from server_load import serve

    runners = dict(workloads.WORKLOADS, serve=serve)
    if args.workload not in runners:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(runners)}")
    if args.trace:
        install()

    bench = workloads.Bench(args.seed, args.seconds, bool(args.trace))
    try:
        runners[args.workload](bench)
    finally:
        bench.close()

    end_to_end = bench.end_to_end()
    correct = bench.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  traced {'yes' if args.trace else 'no'}"
          f"  rounds {bench.rounds_run}")
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print(_human("failed_frac", bench.failed / max(1, bench.attempted),
                 f"({bench.failed} of {bench.attempted})"))
    print(_human("samples", len(bench.latencies_ms), "operations timed"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in units.items():
        print(_human(name, end_to_end[name], unit))
    if args.trace:
        # The traced run's own end-to-end figures: set against an
        # untraced run of the same seed they give the tracing overhead.
        print("traced end-to-end: " + json.dumps(end_to_end, sort_keys=True))
        chosen = spec["per_layer"]
        values = bench.per_layer()
        for metric in chosen:
            print(_human(metric["name"], values[metric["name"]],
                         metric["unit"]))
        print(_human("self.core_share", values["self.core_share"],
                     "of traced op time (" + "+".join(CORE_LAYERS) + ")"))
        for backend, (calls, seconds) in sorted(
                bench.stats.estimate_by_backend.items()):
            print(f"  estimate.call[{backend}]: {calls} calls, "
                  f"{seconds:.6f} s")
    else:
        chosen = spec["end_to_end"]
        values = end_to_end
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in chosen
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
