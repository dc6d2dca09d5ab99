"""The ``serve`` workload: ``python -m repro serve --jobs 2`` under two
closed-loop clients.

Each round boots a server on a fresh ``--state-dir``, so every round
does the same work (the server's memo journal and estimate cache start
empty) and each boot is one ``setup_s`` sample.  The round's jobs are
the 18 (kernel, board) pairs, one job each: 12 on the default
``balance`` walk and 6 on a cheap alternative strategy, so no two jobs
of a round share design points.  A seeded quarter of the submissions
are resubmissions of a job the same client already finished; they take
the dedup path.  Each client submits, polls the report every
``POLL_S`` seconds, and only then submits its next job.  The server is
drained with SIGTERM and reaped on every exit path.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from trace_layers import percentile
from workloads import (
    Bench, ROOT, _label, child_env, peak_rss_mb, selection, semantics_ok,
    walk_mix,
)

#: Report poll interval of each client, seconds.
POLL_S = 0.01
CLIENTS = 2
#: Resubmissions per client per round (3 of 12 submissions).
DEDUPS_PER_CLIENT = 3
#: Nominal round time (boot, 24 submissions, drain) on a 2-core VM.
ROUND_S = 1.6
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0

#: (kernel, board) pairs walked with a strategy other than ``balance``:
#: the cheapest pairs of each strategy, so a round stays a few seconds.
ALTERNATIVE = {
    ("fir", "pipelined"): "greedy",
    ("mm", "pipelined"): "linear",
    ("decimate", "pipelined"): "linear",
    ("mm", "nonpipelined"): "random",
    ("pat", "nonpipelined"): "random",
    ("decimate", "nonpipelined"): "random",
}


def _board_key(board) -> str:
    return "pipelined" if board.name.endswith("-pipelined") else "nonpipelined"


def job_mix() -> List[Tuple[object, object, str]]:
    return [(kernel, board,
             ALTERNATIVE.get((kernel.name, _board_key(board)), "balance"))
            for kernel, board in walk_mix()]


def _entry(kernel, board, strategy: str) -> dict:
    entry = {"program": f"kernel:{kernel.name}", "board": _board_key(board)}
    if strategy != "balance":
        entry["search"] = {"strategy": strategy}
    return entry


def _group_pids(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry.name))
    return pids


def _tree_peak_mb(pgid: int) -> float:
    """Sum of each server-tree process's peak RSS (``VmHWM``)."""
    total_kb = 0
    for pid in _group_pids(pgid):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Server:
    """One ``repro serve`` process in its own process group."""

    def __init__(self, directory: Path):
        self.state_dir = directory / "state"
        self.port_file = directory / "port"
        self._log = open(directory / "server.log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(self.state_dir), "--port", "0",
             "--port-file", str(self.port_file), "--jobs", "2"],
            cwd=ROOT, env=child_env(), stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_ready(self) -> str:
        from repro.errors import ServerError
        from repro.server import server_health

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.process.returncode} during boot")
            text = (self.port_file.read_text()
                    if self.port_file.exists() else "")
            if text.endswith("\n"):
                url = f"http://127.0.0.1:{int(text)}"
                try:
                    server_health(url, timeout_s=5.0)
                    return url
                except ServerError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy in time")

    def stop(self) -> None:
        """Drain with SIGTERM; kill the whole group if that stalls.
        Returns once no process of the group is left."""
        pgid = self.process.pid
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(DRAIN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if self.process.poll() is None or _group_pids(pgid):
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.process.wait()
            deadline = time.monotonic() + 10.0
            while _group_pids(pgid) and time.monotonic() < deadline:
                time.sleep(0.05)
            self._log.close()


def _client(url: str, queue: List[Tuple[str, dict, bool]],
            out: List[dict]) -> None:
    """Closed loop: submit, poll until the report is in, repeat."""
    from repro.server import job_report, submit_job

    for label, entry, resubmit in queue:
        record = {"label": label, "resubmit": resubmit}
        started = time.perf_counter()
        try:
            reply = submit_job(url, entry)
            record["submit_s"] = time.perf_counter() - started
            record["created"] = bool(reply.get("created"))
            while True:
                done, doc = job_report(url, reply["job_id"])
                if done:
                    break
                time.sleep(POLL_S)
            record["latency_s"] = time.perf_counter() - started
            record["report"] = doc
        except Exception as error:  # noqa: BLE001 - 429/503/IO: failed
            record["error"] = f"{type(error).__name__}: {error}"
        out.append(record)


def _queues(bench: Bench, mix) -> List[List[Tuple[str, dict, bool]]]:
    """Deal the round's jobs to the clients in seeded order, then insert
    each client's resubmissions after their originals."""
    order = bench.rng.sample(mix, len(mix))
    queues = []
    for client in range(CLIENTS):
        jobs = [(f"{_label(k, b)}:{s}", _entry(k, b, s), False)
                for k, b, s in order[client::CLIENTS]]
        for label, entry, _ in bench.rng.sample(jobs, DEDUPS_PER_CLIENT):
            original = jobs.index((label, entry, False))
            jobs.insert(bench.rng.randint(original + 1, len(jobs)),
                        (label, entry, True))
        queues.append(jobs)
    return queues


def _scrape(url: str) -> Dict[str, float]:
    """``/metrics`` samples by series (``name`` or ``name{labels}``)."""
    from repro.server.client import server_metrics

    samples: Dict[str, float] = {}
    for line in server_metrics(url).splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
    return samples


def _counter(samples: Dict[str, float], name: str) -> float:
    """A registry counter from a scrape: its unlabelled series, or the
    sum of its labelled ones when it has no unlabelled series."""
    from repro.obs import metric_name

    prom = metric_name(name)
    if prom in samples:
        return samples[prom]
    return sum(value for series, value in samples.items()
               if series.startswith(prom + "{"))


def serve(bench: Bench) -> None:
    from repro.dse import ExploreConfig, SearchOptions, explore
    from repro.obs import metric_name
    from repro.obs.report import load_run

    mix = job_mix()
    boots: List[float] = []
    records: List[dict] = []
    tree_mb = 0.0
    counters = ("server.jobs.completed", "server.jobs.deduped",
                "server.jobs.retried", "server.store.dropped",
                "admission.rejected")

    def one_round(_index: int) -> None:
        nonlocal tree_mb
        directory = bench.tmpdir("serve-")
        server = Server(directory)
        try:
            boots.append(server.boot_s)
            queues = _queues(bench, mix)
            outs: List[List[dict]] = [[] for _ in queues]
            threads = [threading.Thread(target=_client,
                                        args=(server.url, queue, out))
                       for queue, out in zip(queues, outs)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            bench.busy_s += time.perf_counter() - started
            bench.ops += sum("error" not in record
                             for out in outs for record in out)
            scraped = _scrape(server.url) if bench.traced else {}
            tree_mb = max(tree_mb, _tree_peak_mb(server.process.pid))
        finally:
            server.stop()
        for out in outs:
            records.extend(out)
        if bench.traced:
            for name in counters:
                bench.add_layer(name, _counter(scraped, name))
            for name in ("incremental.memo.hits", "incremental.memo.misses"):
                for domain in ("point", "legality", "verify", "schedule"):
                    series = f'{metric_name(name)}{{domain="{domain}"}}'
                    bench.registry.counter(name, domain=domain).inc(
                        scraped.get(series, 0.0))
            bench.stats.add_grouped(load_run(server.state_dir).spans, "job")
            bench.add_layer("durable.bytes", sum(
                path.stat().st_size
                for path in server.state_dir.rglob("*.jsonl")
                if path.name != "spans.jsonl"))

    bench.rounds(one_round, ROUND_S)
    bench.setup_s = sorted(boots)[len(boots) // 2]
    bench.peak_rss_mb = peak_rss_mb() + tree_mb

    submits, dedups, new_latency = [], [], 0.0
    selected: Dict[str, set] = {}
    for record in records:
        bench.attempted += 1
        label = record["label"]
        if "error" in record:
            bench.fail(f"serve {label}: {record['error']}")
            continue
        bench.latencies_ms.append(record["latency_s"] * 1000.0)
        report = record["report"]
        if record["created"] == record["resubmit"]:
            bench.fail(f"serve {label}: resubmit={record['resubmit']} "
                       f"but created={record['created']}")
        if report.get("status") != "ok":
            bench.fail(f"serve {label}: job {report.get('status')}: "
                       f"{report.get('failure')}")
            continue
        result = report["result"]
        selected.setdefault(label, set()).add((
            tuple(result["selected_unroll"]), result["cycles"],
            result["space"]))
        if record["resubmit"]:
            dedups.append(record["submit_s"] * 1000.0)
        else:
            submits.append(record["submit_s"] * 1000.0)
            new_latency += record["latency_s"]
            bench.add_layer("dse.points_searched", result["points_searched"])

    for kernel, board, strategy in mix:
        label = f"{_label(kernel, board)}:{strategy}"
        reference = explore(kernel.program(), board, config=ExploreConfig(
            search=SearchOptions(strategy=strategy)))
        expected = selection(reference.selected)
        for found in selected.get(label, ()):
            if found != expected:
                bench.fail(f"serve {label} selected {found}, the in-process "
                           f"walk selected {expected}")
        if not semantics_ok(kernel, reference.selected.design, bench.seed):
            bench.fail(f"serve {label}: selected design diverges from the "
                       "source")

    if bench.traced:
        exec_s = bench.stats.total_s["dse.explore"]
        bench.add_layer("server.submit.p50_ms", percentile(submits, 50))
        bench.add_layer("server.dedup.p50_ms", percentile(dedups, 50))
        bench.add_layer("server.exec.s", exec_s)
        bench.add_layer("server.overhead.s", new_latency - exec_s)
