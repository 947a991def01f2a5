"""Workload ``service-mixed``: a closed loop against ``repro serve``.

``repro serve`` runs in its own process on loopback with a private json
store and one job worker. One load-generator process (this one) runs
one client: it sends its next request only when the previous result is
in hand. Both processes run on the same one CPU. Of every five
requests, four resubmit a warm set of small ``RunRequest``s (reads:
engine cache hits) and one is a fresh small run with a new seed
(writes: execute, cache admit, ledger append); the seed picks which
slot of the five is the write and which warm requests are resubmitted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import benchlib
from benchlib import Outcome, Probe

#: Workloads of the small requests, one per allocator family.
NAMES = ("html", "aes", "US", "html-go")
STACKS = ("baseline", "memento")

#: Allocations per request: small, so a miss costs tens of milliseconds.
SMALL_ALLOCS = 500

#: Requests per block of the schedule: one fresh run, the rest warm
#: resubmits. A fixed share per block, rather than a coin per request,
#: keeps the share of writes, and with it throughput and p95, from
#: drifting between seeds (README, "Steadiness").
BLOCK = 5

#: Jobs per throughput window; ``throughput_per_s`` is the median rate
#: over the run's windows, so a burst of load elsewhere on the host
#: moves one window, not the figure. A multiple of ``BLOCK``.
WINDOW_JOBS = 50

#: Server starts per run (start, health check, warm set); ``setup_s``
#: is their median and the last server serves the measured loop.
SETUPS = 5

#: Status-poll interval of the load generator's client. A hit's latency
#: is a race between its first status request and the server's worker:
#: a lost race pays one interval and one more status request, and the
#: share lost swings from run to run. With the client's default (0.2 s)
#: that step decides p95; with 5 ms, p50 (the 62.5th percentile of the
#: hits) would jump by about a hit's latency once 3/8 of the hits lose.
#: 2 ms keeps the step small without making the client busy-poll
#: through a write (README, "Steadiness").
POLL_S = 0.002

#: A job that fails or takes longer counts as missing every latency
#: figure: its sample is this value.
JOB_TIMEOUT_S = 60.0

#: Jobs per measured loop at least, however short ``--seconds`` is
#: (200 would put 10 latency samples beyond p95). The server's peak
#: memory is read when the first loop has finished this many jobs:
#: the job store keeps every job, so memory grows by about 1 MB per
#: 100 jobs, and a fixed count measures it on the same work whatever
#: the throughput. Before about 500 jobs it still jumps by several MB
#: from run to run. A multiple of ``WINDOW_JOBS``.
MIN_JOBS = 600


def warm_set(seed: int) -> list:
    from repro.api import RunRequest, get_workload

    requests = []
    for name in NAMES:
        spec = dataclasses.replace(
            get_workload(name),
            num_allocs=SMALL_ALLOCS,
            seed=benchlib.derive_seed(seed, "warm", name),
        )
        requests.extend(RunRequest(spec, stack=stack) for stack in STACKS)
    return requests


def fresh_request(seed: int, index: int) -> Any:
    from repro.api import RunRequest, get_workload

    name = NAMES[index % len(NAMES)]
    spec = dataclasses.replace(
        get_workload(name),
        num_allocs=SMALL_ALLOCS,
        seed=benchlib.derive_seed(seed, "fresh", index),
    )
    return RunRequest(spec, stack=STACKS[(index // len(NAMES)) % 2])


class Server:
    """One ``repro serve`` child process with its private store."""

    def __init__(self, root: Path, work: Path, index: int) -> None:
        store = work / f"store-{index}"
        self.log_path = work / f"serve-{index}.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--cache-dir", str(store), "--backend", "json",
                    "--workers", "1",
                ],
                env=env,
                cwd=str(work),
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.url = self._wait_for_url()

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            match = re.search(
                r"listening on (http://\S+)", self.log_path.read_text()
            )
            if match:
                return match.group(1)
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(
            f"repro serve did not start: {self.log_path.read_text()[-500:]}"
        )

    def peak_rss_mb(self) -> float:
        return benchlib.pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def engine_counters(client: Any) -> Dict[str, float]:
    """``engine.*`` counters from the service's Prometheus page."""
    names: Dict[str, str] = {}
    values: Dict[str, float] = {}
    for line in client.metrics().splitlines():
        if line.startswith("# HELP "):
            _, _, metric, _, _, name = line.split(" ", 5)
            names[metric] = name
        elif line and not line.startswith("#") and 'component="engine"' in line:
            metric = line.split("{", 1)[0]
            values[names.get(metric, metric)] = float(line.rsplit(" ", 1)[1])
    return values


def start_server(root: Path, work: Path, index: int,
                 warm: list) -> Tuple[Server, float, Dict[str, Any]]:
    """Start, health-check and warm one server; returns its set-up
    time and the warm set's results."""
    from repro.api import ServiceClient

    start = time.perf_counter()
    server = Server(root, work, index)
    try:
        client = ServiceClient(server.url, timeout=JOB_TIMEOUT_S)
        client.healthz()
        jobs = [client.submit(request) for request in warm]
        results = [client.result(job, timeout=JOB_TIMEOUT_S) for job in jobs]
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    return server, elapsed, {
        "digest": benchlib.digest([r.to_dict() for r in results]),
        "results": results,
    }


@contextlib.contextmanager
def sharing_one_cpu() -> Iterator[None]:
    """Run this process, and the servers it starts, on one CPU.

    The loop has one request in flight, so client and server take turns
    and one CPU serves both. On a shared virtual machine, a hand-off to
    a vCPU that has gone idle waits until the hypervisor runs that vCPU
    again; with the host under load, that wait doubled a hit's latency
    (README, "Steadiness"). On one CPU a hand-off is a context switch.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class LoadGenerator:
    """Closed loop with one client: the next request goes out when the
    previous result is in hand.

    One client, not one per core: on a small shared host, concurrent
    clients and workers make a hit's latency depend on whether a write
    holds the server's interpreter lock at that moment, and the
    scheduler's choices then decide the figures (README, "Steadiness").
    """

    def __init__(self, url: str, seed: int, warm: list, tag: str,
                 first_fresh: int = 0,
                 at_min_jobs: Optional[Callable[[], None]] = None) -> None:
        self.url = url
        self.seed = seed
        self.warm = warm
        self.tag = tag
        #: Fresh requests are numbered across loops, so a later loop
        #: never resubmits an earlier loop's writes.
        self.next_fresh = first_fresh
        self.jobs: List[Dict[str, Any]] = []
        #: Called once, when job ``MIN_JOBS`` has finished.
        self.at_min_jobs = at_min_jobs

    def schedule(self) -> Iterator[Tuple[str, Any]]:
        """Endless ``(kind, request)`` sequence: per block, one fresh
        run at a seeded slot; warm resubmits walk seeded shuffles of the
        whole warm set, so each warm request recurs equally often."""
        rng = random.Random(benchlib.derive_seed(self.seed, self.tag))
        warm: List[Any] = []
        while True:
            fresh_slot = rng.randrange(BLOCK)
            for slot in range(BLOCK):
                if slot == fresh_slot:
                    index = self.next_fresh
                    self.next_fresh += 1
                    yield "miss", fresh_request(self.seed, index)
                    continue
                if not warm:
                    warm = list(self.warm)
                    rng.shuffle(warm)
                yield "hit", warm.pop()

    def run(self, seconds: float) -> float:
        """Run the loop for ``seconds`` and at least ``MIN_JOBS`` jobs,
        stopping at a window's end; returns its wall time."""
        from repro.api import ServiceClient

        client = ServiceClient(self.url, timeout=JOB_TIMEOUT_S)
        start = time.perf_counter()
        deadline = start + seconds
        for kind, request in self.schedule():
            if (
                len(self.jobs) >= MIN_JOBS
                and len(self.jobs) % WINDOW_JOBS == 0
                and time.perf_counter() >= deadline
            ):
                break
            record: Dict[str, Any] = {"kind": kind, "request": request}
            record["start"] = time.perf_counter()
            try:
                job = client.submit(request)
                record["job"] = job
                record["result"] = client.result(
                    job, timeout=JOB_TIMEOUT_S, poll_s=POLL_S
                )
                record["end"] = time.perf_counter()
                record["latency_ms"] = (record["end"] - record["start"]) * 1e3
            except Exception as exc:  # noqa: BLE001 - counted, reported
                record["end"] = time.perf_counter()
                record["error"] = repr(exc)
                record["latency_ms"] = JOB_TIMEOUT_S * 1e3
            self.jobs.append(record)
            if len(self.jobs) == MIN_JOBS and self.at_min_jobs is not None:
                self.at_min_jobs()
        return time.perf_counter() - start


def install_probe(probe: Probe, statuses: Dict[str, tuple]) -> None:
    """Wrap the client's requests and sleeps, not ``results`` around
    them: the client's own code between them stays unattributed. The
    fetch (result GET and decoding) is timed from the status poll that
    answered ``done`` to the result in hand."""
    from repro.service import client as client_module

    def keep_status(args: tuple, status: Dict[str, Any]) -> None:
        statuses[args[1]] = (status, time.perf_counter())

    probe.wrap(client_module.ServiceClient, "submit",
               "service.client.submit")
    probe.wrap(client_module.ServiceClient, "status",
               "service.client.poll", on_result=keep_status)
    # The poll loop sleeps through the client module's ``time``.
    probe.replace(client_module, "time", _SleepClock())
    probe.wrap(_SleepClock, "sleep", "service.client.poll_sleep")


class _SleepClock:
    """Stand-in for the ``time`` module inside the client, so the poll
    loop's sleeps can be timed without touching ``time.sleep`` for the
    rest of the process."""

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def __getattr__(self, name: str) -> Any:
        return getattr(time, name)


def check_in_process(jobs: List[Dict[str, Any]]) -> List[str]:
    """Every distinct request's service result must equal the same
    ``RunRequest`` executed in this process."""
    problems = []
    checked: Dict[str, Any] = {}
    for record in jobs:
        if "result" not in record:
            continue
        key = benchlib.digest(record["request"].to_dict())
        if key not in checked:
            checked[key] = record["request"].execute().to_dict()
        if record["result"].to_dict() != checked[key]:
            problems.append(
                f"{record['kind']} job {record.get('job')} differs from the "
                "in-process run"
            )
    return problems


def window_rates(jobs: List[Dict[str, Any]]) -> List[float]:
    """Finished jobs per second in each window of ``WINDOW_JOBS`` jobs,
    from the first job's start to the last job's end."""
    rates = []
    for first in range(0, len(jobs) - WINDOW_JOBS + 1, WINDOW_JOBS):
        window = jobs[first:first + WINDOW_JOBS]
        done = sum("result" in job for job in window)
        rates.append(done / (window[-1]["end"] - window[0]["start"]))
    return rates


def summarize(jobs: List[Dict[str, Any]], wall_s: float) -> Dict[str, Any]:
    done = [j for j in jobs if "result" in j]
    latencies = [j["latency_ms"] for j in jobs]
    rates = window_rates(jobs)
    return {
        "jobs": len(jobs),
        "done": len(done),
        "failed": len(jobs) - len(done),
        "hits": sum(j["kind"] == "hit" for j in jobs),
        "misses": sum(j["kind"] == "miss" for j in jobs),
        "wall_s": wall_s,
        "jobs_per_s": benchlib.median(rates),
        "windows": len(rates),
        "mean_jobs_per_s": len(done) / wall_s,
        "p50_ms": benchlib.percentile(latencies, 50),
        "p95_ms": benchlib.percentile(latencies, 95),
        "hit_p50_ms": benchlib.percentile(
            [j["latency_ms"] for j in jobs if j["kind"] == "hit"] or [0.0], 50
        ),
    }


def run(root: Path, work: Path, seed: int, seconds: float,
        trace: bool) -> Outcome:
    from repro.api import ServiceClient

    outcome = Outcome()
    warm = warm_set(seed)
    setups: List[float] = []
    server: Optional[Server] = None
    warm_digests = set()
    with sharing_one_cpu():
        try:
            for index in range(SETUPS):
                if server is not None:
                    server.stop()
                server, elapsed, warmed = start_server(root, work, index, warm)
                setups.append(elapsed)
                warm_digests.add(warmed["digest"])
                benchlib.log(f"service set-up {index + 1} {elapsed:.2f}s")
            client = ServiceClient(server.url, timeout=JOB_TIMEOUT_S)

            rss: List[float] = []
            windows: List[Dict[str, Any]] = []
            next_fresh = 0
            plan = [("untraced", seconds / 2), ("traced", seconds / 2)] \
                if trace else [("untraced", seconds)]
            for tag, length in plan:
                before = engine_counters(client)
                loadgen = LoadGenerator(
                    server.url, seed, warm, tag, next_fresh,
                    at_min_jobs=(
                        None if windows
                        else lambda: rss.append(server.peak_rss_mb())
                    ),
                )
                statuses: Dict[str, tuple] = {}
                with contextlib.ExitStack() as scope:
                    probe = scope.enter_context(Probe()) if tag == "traced" \
                        else None
                    if probe is not None:
                        install_probe(probe, statuses)
                    wall = loadgen.run(length)
                next_fresh = loadgen.next_fresh
                after = engine_counters(client)
                windows.append({
                    "tag": tag, "jobs": loadgen.jobs, "wall_s": wall,
                    "probe": probe, "statuses": statuses,
                    "counters": (before, after),
                    "summary": summarize(loadgen.jobs, wall),
                })
                benchlib.log(f"service {tag} window: {windows[-1]['summary']}")
        finally:
            if server is not None:
                server.stop()

    all_jobs = [job for window in windows for job in window["jobs"]]
    outcome.attempted = len(all_jobs)
    outcome.failed = sum("result" not in job for job in all_jobs)
    outcome.problems.extend(
        job["error"] for job in all_jobs if "error" in job
    )
    if not rss:
        outcome.problems.append(f"server memory not read at {MIN_JOBS} jobs")
    if len(warm_digests) != 1:
        outcome.problems.append("warm-up results differ between servers")
    warm_digest = warm_digests.pop() if len(warm_digests) == 1 else None
    by_request = {
        benchlib.digest(r.to_dict()): benchlib.digest(res.to_dict())
        for r, res in zip(warm, warmed["results"])
    }
    for job in all_jobs:
        if job["kind"] == "hit" and "result" in job:
            key = benchlib.digest(job["request"].to_dict())
            if benchlib.digest(job["result"].to_dict()) != by_request[key]:
                outcome.problems.append("a warm resubmission disagrees")
                break
    outcome.problems.extend(check_in_process(all_jobs + [
        {"kind": "warm", "request": r, "result": res}
        for r, res in zip(warm, warmed["results"])
    ]))

    main = windows[0]["summary"]
    outcome.end_to_end = {
        "setup_s": benchlib.median(setups),
        "peak_rss_mb": rss[0] if rss else 0.0,
        "throughput_per_s": main["jobs_per_s"],
        "latency_p50_ms": main["p50_ms"],
        "latency_p95_ms": main["p95_ms"],
    }
    outcome.report = {
        "service_jobs_per_s": main["jobs_per_s"],
        "service_p50_ms": main["p50_ms"],
        "service_p95_ms": main["p95_ms"],
        "latency_samples": main["jobs"],
        "windows": [w["summary"] for w in windows],
        "setup_samples_s": setups,
        "output_digest": warm_digest,
        "fresh_checked": sum(
            1 for job in all_jobs if job["kind"] == "miss" and "result" in job
        ),
    }
    if trace:
        outcome.per_layer, outcome.report["prediction"] = traced_layers(
            windows[1], main
        )
    return outcome


def traced_layers(window: Dict[str, Any], untraced: Dict[str, Any]) -> tuple:
    """Per-job means over the traced window. Means add up: submit,
    polls, sleeps, fetch and the remainder sum to the mean latency."""
    probe: Probe = window["probe"]
    done = [j for j in window["jobs"] if "result" in j]
    n = max(1, len(done))
    latency_ms = benchlib.mean(j["latency_ms"] for j in done)
    waits, runs, fetches = [], [], []
    for job in done:
        status, seen = window["statuses"][job["job"]]
        fetches.append(job["end"] - seen)
        if status.get("started_s") and status.get("finished_s"):
            waits.append(status["started_s"] - status["submitted_s"])
            runs.append(status["finished_s"] - status["started_s"])
    before, after = window["counters"]
    requests = after.get("engine.requests", 0) - before.get(
        "engine.requests", 0
    )
    misses = after.get("engine.misses", 0) - before.get("engine.misses", 0)

    def per_job_ms(layer: str) -> float:
        return 1e3 * probe.self_s[layer] / n

    layers = {
        "service.client.submit_ms": per_job_ms("service.client.submit"),
        "service.client.polls_per_job": probe.calls[
            "service.client.poll"] / n,
        "service.client.poll_sleep_ms": per_job_ms(
            "service.client.poll_sleep"),
        "service.client.fetch_ms": 1e3 * benchlib.mean(fetches),
        "service.client.poll_ms": per_job_ms("service.client.poll"),
        "service.jobs.queue_wait_ms": 1e3 * benchlib.mean(waits),
        "service.jobs.run_ms": 1e3 * benchlib.mean(runs),
        "harness.engine.hit_ratio": (
            1.0 - misses / requests if requests else 0.0
        ),
        "trace.overhead_pct": 100.0 * (
            untraced["jobs_per_s"] / window["summary"]["jobs_per_s"] - 1.0
        ),
    }
    requests_ms = sum(
        layers[f"service.client.{name}_ms"]
        for name in ("submit", "poll", "fetch")
    )
    other_ms = (
        latency_ms - requests_ms - layers["service.client.poll_sleep_ms"]
    )
    layers["service-mixed.other_s"] = other_ms / 1e3
    server_ms = (
        layers["service.jobs.queue_wait_ms"] + layers["service.jobs.run_ms"]
    )
    # The HTTP requests hold the service's work (the server's handling,
    # and the job's queue wait and run, which they poll across); the
    # rest of a job's latency is the client's poll sleeps and its own
    # code. Longer sleeps or slower client code fail the claim.
    prediction = {
        "claim": "service.* carries most of service-mixed: submit, "
                 "status and fetch requests outweigh poll sleeps and "
                 "client code",
        "share": requests_ms / latency_ms,
        "confirmed": requests_ms / latency_ms > 0.5,
        "server_job_share": server_ms / latency_ms,
        "poll_sleep_share": layers["service.client.poll_sleep_ms"]
        / latency_ms,
        "other_share": other_ms / latency_ms,
    }
    return layers, prediction
