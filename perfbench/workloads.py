"""The two workloads and their timed passes.

Each workload is a function ``(seed, seconds, tracer, repetitions, out)
-> Outcome``.  It builds its inputs before any timing, then cold-starts
the program, drives it through its public entry points and stops it.
``serve-miss`` does that ``repetitions`` times (rates, set-up time and
peak RSS are medians over them; latencies and q-errors are pooled);
``sweep-aids`` runs one whole sweep and takes ``repetitions - 1`` more
set-up samples.  Every answer the workload is meant to check is checked.
``NOTES.md`` gives the reasons for each workload.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import inputs
from harness import (
    Daemon, PeakRss, band_quantile, quantile, start_daemon_timed, stop_process,
)

INF = float("inf")

#: serve-miss: the techniques whose AIDS estimates cost milliseconds
MISS_TECHNIQUES = ("cset", "impr", "cs", "wj", "jsub")
MISS_WORKERS = 2
#: the daemon's default result-cache capacity, passed explicitly because
#: the miss schedule is sized against it
CACHE_ENTRIES = 1024
CLIENTS = 2

#: serve-miss does a fixed amount of work sized from ``--seconds`` by
#: this nominal rate (measured on a 2-core VM), so every run sends the
#: same mix and slower code simply runs longer
MISS_NOMINAL_RPS = 180

SWEEP_WORKERS = 2
#: cells per dispatch message.  The runner's automatic size (about four
#: batches per worker, 20 cells here) puts six of SumRDF's seven slow
#: cells in one batch on one worker, and a sweep then takes about 104 s instead of
#: about 70 s; see NOTES.md
SWEEP_BATCH_SIZE = 1


@dataclass
class Outcome:
    """What one timed pass measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    mismatches: List[str] = field(default_factory=list)
    #: per-layer facts the pass saw on the way (busy fraction, cache)
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class _Tally:
    """Per-repetition samples and pooled per-operation samples."""

    setups: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    busy: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    qerrors: List[float] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def fail(self) -> None:
        """A failed operation misses every latency limit and counts as
        q-error +inf."""
        self.failed += 1
        self.latencies.append(INF)
        self.qerrors.append(INF)

    def outcome(self, **detail) -> Outcome:
        metrics = {
            "setup_s": median(self.setups),
            "peak_rss_mb": median(self.rss_mb),
            "cells_per_s": median(self.rates),
            "latency_p99_ms": band_quantile(self.latencies, 0.99, 0.005) * 1000.0,
            "qerror_gmean": math.exp(
                math.fsum(map(math.log, self.qerrors)) / len(self.qerrors)
            ),
        }
        detail.update(
            repetitions={"setup_s": self.setups, "cells_per_s": self.rates},
            # the request path's p50 swings 20-40% between runs on a
            # 2-core VM, past any bound the benchmark may set: detail only
            latency_p50_ms=band_quantile(self.latencies, 0.50, 0.05) * 1000.0,
            busy_frac=median(self.busy),
            samples=len(self.latencies),
            # q-error quantiles jump between clusters from seed to seed
            # (many estimates are deterministic per pair): detail only
            qerror_p50=quantile(self.qerrors, 0.50),
            qerror_p90=quantile(self.qerrors, 0.90),
        )
        return Outcome(metrics, self.attempted, self.failed,
                       self.mismatches, detail)


def _qerror(true_count: int, estimate: float) -> float:
    from repro.metrics.qerror import qerror

    return qerror(true_count, estimate)


def _truth() -> Dict[str, int]:
    return {name: q.true_cardinality for name, q in inputs.query_map().items()}


# ---------------------------------------------------------------------------
# sweep-aids
# ---------------------------------------------------------------------------
def sweep_argv(seed: int, log: Path) -> List[str]:
    """``gcare sweep aids``: all techniques, one run per cell."""
    return [
        sys.executable, "-m", "repro.bench.cli", "sweep", "aids",
        "--workers", str(SWEEP_WORKERS),
        "--seed", str(seed),
        "--time-limit", str(inputs.SWEEP_TIME_LIMIT),
        "--batch-size", str(SWEEP_BATCH_SIZE),
        "--results-log", str(log),
    ]


def _run_sweep_process(argv: List[str], log: Path, tracer, name: str,
                       setup_only: bool = False):
    """Spawn one cold sweep; timestamp each logged record as it lands.

    Returns ``(setup seconds, [(arrival, record)], peak RSS MB)``; set-up
    runs from the spawn to the first record in the results log.  With
    ``setup_only`` the sweep is interrupted (SIGINT, as Ctrl-C would)
    once its first record lands.
    """
    if log.exists():
        log.unlink()  # the sweep would resume from an old log
    arrivals: List[Tuple[float, dict]] = []
    with tracer.span(name):
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL if setup_only else sys.stderr,
            stderr=subprocess.DEVNULL if setup_only else None,
        )
        rss = PeakRss(process.pid)
        try:
            offset = 0
            pending = b""
            while True:
                exited = process.poll() is not None
                if log.exists():
                    with open(log, "rb") as handle:
                        handle.seek(offset)
                        chunk = handle.read()
                    offset += len(chunk)
                    now = time.perf_counter()
                    *lines, pending = (pending + chunk).split(b"\n")
                    arrivals.extend((now, json.loads(line)) for line in lines)
                if exited or (setup_only and arrivals):
                    break
                time.sleep(0.02)
        finally:
            rss_mb = rss.stop()
            # SIGINT lets the sweep release its workers and shared memory
            stop_process(process, signal.SIGINT)
    if not arrivals:
        raise RuntimeError("sweep process logged no records")
    if not setup_only and process.returncode != 0:
        raise RuntimeError(f"sweep process exited with {process.returncode}")
    return arrivals[0][0] - started, arrivals, rss_mb


def sweep_aids(seed: int, seconds: float, tracer, repetitions: int,
               out: Path) -> Outcome:
    with tracer.span("inputs"):
        data = inputs.sweep_inputs(seed)
        truth = _truth()
        pairs = set(inputs.supported_pairs(inputs.TECHNIQUES))
    argv = sweep_argv(seed, out / "sweep.jsonl")
    tally = _Tally()
    for index in range(repetitions - 1):
        setup_s, _, _ = _run_sweep_process(
            argv, out / "sweep.jsonl", tracer, f"sweep.setup.{index}",
            setup_only=True,
        )
        tally.setups.append(setup_s)
    setup_s, arrivals, rss_mb = _run_sweep_process(
        argv, out / "sweep.jsonl", tracer, "sweep.run"
    )
    per_technique: Dict[str, List[float]] = {}
    seen = set()
    busy = 0.0
    for _arrival, record in arrivals:
        pair = (record["technique"], record["query_name"])
        if pair not in pairs:
            # dropped at input generation: the runner's grid still holds
            # it and must refuse it without doing work
            if record["error"] != "unsupported":
                tally.mismatches.append(
                    f"{pair}: dropped pair answered {record['error']}"
                )
            continue
        seen.add(pair)
        tally.attempted += 1
        busy += record["elapsed"]
        if record["error"] is not None:
            tally.failed += 1
            tally.qerrors.append(INF)
            continue
        expected = data["references"][inputs.cell_key(*pair, seed, 0)]
        if record["estimate"] != expected:
            tally.mismatches.append(
                f"{pair}@{seed}: sweep {record['estimate']!r} "
                f"!= run_cell {expected!r}"
            )
        tally.qerrors.append(_qerror(truth[pair[1]], record["estimate"]))
        per_technique.setdefault(pair[0], []).append(record["elapsed"] * 1000.0)
    for _missing in pairs - seen:
        tally.attempted += 1
        tally.failed += 1
        tally.qerrors.append(INF)
    window = arrivals[-1][0] - arrivals[0][0]
    # a sweep is one operation: its latency is the time to results, spawn
    # to last record, and a failed cell makes it miss any limit
    tally.latencies.append(setup_s + window if not tally.failed else INF)
    tally.setups.append(setup_s)
    tally.rss_mb.append(rss_mb)
    tally.rates.append((len(seen) - 1) / window)
    tally.busy.append(busy / (SWEEP_WORKERS * window))
    return tally.outcome(
        dropped_pairs=inputs.dropped_pairs(inputs.TECHNIQUES),
        per_technique_elapsed_ms={
            t: {"median": median(v), "max": max(v)}
            for t, v in sorted(per_technique.items())
        },
    )


# ---------------------------------------------------------------------------
# the closed-loop HTTP client side
# ---------------------------------------------------------------------------
@dataclass
class _Reply:
    key: str
    sent: float
    done: float
    status: Optional[int]
    body: dict


def post_json(client, path: str, body: dict):
    """POST over the client's keep-alive connection; a transport error
    is a failed operation (status None) and the connection is reopened."""
    try:
        return client.post(path, body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        client.close()
        return None, {"error": f"{type(exc).__name__}: {exc}"}


def _timed_post(client, path: str, body: dict, key: str, tracer,
                span: str) -> _Reply:
    with tracer.span(span, request=key):
        sent = time.perf_counter()
        status, reply = post_json(client, path, body)
        done = time.perf_counter()
    return _Reply(key, sent, done, status, reply)


def query_payloads() -> Dict[str, dict]:
    from repro.serve.protocol import query_to_payload

    return {name: query_to_payload(q.query) for name, q in inputs.query_map().items()}


def request_body(payloads, technique: str, name: str, run: int) -> dict:
    return {"technique": technique, "query": payloads[name], "run": run}


def _check(body: dict, expected: float, key, mismatches: List[str]) -> None:
    if body.get("status") != 200 or body.get("estimate") != expected:
        mismatches.append(
            f"{key}: served {body.get('estimate')!r} "
            f"(status {body.get('status')}) != run_cell {expected!r}"
        )


def _run_clients(loops) -> None:
    threads = [threading.Thread(target=loop) for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _stats(daemon: Daemon) -> dict:
    client = daemon.client()
    try:
        return client.get_json("/stats")
    finally:
        client.close()


def _hit_ratio(stats: dict) -> float:
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0


def _serve(graph_file: Path, techniques, workers: int, warmup: dict,
           tracer, name: str) -> Tuple[Daemon, float, dict]:
    """Cold-start a daemon (RSS sampled from the spawn on); returns it
    running, with the set-up time and the first reply."""
    daemon = Daemon(graph_file, techniques, workers, inputs.SERVE_SEED,
                    CACHE_ENTRIES)
    try:
        setup_s, reply = start_daemon_timed(daemon, warmup, tracer, name,
                                            sample_rss=True)
    except BaseException:
        daemon.stop()
        raise
    return daemon, setup_s, reply


# ---------------------------------------------------------------------------
# serve-miss
# ---------------------------------------------------------------------------
def serve_miss(seed: int, seconds: float, tracer, repetitions: int,
               out: Path) -> Outcome:
    with tracer.span("inputs"):
        data = inputs.miss_inputs(seed, MISS_TECHNIQUES, CACHE_ENTRIES)
        graph_file = inputs.graph_file()
        payloads = query_payloads()
        truth = _truth()
        schedule = [tuple(cell) for cell in data["schedule"]]
        keys = [inputs.cell_key(*cell) for cell in schedule]
        bodies = [request_body(payloads, t, name, run) for t, name, _, run in schedule]
        warmup = tuple(data["warmup"])
    references = data["references"]
    # whole cycles of the schedule per repetition: every run sends the
    # same mix
    total = len(bodies) * max(1, round(
        seconds * MISS_NOMINAL_RPS / repetitions / len(bodies)
    ))
    tally = _Tally()
    hit_ratios = []
    for rep in range(repetitions):
        daemon, setup_s, reply = _serve(
            graph_file, MISS_TECHNIQUES, MISS_WORKERS,
            request_body(payloads, warmup[0], warmup[1], warmup[3]), tracer,
            f"daemon.start.{rep}",
        )
        try:
            tally.attempted += 1
            _check(reply, references[inputs.cell_key(*warmup)], warmup,
                   tally.mismatches)
            cursor = itertools.count()
            replies: List[_Reply] = []
            started = time.perf_counter()

            def client_loop() -> None:
                client = daemon.client()
                try:
                    while True:
                        position = next(cursor)
                        if position >= total:
                            break
                        index = position % len(bodies)
                        replies.append(_timed_post(
                            client, "/estimate", bodies[index], keys[index],
                            tracer, "http.estimate",
                        ))
                finally:
                    client.close()

            _run_clients([client_loop] * CLIENTS)
            window = max(r.done for r in replies) - started
            hit_ratios.append(_hit_ratio(_stats(daemon)))
        finally:
            tally.rss_mb.append(daemon.stop())
        busy = 0.0
        for r in replies:
            tally.attempted += 1
            if r.status != 200:
                tally.fail()
                continue
            _check(r.body, references[r.key], r.key, tally.mismatches)
            tally.latencies.append(r.done - r.sent)
            tally.qerrors.append(
                _qerror(truth[r.key.split("/")[1]], r.body["estimate"])
            )
            busy += r.body["elapsed_ms"] / 1000.0
        tally.setups.append(setup_s)
        tally.rates.append(sum(r.status == 200 for r in replies) / window)
        tally.busy.append(busy / (MISS_WORKERS * window))
    return tally.outcome(
        cache_hit_ratio=median(hit_ratios),
        dropped_pairs=inputs.dropped_pairs(MISS_TECHNIQUES),
    )


#: workload -> (timed pass, cold repetitions per untraced run)
WORKLOADS = {
    "sweep-aids": (sweep_aids, 3),
    "serve-miss": (serve_miss, 3),
}
