"""The traced run's layer ladder.

Requests are replayed serially through five levels, each one layer
further out than the last:

    L0  bare ``Estimator.estimate()``            (repro.estimators)
    L1  ``run_cell()``                           (repro.bench.runner)
    L2  in-process ``EstimationService``, no cache (repro.serve.service)
    L3  ``POST /estimate`` to a cache-off daemon (repro.serve.daemon)
    L4  ``POST /estimate`` answered from the cache (repro.serve.cache)

L0 and L1 cover every supported (technique, query) pair of all seven
techniques; L1 to L4 replay a seeded sample of the workload's own
requests.  A layer's self time is the difference between adjacent
levels for the same request.  Every level makes the identical call once
untimed first, so per-query memos and worker state are equally warm at
every level.  The update path (``reseal``, ``apply_deltas``,
``swap_deltas``, ``POST /swap``), the build path (``seal``, ``prepare``)
and the matcher are timed around their public calls on the same graph.
"""

from __future__ import annotations

import math
import random
import time
from statistics import median
from typing import Dict, List, Tuple

import inputs
from harness import Daemon, quantile
from workloads import (
    CACHE_ENTRIES, MISS_TECHNIQUES, MISS_WORKERS, SWEEP_WORKERS, post_json,
    query_payloads, request_body,
)

#: L0/L1 time every supported pair whose dry-run cost is under this.
#: Only SumRDF's seven slow cells (3-27 s each) lie above it: timing them
#: three times would take about five minutes.  The sweep logs their
#: on-line time (``layers.json``, ``per_technique_elapsed_ms``).
L01_COST_CAP_S = 1.0
#: L1-L4 replay requests cheap enough that five levels stay quick; layer
#: self times do not depend on the estimate's own cost, and a costly
#: estimate's own jitter would swamp them
L14_COST_CAP_S = 0.05
#: requests replayed through L1-L4, enough for a p99
L14_REQUESTS = 200
UPDATE_BATCHES = 5
UPDATE_BATCH_SIZE = 8
SEAL_REPEATS = 3
#: the techniques with an off-line summary worth sizing
SUMMARY_TECHNIQUES = ("cset", "sumrdf", "bs")

#: workload -> (techniques its daemon serves at L2-L4, daemon workers)
LADDER = {
    "sweep-aids": (inputs.TECHNIQUES, SWEEP_WORKERS),
    "serve-miss": (MISS_TECHNIQUES, MISS_WORKERS),
}


def _batches(seed: int) -> List[list]:
    def build():
        from repro.bench.stream import MutationStream
        from repro.graph.delta import deltas_to_payload
        from repro.graph.io import load_graph

        stream = MutationStream(load_graph(inputs.graph_file()), seed)
        return [deltas_to_payload(stream.next_batch(UPDATE_BATCH_SIZE))
                for _ in range(UPDATE_BATCHES)]

    return inputs.cached_json(f"ladder-batches-seed{seed}.json", build)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def run_ladder(workload: str, seed: int, tracer) -> Tuple[Dict[str, float], dict]:
    """Returns ``({metric: value}, per-request breakdown)``."""
    from repro.bench.runner import derive_seed, run_cell
    from repro.core.registry import create_estimator
    from repro.graph.delta import deltas_from_payload
    from repro.graph.io import load_graph
    from repro.matching.homomorphism import HomomorphismCounter
    from repro.serve import EstimationService, ServiceConfig

    served, workers = LADDER[workload]
    graph_file = inputs.graph_file()
    named = inputs.query_map()
    payloads = query_payloads()
    cost = inputs.cost_table()
    l01_pairs = [
        pair for pair in inputs.supported_pairs(inputs.TECHNIQUES)
        if cost[pair[0]][pair[1]] <= L01_COST_CAP_S
    ]
    cheap = [
        pair for pair in inputs.supported_pairs(served)
        if cost[pair[0]][pair[1]] <= L14_COST_CAP_S
    ]
    runs = math.ceil(L14_REQUESTS / len(cheap))
    l14_requests = random.Random(seed).sample(
        [(t, name, seed + k) for t, name in cheap for k in range(runs)],
        L14_REQUESTS,
    )
    batches = _batches(seed)
    mismatches: List[str] = []

    # build path: seal, prepare, summary size
    with tracer.span("graph.load_graph"):
        raw = load_graph(graph_file, seal=False)
    seal_times = []
    for _ in range(SEAL_REPEATS):
        with tracer.span("graph.seal"):
            started = time.perf_counter()
            graph = raw.seal()
            seal_times.append(time.perf_counter() - started)
    del raw
    estimators, prepare_s, summary_bytes = {}, {}, {}
    for technique in inputs.TECHNIQUES:
        estimator = create_estimator(
            technique, graph, sampling_ratio=inputs.SAMPLING_RATIO,
            seed=inputs.SERVE_SEED, time_limit=inputs.SWEEP_TIME_LIMIT,
        )
        with tracer.span(f"estimator.prepare.{technique}"):
            started = time.perf_counter()
            estimator.prepare()
            prepare_s[technique] = time.perf_counter() - started
        summary_bytes[technique] = len(estimator.export_summary())
        estimators[technique] = estimator

    def timed(samples: List[float], span_name: str, parent, key: str, call):
        with tracer.span(span_name, parent, key):
            started = time.perf_counter()
            result = call()
            samples.append(time.perf_counter() - started)
        return result

    def cell(technique: str, name: str, run: int):
        return run_cell(technique, estimators[technique], named[name], run,
                        base_seed=inputs.SERVE_SEED).estimate

    # L0/L1: every supported pair under the cost cap
    l0: Dict[str, List[float]] = {t: [] for t in inputs.TECHNIQUES}
    l1: Dict[str, List[float]] = {t: [] for t in inputs.TECHNIQUES}
    for technique, name in l01_pairs:
        key = inputs.cell_key(technique, name, inputs.SERVE_SEED, seed)
        estimator = estimators[technique]
        query = named[name].query
        with tracer.span("ladder.request", request=key) as parent:
            estimator.seed = derive_seed(inputs.SERVE_SEED, seed)
            try:
                estimator.estimate(query)
                bare = timed(l0[technique], "estimators.estimate", parent, key,
                             lambda: estimator.estimate(query)).estimate
            finally:
                estimator.seed = inputs.SERVE_SEED
            ran = timed(l1[technique], "runner.run_cell", parent, key,
                        lambda: cell(technique, name, seed))
        if bare != ran:
            mismatches.append(f"{key}: estimate {bare!r} != run_cell {ran!r}")

    config = ServiceConfig(
        techniques=list(served), sampling_ratio=inputs.SAMPLING_RATIO,
        seed=inputs.SERVE_SEED, time_limit=inputs.SERVE_TIME_LIMIT,
        workers=workers, cache_entries=0,
    )
    uncached = Daemon(graph_file, served, workers, inputs.SERVE_SEED, 0)
    cached = Daemon(graph_file, served, workers, inputs.SERVE_SEED,
                    CACHE_ENTRIES)
    levels: Dict[str, List[float]] = {f"L{i}": [] for i in range(1, 5)}
    swap_s, swap_http_s, reseal_s = [], [], []
    apply_s: Dict[str, List[float]] = {t: [] for t in inputs.TECHNIQUES}
    modes = {"incremental": 0, "reprepare": 0}
    kept = dropped = 0
    service = EstimationService(graph, config)
    try:
        with tracer.span("ladder.start"):
            service.start()
            uncached.start()
            cached.start()
        off, on = uncached.client(), cached.client()
        # L1-L4: the workload's own requests
        for technique, name, run in l14_requests:
            key = inputs.cell_key(technique, name, inputs.SERVE_SEED, run)
            query = named[name].query
            body = request_body(payloads, technique, name, run)
            with tracer.span("ladder.request", request=key) as parent:
                cell(technique, name, run)
                answers = [timed(levels["L1"], "runner.run_cell", parent, key,
                                 lambda: cell(technique, name, run))]
                service.estimate(technique, query, run)
                answers.append(timed(
                    levels["L2"], "service.estimate", parent, key,
                    lambda: service.estimate(technique, query, run))["estimate"])
                post_json(off, "/estimate", body)
                answers.append(timed(
                    levels["L3"], "daemon.estimate", parent, key,
                    lambda: post_json(off, "/estimate", body))[1].get("estimate"))
                post_json(on, "/estimate", body)
                _, reply = timed(levels["L4"], "cache.hit", parent, key,
                                 lambda: post_json(on, "/estimate", body))
                answers.append(reply.get("estimate"))
            if not reply.get("cached"):
                mismatches.append(f"{key}: repeated request missed the cache")
            if len(set(answers)) != 1:
                mismatches.append(f"{key}: levels disagree {answers}")

        server_p50_ms = _ms(off.get_json("/stats")["latency"]["p50_s"])
        # update path, after the replay so the cached daemon holds entries
        current = graph
        for batch in batches:
            deltas = deltas_from_payload(batch)
            with tracer.span("graph.reseal"):
                started = time.perf_counter()
                current = current.reseal(deltas)
                reseal_s.append(time.perf_counter() - started)
            for technique, estimator in estimators.items():
                with tracer.span(f"estimator.apply_deltas.{technique}"):
                    started = time.perf_counter()
                    modes[estimator.apply_deltas(current, deltas)] += 1
                    apply_s[technique].append(time.perf_counter() - started)
            with tracer.span("service.swap_deltas"):
                started = time.perf_counter()
                service.swap_deltas(deltas)
                swap_s.append(time.perf_counter() - started)
            with tracer.span("daemon.swap"):
                started = time.perf_counter()
                status, reply = post_json(on, "/swap", {"deltas": batch})
                swap_http_s.append(time.perf_counter() - started)
            if status != 200:
                mismatches.append(f"swap failed: {reply}")
                continue
            kept += reply["cache_kept"]
            dropped += reply["cache_dropped"]
        off.close()
        on.close()
    finally:
        service.close()
        uncached.stop()
        cached.stop()

    match_graph = inputs.dataset_graph()
    match_s = 0.0
    match_steps = 0
    for name in sorted(named):
        with tracer.span("matching.count", request=name):
            started = time.perf_counter()
            result = HomomorphismCounter(match_graph, named[name].query).count()
            match_s += time.perf_counter() - started
        match_steps += result.steps

    values: Dict[str, float] = {}
    for technique in inputs.TECHNIQUES:
        values[f"estimate_ms.{technique}"] = _ms(median(l0[technique]))
        values[f"estimate_max_ms.{technique}"] = _ms(max(l0[technique]))
        values[f"run_cell_ms.{technique}"] = _ms(median(
            [b - a for a, b in zip(l0[technique], l1[technique])]
        ))
        values[f"apply_deltas_ms.{technique}"] = _ms(median(apply_s[technique]))
    for technique in SUMMARY_TECHNIQUES:
        values[f"prepare_s.{technique}"] = prepare_s[technique]
        values[f"summary_bytes.{technique}"] = summary_bytes[technique]
    l1s, l2s, l3s, l4s = (levels[f"L{i}"] for i in range(1, 5))
    service_self = [b - a for a, b in zip(l1s, l2s)]
    http_self = [b - a for a, b in zip(l2s, l3s)]
    values.update({
        "service_ms_p50": _ms(quantile(service_self, 0.50)),
        "service_ms_p99": _ms(quantile(service_self, 0.99)),
        "http_ms_p50": _ms(quantile(http_self, 0.50)),
        "http_ms_p99": _ms(quantile(http_self, 0.99)),
        "server_p50_ms": server_p50_ms,
        "http_hit_ms": _ms(median(l4s)),
        "cache_kept": kept,
        "cache_dropped": dropped,
        "swap_ms": _ms(median(swap_s)),
        "swap_http_ms": _ms(median(swap_http_s)),
        "reseal_ms": _ms(median(reseal_s)),
        "update_mode.incremental": modes["incremental"],
        "update_mode.reprepare": modes["reprepare"],
        "seal_s": median(seal_times),
        "match_ms": _ms(match_s),
        "match_steps": match_steps,
    })
    breakdown = {
        "l01_pairs": len(l01_pairs),
        "l01_skipped": [
            f"{t}/{name}" for t, name in inputs.supported_pairs(inputs.TECHNIQUES)
            if cost[t][name] > L01_COST_CAP_S
        ],
        "l14_requests": [inputs.cell_key(t, n, inputs.SERVE_SEED, r)
                         for t, n, r in l14_requests],
        "prepare_s": prepare_s,
        "summary_bytes": summary_bytes,
        "mismatches": mismatches,
    }
    return values, breakdown
