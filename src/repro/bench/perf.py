"""Tracked performance benchmarks for the sealed graph substrate.

``gcare bench`` (and ``benchmarks/perf_bench.py``) run a fixed-seed suite
over the bundled AIDS-like dataset and emit a JSON report — checked in as
``BENCH_PR10.json`` (``BENCH_PR9.json`` is the previous baseline) —
covering:

* graph build + seal time and the ``deep_sizeof`` shrink factor,
* per-technique summary preparation, cold vs. hydrated from an exported
  summary blob (the prepare-once path the parallel runner uses),
* estimate hot loops (repeated ``estimate()`` against a warm shared
  cache) on the dict-backed vs. sealed substrate,
* the exact matcher over the full workload on both substrates: the
  sealed and bitset passes pin the pure-Python kernel backend (the
  metrics' historical semantics), and a separate ``matcher_kernels``
  pass measures the default numpy-dispatch configuration on its own
  fresh seal,
* shared-memory worker attach vs. per-worker unpickling of the sealed
  graph (the transport the parallel runner uses),
* results-log append throughput (the persistent-handle fast path),
* the estimation service (``gcare serve``): cold vs warm-cache p50 and a
  seeded closed-loop load run (p50/p95/p99 + throughput under
  ``report["serve"]``) on the example graph,
* warm restart: boot time of a service reattaching a predecessor's
  checksummed shared-memory arenas versus a cold boot that must prepare
  every summary from scratch (``speedups["warm_restart"]``),
* incremental update: absorbing a delta batch via ``reseal`` + per-
  technique ``apply_deltas`` versus rebuilding the sealed substrate and
  every summary from scratch (``speedups["incremental_update"]``, on a
  ~10x ``aids`` generation so the cold path has real work to skip),
* in full mode, a real ``--workers 4`` sweep wall-clock + peak worker
  RSS with shared memory on vs. off.

All wall-clock metrics are *per-operation* seconds (medians over
``reps``), so quick and full runs are comparable, and regression checks
against a baseline file compare like with like.  The suite never asserts
on absolute speed by itself — :func:`check_regression` applies a slack
factor (default 3x) so CI machines of different speeds don't flap.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from .. import kernels as _kernels
from ..core.errors import GCareError
from ..core.registry import available_techniques, create_estimator
from ..datasets import load_dataset
from ..graph.digraph import Graph
from ..matching.homomorphism import HomomorphismCounter
from ..obs.size import deep_sizeof
from .workloads import workload

#: benchmark schema version (bump when metrics change incompatibly)
SCHEMA_VERSION = 10

#: estimator constructor kwargs, fixed so runs are reproducible
_TECH_KWARGS: Dict[str, dict] = {
    "wj": {"sampling_ratio": 0.03, "seed": 7},
    "jsub": {"sampling_ratio": 0.03, "seed": 7},
    "impr": {"seed": 7},
    "cs": {"seed": 7},
}

#: techniques whose estimate hot loop is benchmarked on both substrates
#: (bs and sumrdf estimate from their summaries rather than walking the
#: graph substrate the loop compares)
_HOT_TECHNIQUES = ("wj", "jsub", "cs")


def _median_time(fn: Callable[[], object], reps: int) -> float:
    """Median wall-clock seconds of ``reps`` runs of ``fn``."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _estimate_all(estimator, queries) -> None:
    for query in queries:
        try:
            estimator.estimate(query)
        except GCareError:
            pass  # unsupported shapes still exercise the dispatch path


def run_benchmarks(quick: bool = False, seed: int = 1) -> dict:
    """Run the suite; return the JSON-serializable report."""
    reps = 1 if quick else 3
    hot_iters = 2 if quick else 6
    report: dict = {
        "meta": {
            "bench": "gcare-perf",
            "schema_version": SCHEMA_VERSION,
            "quick": quick,
            "seed": seed,
            "python": platform.python_version(),
            "dataset": f"aids(seed={seed})",
        },
        "timings_s": {},
        "speedups": {},
    }
    timings = report["timings_s"]
    speedups = report["speedups"]

    # --- load + seal -------------------------------------------------
    timings["load_dict"] = _median_time(
        lambda: load_dataset("aids", seed=seed, seal=False), reps
    )
    dataset = load_dataset("aids", seed=seed, seal=False)
    graph_dict = dataset.graph
    timings["seal"] = _median_time(graph_dict.seal, reps)
    graph_sealed = graph_dict.seal()

    size_dict = deep_sizeof(graph_dict)
    size_sealed = deep_sizeof(graph_sealed)
    report["graph"] = {
        "num_vertices": graph_dict.num_vertices,
        "num_edges": graph_dict.num_edges,
        "deep_sizeof_dict": size_dict,
        "deep_sizeof_sealed": size_sealed,
        "shrink_factor": round(size_dict / size_sealed, 2),
    }

    queries = [named.query for named in workload("aids", dataset_seed=seed)]
    if quick:
        queries = queries[:8]
    hot_queries = queries[:6]
    report["meta"]["num_queries"] = len(queries)

    # --- exact matcher, both substrates, bitset kernel on/off ---------
    def matcher_pass(graph: Graph, use_bitsets: Optional[bool] = None) -> None:
        for query in queries:
            HomomorphismCounter(graph, query, use_bitsets=use_bitsets).count()

    # every matcher variant gets one untimed warmup pass so the medians
    # measure steady state: the one-off shared-cache build (bitset
    # arenas, candidate plans, pair views) otherwise lands in whichever
    # variant happens to touch its graph first and skews the ratios
    matcher_pass(graph_dict)
    matcher_dict = _median_time(lambda: matcher_pass(graph_dict), reps)
    # the sealed and bitset passes pin the pure-Python kernel backend so
    # these metrics keep their historical (pre-kernels) semantics; each
    # backend runs on its own fresh seal so graph-level caches are built
    # and reused by one backend only (contents are bit-identical either
    # way — the isolation is for timing honesty, not correctness)
    with _kernels.force_backend("python"):
        graph_sealed_py = graph_dict.seal()
        matcher_pass(graph_sealed_py, use_bitsets=False)
        matcher_sealed = _median_time(
            lambda: matcher_pass(graph_sealed_py, use_bitsets=False), reps
        )
        matcher_pass(graph_sealed_py, use_bitsets=True)
        matcher_bitset = _median_time(
            lambda: matcher_pass(graph_sealed_py, use_bitsets=True), reps
        )
    # the default configuration users get: auto kernel dispatch (numpy
    # when installed) on a sealed graph
    matcher_pass(graph_sealed)
    matcher_kernels = _median_time(lambda: matcher_pass(graph_sealed), reps)
    timings["matcher_dict_per_query"] = matcher_dict / len(queries)
    timings["matcher_sealed_per_query"] = matcher_sealed / len(queries)
    timings["matcher_bitset_per_query"] = matcher_bitset / len(queries)
    timings["matcher_kernels_per_query"] = matcher_kernels / len(queries)
    speedups["matcher"] = round(matcher_dict / matcher_sealed, 2)
    speedups["matcher_bitset"] = round(matcher_dict / matcher_bitset, 2)
    speedups["matcher_kernels"] = round(matcher_dict / matcher_kernels, 2)

    # pinned per-backend matcher passes, each on its own fresh seal.
    # ``matcher_kernels`` above keeps its historical meaning (whatever
    # the default dispatch resolves to); these pin the accelerated legs
    # explicitly so the c-vs-numpy ratio is an apples-to-apples claim
    matcher_backends: Dict[str, float] = {}
    for backend in ("numpy", "c"):
        available = (
            _kernels.numpy_available()
            if backend == "numpy"
            else _kernels.native_available()
        )
        if not available:
            continue
        with _kernels.force_backend(backend):
            graph_fresh = graph_dict.seal()
            matcher_pass(graph_fresh)
            elapsed = _median_time(lambda: matcher_pass(graph_fresh), reps)
            del graph_fresh
        matcher_backends[backend] = elapsed
        timings[f"matcher_kernels_{backend}_per_query"] = (
            elapsed / len(queries)
        )
        speedups[f"matcher_kernels_{backend}"] = round(
            matcher_dict / elapsed, 2
        )
    # the per-backend seals are sizeable cyclic object graphs; reclaim
    # them now so later allocation-heavy phases (summary hydration) are
    # not taxed by gen-2 collections walking dead matcher state
    gc.collect()
    if "numpy" in matcher_backends and "c" in matcher_backends:
        speedups["matcher_c_vs_numpy"] = round(
            matcher_backends["numpy"] / matcher_backends["c"], 2
        )
        if not quick:
            assert speedups["matcher_c_vs_numpy"] >= 2.0, (
                "native matcher kernel must be >= 2x the numpy leg, got "
                f"{speedups['matcher_c_vs_numpy']}x"
            )

    # --- worker transport: shm attach vs unpickling the sealed graph --
    _bench_shm_transport(graph_sealed, timings, speedups, reps)

    # --- results log: persistent-handle append throughput -------------
    _bench_results_log(timings, reps)

    # --- estimation service: cold vs warm-cache latency + load run ----
    _bench_serve(timings, speedups, report, quick, seed)

    # --- warm restart: manifest reattach vs cold prepare-and-publish --
    _bench_warm_restart(graph_sealed, timings, speedups, quick, seed)

    # --- incremental update: O(delta) reseal+maintain vs cold rebuild --
    _bench_incremental(timings, speedups, quick, seed)

    if not quick:
        # --- real parallel sweep: wall clock + peak worker RSS --------
        _bench_parallel_sweep(seed, timings, speedups, report)

    # --- prepare: cold vs hydrated from an exported blob --------------
    # available_techniques(), not ALL_TECHNIQUES: without numpy the bs
    # metrics drop out and compare_reports skips them against a full
    # baseline, so the suite stays runnable on the pure-Python leg
    for name in available_techniques():
        kwargs = _TECH_KWARGS.get(name, {})
        cold_samples = []
        blob: Optional[bytes] = None
        for _ in range(reps):
            estimator = create_estimator(name, graph_sealed, **kwargs)
            start = time.perf_counter()
            estimator.prepare()
            cold_samples.append(time.perf_counter() - start)
            blob = estimator.export_summary()
        timings[f"prepare_cold.{name}"] = statistics.median(cold_samples)

        def hydrate() -> None:
            fresh = create_estimator(name, graph_sealed, **kwargs)
            fresh.import_summary(blob)

        timings[f"prepare_cached.{name}"] = _median_time(hydrate, reps)

    # --- estimate hot loops, both substrates --------------------------
    for name in _HOT_TECHNIQUES:
        kwargs = _TECH_KWARGS.get(name, {})
        per_op: Dict[str, float] = {}
        for label, graph in (("dict", graph_dict), ("sealed", graph_sealed)):
            estimator = create_estimator(name, graph, **kwargs)
            estimator.prepare()
            _estimate_all(estimator, hot_queries)  # warm caches

            def hot_loop() -> None:
                for _ in range(hot_iters):
                    _estimate_all(estimator, hot_queries)

            total = _median_time(hot_loop, reps)
            per_op[label] = total / (hot_iters * len(hot_queries))
        timings[f"estimate_hot_dict.{name}"] = per_op["dict"]
        timings[f"estimate_hot_sealed.{name}"] = per_op["sealed"]
        speedups[f"{name}_hot"] = round(per_op["dict"] / per_op["sealed"], 2)

    if not quick:
        # the BENCH_PR5 regression this suite now guards: JSUB's sealed
        # hot loop must beat the dict substrate (full mode only — quick
        # runs use too few iterations for the ratio to be stable)
        assert speedups["jsub_hot"] > 1.0, (
            "JSUB sealed hot loop regressed below the dict substrate: "
            f"{speedups['jsub_hot']}x"
        )

    return report


def _bench_shm_transport(
    graph_sealed: Graph, timings: dict, speedups: dict, reps: int
) -> None:
    """Worker warm-start cost: attach the shm graph vs. unpickle a copy.

    This is the per-worker startup the parallel runner pays once per
    process: the pickle path deserializes every CSR array into private
    memory, the shm path maps the published segment and builds lazy
    views.  Skipped (metrics absent) on platforms without shared memory.
    """
    import pickle

    from .. import shm as shm_mod
    from ..graph.compact import CompactGraph

    if not shm_mod.shm_supported():
        return
    blob = pickle.dumps(graph_sealed)
    timings["worker_unpickle_sealed"] = _median_time(
        lambda: pickle.loads(blob), max(reps, 3)
    )
    handle, ref = graph_sealed.to_shm()
    try:
        timings["worker_attach_shm"] = _median_time(
            lambda: CompactGraph.from_shm(ref), max(reps, 3)
        )
    finally:
        handle.release()
    speedups["shm_attach"] = round(
        timings["worker_unpickle_sealed"] / timings["worker_attach_shm"], 2
    )


def _bench_results_log(timings: dict, reps: int) -> None:
    """Per-record append cost of the results log (persistent handle).

    Guards the satellite fix for the open/close-per-record append path:
    the persistent handle must keep a no-fsync append safely under a
    millisecond — if a regression reintroduces per-record opens the
    metric blows past the noise floor and the baseline check catches it.
    """
    import tempfile

    from .results_log import ResultsLog
    from .runner import EvalRecord

    record = EvalRecord(
        technique="wj", query_name="bench", run=0,
        true_cardinality=1, estimate=1.0, elapsed=0.0, groups={},
    )
    appends = 200
    with tempfile.TemporaryDirectory() as tmp:
        log = ResultsLog(os.path.join(tmp, "bench.jsonl"))

        def burst() -> None:
            for _ in range(appends):
                log.append(record)

        try:
            timings["results_log_append"] = (
                _median_time(burst, max(reps, 2)) / appends
            )
        finally:
            log.close()
    # micro-bench assertion: one buffered append through the cached
    # handle is a write+flush; 1 ms of budget is ~100x headroom on any
    # non-pathological filesystem, while open-per-record busts it
    assert timings["results_log_append"] < 0.001, (
        "results-log append path regressed: "
        f"{timings['results_log_append'] * 1e6:.0f} us/append"
    )


def _bench_serve(
    timings: dict, speedups: dict, report: dict, quick: bool, seed: int
) -> None:
    """SLO metrics of the estimation service on the example graph.

    Two measurements against one running
    :class:`~repro.serve.service.EstimationService`:

    * **cold vs warm p50** — every distinct (technique, query, run) cell
      is requested once (cold: a worker pipe round-trip per request) and
      then again (warm: result-cache hits answered in the parent).  The
      warm path must be at least **5x** faster at the median — that gap
      *is* the cache's reason to exist, and the assertion keeps it from
      silently eroding;
    * **closed-loop load run** — the seeded ``gcare load`` schedule
      (4 clients) against the same service; p50/p95/p99 + throughput
      land in ``report["serve"]``, the numbers ``docs/serving.md``'s
      SLO methodology is anchored to.

    The example graph is deliberate: estimates answer in microseconds
    there, so these metrics isolate the *serving machinery* (dispatch,
    queueing, cache) rather than estimator cost.
    """
    from ..datasets.example import figure1_graph
    from ..obs.histogram import LatencyHistogram
    from ..serve import (
        EstimationService,
        LoadGenerator,
        ServiceConfig,
        example_workload,
        local_executor,
    )

    techniques = ("wj", "cset")
    workload_queries = example_workload()
    runs = 4 if quick else 10
    load_requests = 60 if quick else 200
    config = ServiceConfig(
        techniques=techniques,
        seed=seed,
        time_limit=10.0,
        workers=2,
        cache_entries=4096,
        cache_ttl=None,
    )
    with EstimationService(figure1_graph(), config) as service:
        cells = [
            (technique, name, run)
            for technique in techniques
            for name in sorted(workload_queries)
            for run in range(runs)
        ]

        def measure(histogram: LatencyHistogram) -> None:
            for technique, name, run in cells:
                start = time.perf_counter()
                service.estimate(
                    technique, workload_queries[name], run=run, name=name
                )
                histogram.record(time.perf_counter() - start)

        cold = LatencyHistogram()
        measure(cold)  # first touch of every fingerprint: worker round-trips
        warm = LatencyHistogram()
        measure(warm)  # identical requests: parent-side cache hits
        timings["serve_cold_p50"] = cold.percentile(0.50)
        timings["serve_warm_p50"] = warm.percentile(0.50)
        speedups["serve_warm_cache"] = round(
            cold.percentile(0.50) / max(warm.percentile(0.50), 1e-9), 2
        )
        assert warm.percentile(0.50) * 5 <= cold.percentile(0.50), (
            "warm-cache p50 must be >= 5x faster than cold on the example "
            f"graph: cold {cold.percentile(0.50) * 1e6:.1f}us vs warm "
            f"{warm.percentile(0.50) * 1e6:.1f}us"
        )

        generator = LoadGenerator(
            workload_queries,
            techniques,
            requests=load_requests,
            clients=4,
            seed=seed,
        )
        result = generator.run(local_executor(service, workload_queries))
        summary = result.histogram.summary()
        timings["serve_load_p50"] = summary["p50_s"]
        report["serve"] = {
            "workload": "example",
            "techniques": list(techniques),
            "requests": result.requests,
            "clients": 4,
            "throughput_rps": round(result.throughput_rps, 1),
            "p50_s": summary["p50_s"],
            "p95_s": summary["p95_s"],
            "p99_s": summary["p99_s"],
            "cached": result.cached,
            "status_counts": {
                str(status): count
                for status, count in sorted(result.status_counts.items())
            },
            "cold_p50_s": cold.percentile(0.50),
            "warm_p50_s": warm.percentile(0.50),
        }


def _bench_warm_restart(
    graph_sealed: Graph, timings: dict, speedups: dict, quick: bool, seed: int
) -> None:
    """Warm restart (manifest reattach) versus cold boot of the service.

    A daemon with a ``state_dir`` disowns its shared-memory arenas at
    close and leaves a checksummed generation manifest behind; its
    successor reattaches the live arenas and skips the cold ``prepare``
    entirely.  This measures both boot paths on the AIDS-like graph with
    the two most prepare-heavy always-available techniques (``cset``,
    ``sumrdf``) — the workload warm restart exists for — and asserts the
    warm path is at least **5x** faster in full mode (quick mode only
    records; a single sample on a loaded CI box is too noisy to gate).

    Skipped entirely when shared memory is unsupported: without arenas
    there is nothing to hand off and every boot is cold by construction.
    """
    import shutil
    import tempfile

    from .. import shm as shm_mod
    from ..serve import EstimationService, ServiceConfig, discard_state

    if not shm_mod.shm_supported():  # pragma: no cover - exotic platform
        return
    reps = 1 if quick else 3
    state_dir = tempfile.mkdtemp(prefix="gcare-bench-state-")
    # one worker: the fork + ready handshake is identical on both paths,
    # so keeping it minimal isolates the cost warm restart removes (the
    # parent-side prepare + publish) instead of diluting it
    config = ServiceConfig(
        techniques=("cset", "sumrdf"),
        seed=seed,
        time_limit=30.0,
        workers=1,
        state_dir=state_dir,
        watchdog_interval=0.0,
    )
    cold_samples: List[float] = []
    warm_samples: List[float] = []
    try:
        for _ in range(reps):
            discard_state(state_dir)  # no manifest: forces the cold path
            start = time.perf_counter()
            service = EstimationService(graph_sealed, config).start()
            cold_samples.append(time.perf_counter() - start)
            counters = service.stats()["counters"]
            assert counters.get("serve.cold_starts") == 1, (
                "expected a cold boot after discard_state"
            )
            service.close()  # disowns the arenas + refreshes the manifest
            start = time.perf_counter()
            service = EstimationService(graph_sealed, config).start()
            warm_samples.append(time.perf_counter() - start)
            counters = service.stats()["counters"]
            assert counters.get("serve.warm_restarts") == 1, (
                "expected a warm reattach of the disowned generation"
            )
            service.close()
    finally:
        discard_state(state_dir)
        shutil.rmtree(state_dir, ignore_errors=True)
    cold = statistics.median(cold_samples)
    warm = statistics.median(warm_samples)
    timings["serve_cold_boot"] = cold
    timings["serve_warm_boot"] = warm
    speedups["warm_restart"] = round(cold / max(warm, 1e-9), 2)
    if not quick:
        assert warm * 5 <= cold, (
            "warm restart must reattach at least 5x faster than a cold "
            f"boot: cold {cold * 1e3:.1f}ms vs warm {warm * 1e3:.1f}ms"
        )


def _bench_incremental(
    timings: dict, speedups: dict, quick: bool, seed: int
) -> None:
    """Absorbing a delta batch: incremental path versus cold rebuild.

    The incremental-graph subsystem's headline claim.  Both paths start
    from identical state — a sealed graph with prepared ``cset`` and
    ``sumrdf`` summaries (the two prepare-heaviest always-available
    techniques, both of which maintain their summaries in place) — and
    absorb the same seeded 32-delta batch:

    * **cold** re-seals the mutated dict graph from scratch and
      re-prepares every summary — the only option before the mutation
      journal existed, and still the fallback for techniques without an
      ``update_summary`` hook;
    * **incremental** patches the CSR arenas (``reseal``, amortized
      O(delta)) and repairs each summary through
      ``Estimator.apply_deltas``.

    The graph is a ~10x ``aids`` generation so the cold path's O(V+E)
    work dwarfs fixed overheads; on it the incremental path must win by
    at least **10x** (asserted in full mode; quick runs use a smaller
    generation and only record).  Differential tests in
    ``tests/test_incremental.py`` prove the two paths produce
    bit-identical sealed graphs and estimates — this benchmark is purely
    about the time the journal saves.
    """
    from .stream import MutationStream

    techniques = ("cset", "sumrdf")
    num_graphs = 600 if quick else 3000
    reps = 1 if quick else 3
    batch_size = 32

    dataset = load_dataset(
        "aids", seed=seed, num_graphs=num_graphs, seal=False
    )
    stream = MutationStream(dataset.graph, seed=seed)
    sealed = stream.twin.seal()
    estimators = {}
    for name in techniques:
        estimator = create_estimator(
            name, sealed, **_TECH_KWARGS.get(name, {})
        )
        estimator.prepare()
        estimators[name] = estimator

    cold_samples: List[float] = []
    incremental_samples: List[float] = []
    for _ in range(reps):
        deltas = stream.next_batch(batch_size)
        # cold: rebuild the sealed substrate + every summary from scratch
        start = time.perf_counter()
        cold_sealed = stream.twin.seal()
        for name in techniques:
            fresh = create_estimator(
                name, cold_sealed, **_TECH_KWARGS.get(name, {})
            )
            fresh.prepare()
        cold_samples.append(time.perf_counter() - start)
        # incremental: patch the arenas + repair the summaries in place
        start = time.perf_counter()
        sealed = sealed.reseal(deltas)
        for estimator in estimators.values():
            mode = estimator.apply_deltas(sealed, deltas)
            assert mode == "incremental", (
                f"{estimator.name} fell back to a re-prepare; the metric "
                "would measure the wrong path"
            )
        incremental_samples.append(time.perf_counter() - start)

    cold = statistics.median(cold_samples)
    incremental = statistics.median(incremental_samples)
    timings["update_cold_rebuild"] = cold
    timings["update_incremental"] = incremental
    speedups["incremental_update"] = round(cold / max(incremental, 1e-9), 2)
    if not quick:
        assert incremental * 10 <= cold, (
            "incremental update must absorb a delta batch at least 10x "
            f"faster than a cold rebuild: cold {cold * 1e3:.1f}ms vs "
            f"incremental {incremental * 1e3:.1f}ms"
        )


def _bench_parallel_sweep(
    seed: int, timings: dict, speedups: dict, report: dict
) -> None:
    """End-to-end ``--workers 4`` sweep: wall clock + peak worker RSS.

    Each mode (shm on / off) runs in a fresh subprocess so
    ``RUSAGE_CHILDREN``'s high-water mark is per-mode instead of
    cumulative across the suite.  Workers use the ``spawn`` start method
    — under ``fork`` the pickle path inherits the parent's graph pages
    copy-on-write, which hides exactly the per-worker copy this metric
    exists to measure — and the graph is a ~10x ``aids`` generation so
    the copied pages dominate interpreter baseline RSS.  The query set
    is the standard small-graph workload: the label universe is shared,
    and a perf sweep only needs estimates, not true cardinalities, so
    re-deriving a workload against the large graph would waste minutes
    of exact counting for identical measurements.  Full mode only —
    spawning eight worker processes is not smoke-test material.
    """
    import json as _json
    import subprocess
    import sys

    script = r"""
import json, resource, sys, time
sys.path[:0] = {path!r}
from repro.bench.parallel import ParallelEvaluationRunner
from repro.bench.workloads import workload
from repro.datasets import load_dataset

use_shm = sys.argv[1] == "shm"
graph = load_dataset("aids", seed={seed}, num_graphs=3000).graph.seal()
queries = list(workload("aids", dataset_seed={seed}))
runner = ParallelEvaluationRunner(
    graph, ("cset", "wj", "cs"), seed=7, time_limit=30.0,
    workers=4, use_shm=use_shm, start_method="spawn",
)
start = time.perf_counter()
runner.run(queries, runs=2)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({{"wall_s": wall, "peak_worker_rss_kb": peak}}))
"""
    results = {}
    for mode in ("pickle", "shm"):
        proc = subprocess.run(
            [sys.executable, "-c", script.format(path=sys.path, seed=seed),
             mode],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:  # pragma: no cover - bench robustness
            return  # leave the metrics absent rather than fail the suite
        results[mode] = _json.loads(proc.stdout.strip().splitlines()[-1])
    timings["sweep_w4_pickle"] = results["pickle"]["wall_s"]
    timings["sweep_w4_shm"] = results["shm"]["wall_s"]
    report["sweep_w4"] = {
        "workers": 4,
        "peak_worker_rss_kb_pickle": results["pickle"]["peak_worker_rss_kb"],
        "peak_worker_rss_kb_shm": results["shm"]["peak_worker_rss_kb"],
    }
    pickle_rss = results["pickle"]["peak_worker_rss_kb"]
    shm_rss = results["shm"]["peak_worker_rss_kb"]
    if shm_rss:
        speedups["sweep_rss_shrink"] = round(pickle_rss / shm_rss, 2)


def check_regression(
    current: dict, baseline: dict, factor: float = 3.0
) -> List[str]:
    """Compare ``current`` timings against a baseline report.

    Returns human-readable failure strings for every metric that got more
    than ``factor`` times slower than the baseline.  Metrics present in
    only one report are skipped (schema growth is not a regression), as
    are metrics still under a 1 ms noise floor — no-op prepares measure
    in microseconds, where timer jitter alone exceeds any ratio.
    """
    failures: List[str] = []
    base = baseline.get("timings_s", {})
    cur = current.get("timings_s", {})
    for metric, base_value in sorted(base.items()):
        value = cur.get(metric)
        if value is None or base_value <= 0:
            continue
        if value < 0.001:
            continue
        if value > base_value * factor:
            failures.append(
                f"{metric}: {value:.6f}s vs baseline {base_value:.6f}s "
                f"(> {factor:.1f}x slower)"
            )
    return failures


def compare_reports(
    current: dict,
    baseline: dict,
    tolerance: float = 0.20,
    noise_floor: float = 0.001,
) -> List[dict]:
    """Per-metric comparison rows between two benchmark reports.

    Each row is ``{metric, baseline_s, current_s, ratio, status}`` where
    ``ratio`` is current/baseline (< 1 means faster) and ``status`` is
    one of ``"faster"``, ``"ok"`` (within ``tolerance``), ``"noise"``
    (both sides under ``noise_floor``, where timer jitter dominates any
    ratio), or ``"regression"``.  Metrics present in only one report are
    skipped — schema growth is not a regression.
    """
    rows: List[dict] = []
    base = baseline.get("timings_s", {})
    cur = current.get("timings_s", {})
    for metric in sorted(set(base) & set(cur)):
        base_value = base[metric]
        value = cur[metric]
        if base_value <= 0 or value <= 0:
            continue
        ratio = value / base_value
        if value < noise_floor and base_value < noise_floor:
            status = "noise"
        elif ratio <= 1.0:
            status = "faster"
        elif ratio <= 1.0 + tolerance:
            status = "ok"
        else:
            status = "regression"
        rows.append(
            {
                "metric": metric,
                "baseline_s": base_value,
                "current_s": value,
                "ratio": ratio,
                "status": status,
            }
        )
    return rows


def format_comparison(rows: Sequence[dict], tolerance: float = 0.20) -> str:
    """Render :func:`compare_reports` rows as an aligned text table."""
    header = ("metric", "baseline", "current", "change", "status")
    table: List[tuple] = [header]
    for row in rows:
        ratio = row["ratio"]
        change = (
            f"{1.0 / ratio:.2f}x faster" if ratio <= 1.0
            else f"{ratio:.2f}x slower"
        )
        table.append(
            (
                row["metric"],
                f"{row['baseline_s'] * 1000.0:.3f} ms",
                f"{row['current_s'] * 1000.0:.3f} ms",
                change,
                row["status"].upper() if row["status"] == "regression"
                else row["status"],
            )
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            .rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    regressions = sum(1 for r in rows if r["status"] == "regression")
    lines.append(
        f"{len(rows)} shared metric(s); {regressions} regression(s) past "
        f"{tolerance:.0%} tolerance"
    )
    return "\n".join(lines)


def format_report(report: dict) -> str:
    """Short human-readable summary of a benchmark report."""
    lines = [
        f"gcare perf bench (schema v{report['meta']['schema_version']}, "
        f"quick={report['meta']['quick']})",
        f"graph: |V|={report['graph']['num_vertices']} "
        f"|E|={report['graph']['num_edges']} "
        f"deep_sizeof shrink {report['graph']['shrink_factor']}x",
    ]
    for key, value in sorted(report["speedups"].items()):
        lines.append(f"speedup {key}: {value}x sealed vs dict")
    slowest = sorted(
        report["timings_s"].items(), key=lambda kv: kv[1], reverse=True
    )[:5]
    for metric, value in slowest:
        lines.append(f"{metric}: {value * 1000.0:.2f} ms")
    return "\n".join(lines)


def save_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
