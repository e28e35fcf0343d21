"""Service-level tests: the daemon's answers ARE the sweep's answers.

The contract that makes ``gcare serve`` trustworthy as a benchmark
artifact: an estimate served by the long-lived daemon is bit-identical
to the corresponding batch ``run_cell`` — same technique, same query,
same run index, same derived seed — on both kernel backends.  Plus the
result cache's observable semantics (hit payloads, TTL expiry, LRU
eviction order, generation fencing) and the HTTP protocol layer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import urllib.request

import pytest

from repro.bench.runner import NamedQuery, run_cell
from repro.core.registry import ALL_TECHNIQUES, available_techniques, create_estimator
from repro.datasets.example import figure1_graph, figure1_query
from repro.kernels import force_backend, native_available
from repro.serve import (
    EstimationService,
    ResultCache,
    ServeDaemon,
    ServiceConfig,
    protocol,
)

SEED = 11
SAMPLING_RATIO = 0.03
TIME_LIMIT = 10.0

BACKENDS = ["python", "c"]


@pytest.fixture(scope="module", params=BACKENDS)
def backend_service(request):
    """One running service per kernel backend, shared across the module.

    The worker pool forks while the backend is forced, so workers
    inherit the pinned dispatch; the in-test reference ``run_cell``
    calls execute under the same pin (the context stays entered for the
    fixture's whole lifetime).
    """
    backend = request.param
    if backend == "c" and not native_available():
        pytest.skip("c backend requires a working C toolchain")
    with force_backend(backend):
        graph = figure1_graph().seal()
        config = ServiceConfig(
            seed=SEED,
            sampling_ratio=SAMPLING_RATIO,
            time_limit=TIME_LIMIT,
            workers=2,
        )
        service = EstimationService(graph, config).start()
        try:
            yield backend, graph, service
        finally:
            service.close()


def reference_record(graph, technique: str, query, run: int):
    """The batch-sweep answer for one cell: a fresh estimator through
    ``run_cell`` under the service's exact parameters."""
    estimator = create_estimator(
        technique, graph,
        sampling_ratio=SAMPLING_RATIO, seed=SEED, time_limit=TIME_LIMIT,
    )
    estimator.prepare()
    return run_cell(
        technique, estimator, NamedQuery("ref", query, 0), run,
        base_seed=SEED, reseed=True,
    )


# ---------------------------------------------------------------------------
# the core contract: daemon == batch, bit for bit, per technique x backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
def test_service_estimate_matches_run_cell(backend_service, technique):
    _, graph, service = backend_service
    if technique not in service.techniques:
        pytest.skip(f"{technique} unavailable in this environment")
    query = figure1_query()
    for run in (0, 1, 3):
        response = service.estimate(technique, query, run=run)
        record = reference_record(graph, technique, query, run)
        if record.error is not None:
            assert response["status"] != protocol.STATUS_OK
            assert response["error"] == record.error or record.error in str(
                response["error"]
            )
            continue
        assert response["status"] == protocol.STATUS_OK, response["error"]
        # bit-identical, not approximately equal
        assert response["estimate"] == record.estimate
        from repro.bench.runner import derive_seed

        assert response["seed"] == derive_seed(SEED, run)
        assert response["run"] == run


def test_service_estimate_matches_run_cell_on_subqueries(backend_service):
    """The contract holds across query shapes, not just the triangle."""
    _, graph, service = backend_service
    triangle = figure1_query()
    from repro.graph.query import QueryGraph

    edge = QueryGraph(
        vertex_labels=[triangle.vertex_labels[0], triangle.vertex_labels[1]],
        edges=[(0, 1, triangle.edges[0][2])],
    )
    for query in (triangle, edge):
        for technique in ("cset", "wj", "impr"):
            response = service.estimate(technique, query, run=2)
            record = reference_record(graph, technique, query, 2)
            assert response["estimate"] == record.estimate


# ---------------------------------------------------------------------------
# result cache semantics through the service
# ---------------------------------------------------------------------------
def test_cache_hit_returns_identical_payload(backend_service):
    _, _, service = backend_service
    query = figure1_query()
    first = service.estimate("cset", query, run=7)
    assert first["status"] == protocol.STATUS_OK
    second = service.estimate("cset", query, run=7)
    assert second["cached"] is True
    # identical payload apart from the cached marker
    assert {k: v for k, v in first.items() if k != "cached"} == {
        k: v for k, v in second.items() if k != "cached"
    }


def test_unknown_technique_is_404(backend_service):
    _, _, service = backend_service
    response = service.estimate("nope", figure1_query())
    assert response["status"] == protocol.STATUS_UNKNOWN_TECHNIQUE
    assert "nope" in response["error"]
    assert response["estimate"] is None


# ---------------------------------------------------------------------------
# ResultCache: TTL + LRU with an injectable clock
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_cache_ttl_expiry_uses_injected_clock():
    clock = FakeClock()
    cache = ResultCache(max_entries=8, ttl=30.0, clock=clock)
    cache.put("fp1", {"estimate": 1.0}, generation=0)
    clock.advance(29.9)
    assert cache.get("fp1") == {"estimate": 1.0}
    clock.advance(0.2)  # past the TTL measured from the put
    assert cache.get("fp1") is None
    assert cache.expirations == 1
    # the expired slot is really gone, not shadow-resurrectable
    assert len(cache) == 0


def test_cache_ttl_none_never_expires():
    clock = FakeClock()
    cache = ResultCache(max_entries=8, ttl=None, clock=clock)
    cache.put("fp1", {"estimate": 1.0}, generation=0)
    clock.advance(1e9)
    assert cache.get("fp1") is not None


def test_cache_lru_eviction_order():
    clock = FakeClock()
    cache = ResultCache(max_entries=3, ttl=None, clock=clock)
    for name in ("a", "b", "c"):
        cache.put(name, {"v": name}, generation=0)
    assert cache.keys() == ["a", "b", "c"]
    # touching "a" refreshes its recency: "b" is now least recently used
    assert cache.get("a") is not None
    cache.put("d", {"v": "d"}, generation=0)
    assert cache.keys() == ["c", "a", "d"]
    assert cache.get("b") is None
    assert cache.evictions == 1
    # one more insert evicts "c" (the new LRU head), never "a" or "d"
    cache.put("e", {"v": "e"}, generation=0)
    assert cache.keys() == ["a", "d", "e"]


def test_cache_expired_get_does_not_refresh_recency():
    clock = FakeClock()
    cache = ResultCache(max_entries=2, ttl=10.0, clock=clock)
    cache.put("old", {"v": 1}, generation=0)
    clock.advance(11.0)
    assert cache.get("old") is None  # expired, dropped
    cache.put("x", {"v": 2}, generation=0)
    cache.put("y", {"v": 3}, generation=0)
    assert cache.keys() == ["x", "y"]


def test_cache_generation_fencing_drops_stale_puts():
    cache = ResultCache(max_entries=8, ttl=None)
    cache.clear(new_generation=2)
    assert cache.put("fp", {"v": 1}, generation=1) is False
    assert cache.get("fp") is None
    assert cache.put("fp", {"v": 2}, generation=2) is True
    assert cache.get("fp") == {"v": 2}


def test_cache_returns_copies_not_aliases():
    cache = ResultCache(max_entries=4, ttl=None)
    cache.put("fp", {"cached": False}, generation=0)
    hit = cache.get("fp")
    hit["cached"] = True  # response post-processing must not leak back
    assert cache.get("fp")["cached"] is False


# ---------------------------------------------------------------------------
# protocol layer
# ---------------------------------------------------------------------------
def test_query_payload_roundtrip():
    query = figure1_query()
    payload = protocol.query_to_payload(query)
    back = protocol.query_from_payload(payload)
    assert protocol.canonical_query(back) == protocol.canonical_query(query)


@pytest.mark.parametrize(
    "payload",
    [
        None,
        {},
        {"technique": "wj"},
        {"technique": "", "query": {"vertices": [], "edges": []}},
        {"technique": "wj", "query": "not-a-dict"},
        {"technique": "wj", "query": {"vertices": [[0]], "edges": []},
         "run": -1},
        {"technique": "wj", "query": {"vertices": [[0]], "edges": []},
         "run": True},
        {"technique": "wj", "query": {"vertices": [[0]], "edges": [[0]]}},
    ],
)
def test_parse_request_rejects_malformed(payload):
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_request(payload)


def test_fingerprint_distinguishes_inputs():
    query = figure1_query()
    base = protocol.query_fingerprint("wj", query, 1, 0.03, 10.0)
    assert protocol.query_fingerprint("cset", query, 1, 0.03, 10.0) != base
    assert protocol.query_fingerprint("wj", query, 2, 0.03, 10.0) != base
    assert protocol.query_fingerprint("wj", query, 1, 0.1, 10.0) != base
    # same inputs -> same fingerprint (it is the cache identity)
    assert protocol.query_fingerprint("wj", query, 1, 0.03, 10.0) == base


# ---------------------------------------------------------------------------
# HTTP daemon
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def running_daemon(service):
    """Boot a ServeDaemon on an ephemeral port in a background loop."""
    loop = asyncio.new_event_loop()
    daemon = ServeDaemon(service, port=0)
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert started.wait(10), "daemon failed to start"
    try:
        yield daemon
    finally:
        asyncio.run_coroutine_threadsafe(daemon.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return json.loads(reply.read().decode())
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read().decode())


def _get(url: str) -> dict:
    try:
        with urllib.request.urlopen(url, timeout=30) as reply:
            return json.loads(reply.read().decode())
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read().decode())


def test_daemon_estimate_matches_service(backend_service):
    _, graph, service = backend_service
    query = figure1_query()
    with running_daemon(service) as daemon:
        url = daemon.address
        body = {
            "technique": "cset",
            "query": protocol.query_to_payload(query),
            "run": 5,
        }
        http_response = _post(url + "/estimate", body)
        record = reference_record(graph, "cset", query, 5)
        assert http_response["status"] == protocol.STATUS_OK
        assert http_response["estimate"] == record.estimate

        stats = _get(url + "/stats")
        assert stats["generation"] >= 1
        assert "serve.requests" in stats["counters"]
        assert stats["cache"]["max_entries"] == service.cache.max_entries

        health = _get(url + "/healthz")
        assert health == {"status": 200, "ok": True}

        bad = _post(url + "/estimate", {"technique": "wj"})
        assert bad["status"] == protocol.STATUS_BAD_REQUEST

        missing = _get(url + "/nope")
        assert missing["status"] == 404


def test_service_stats_shape(backend_service):
    backend, _, service = backend_service
    service.estimate("cset", figure1_query())
    stats = service.stats()
    assert set(stats) >= {
        "generation", "workers", "techniques", "counters",
        "latency", "per_technique", "admission", "cache",
        "kernel_backend",
    }
    # the fixture pins the backend, so the reported one must match
    assert stats["kernel_backend"] == backend
    assert stats["counters"]["serve.requests"] >= 1
    assert stats["latency"]["count"] >= 1
    admission = stats["admission"]["cset"]
    assert admission["max_inflight"] == service.config.max_inflight
    assert admission["queue_depth"] == service.config.queue_depth


def test_available_techniques_are_served_by_default():
    config = ServiceConfig(workers=1)
    service = EstimationService(figure1_graph(), config)
    assert service.techniques == list(available_techniques())


# ---------------------------------------------------------------------------
# /metrics: flat-text exposition of the same state as /stats
# ---------------------------------------------------------------------------
def test_metrics_text_parses_and_agrees_with_stats(backend_service):
    from repro.kernels import BACKEND_CODES
    from repro.obs.metrics import parse_metrics

    backend, _, service = backend_service
    service.estimate("cset", figure1_query(), run=0)
    stats = service.stats()
    parsed = parse_metrics(service.metrics_text())
    assert parsed["gcare_generation"] == stats["generation"]
    assert parsed["gcare_workers"] == stats["workers"]
    assert (
        parsed[f'gcare_kernel_backend{{backend="{backend}"}}']
        == BACKEND_CODES[backend]
    )
    assert (
        parsed['gcare_counter{name="serve.requests"}']
        == stats["counters"]["serve.requests"]
    )
    assert parsed["gcare_cache_hits"] == stats["cache"]["hits"]
    # breaker gauges are numeric-coded states, one per technique
    for technique in service.techniques:
        key = f'gcare_breaker_state{{technique="{technique}"}}'
        assert parsed[key] in (0, 1, 2)
    # latency shows up as cumulative histogram buckets ending at +Inf
    assert 'gcare_request_latency_seconds_bucket{le="+Inf"}' in parsed


def test_daemon_metrics_endpoint_is_plain_text(backend_service):
    from repro.obs.metrics import parse_metrics

    _, _, service = backend_service
    with running_daemon(service) as daemon:
        with urllib.request.urlopen(
            daemon.address + "/metrics", timeout=30
        ) as reply:
            assert reply.status == 200
            assert reply.headers["Content-Type"].startswith("text/plain")
            parsed = parse_metrics(reply.read().decode())
    assert "gcare_generation" in parsed
    assert "gcare_uptime_seconds" in parsed


def test_load_generator_scrapes_metrics(backend_service):
    from repro.serve.loadgen import fetch_metrics

    _, _, service = backend_service
    with running_daemon(service) as daemon:
        parsed = fetch_metrics(daemon.address)
        assert parsed["gcare_generation"] >= 1
    # unreachable endpoints degrade to an empty dict, never an exception
    assert fetch_metrics("http://127.0.0.1:1") == {}


# ---------------------------------------------------------------------------
# client deadline propagation
# ---------------------------------------------------------------------------
def test_expired_deadline_is_a_fast_504(backend_service):
    _, _, service = backend_service
    # a deadline that has already passed at admission: rejected before
    # any worker is touched (run index keeps it out of the cache)
    response = service.estimate(
        "cset", figure1_query(), run=971, deadline_s=-0.001
    )
    assert response["status"] == protocol.STATUS_TIMEOUT
    assert "deadline" in response["error"]
    assert response["estimate"] is None
    assert service.stats()["counters"]["serve.deadline_rejected"] >= 1


def test_generous_deadline_serves_normally(backend_service):
    _, graph, service = backend_service
    response = service.estimate(
        "cset", figure1_query(), run=972, deadline_s=30.0
    )
    assert response["status"] == protocol.STATUS_OK
    record = reference_record(graph, "cset", figure1_query(), 972)
    assert response["estimate"] == record.estimate


def test_deadline_ms_over_http(backend_service):
    _, graph, service = backend_service
    query = figure1_query()
    with running_daemon(service) as daemon:
        url = daemon.address + "/estimate"
        ok = _post(url, {
            "technique": "cset",
            "query": protocol.query_to_payload(query),
            "run": 973,
            "deadline_ms": 30_000,
        })
        assert ok["status"] == protocol.STATUS_OK
        record = reference_record(graph, "cset", query, 973)
        assert ok["estimate"] == record.estimate
        bad = _post(url, {
            "technique": "cset",
            "query": protocol.query_to_payload(query),
            "deadline_ms": 0,
        })
        assert bad["status"] == protocol.STATUS_BAD_REQUEST
        assert bad["field"] == "deadline_ms"


# ---------------------------------------------------------------------------
# delta swaps: the journal path answers like a freshly booted service
# ---------------------------------------------------------------------------
DELTA_TECHNIQUES = ["cset", "jsub"]  # maintained summary + a delta-local one


def _delta_graph(seed: int = 21):
    import random

    rng = random.Random(seed)
    graph = figure1_graph()
    # grow the figure-1 example so delta batches have room to churn
    base = graph.num_vertices
    for _ in range(40):
        graph.add_vertex([rng.randrange(3)])
    for _ in range(120):
        graph.add_edge(
            rng.randrange(base + 40), rng.randrange(base + 40),
            rng.randrange(3),
        )
    return graph


def _delta_queries():
    return [
        QueryGraphForDeltas([frozenset(), frozenset()], [(0, 1, 0)]),
        QueryGraphForDeltas(
            [frozenset(), frozenset(), frozenset()], [(0, 1, 1), (1, 2, 2)]
        ),
    ]


from repro.graph.query import QueryGraph as QueryGraphForDeltas  # noqa: E402
from repro.bench.stream import MutationStream  # noqa: E402
from repro.graph.delta import Delta, DeltaError  # noqa: E402


@contextlib.contextmanager
def _delta_service(graph, **overrides):
    config = ServiceConfig(
        techniques=DELTA_TECHNIQUES,
        workers=overrides.pop("workers", 1),
        seed=SEED,
        sampling_ratio=0.5,
        time_limit=TIME_LIMIT,
        watchdog_interval=0,
        delta_compact_after=overrides.pop("delta_compact_after", 10_000),
        **overrides,
    )
    service = EstimationService(graph, config).start()
    try:
        yield service
    finally:
        service.close()


def _all_estimates(service, queries):
    return {
        (technique, index): service.estimate(technique, query)["estimate"]
        for technique in DELTA_TECHNIQUES
        for index, query in enumerate(queries)
    }


def test_swap_deltas_matches_cold_service_through_worker_death():
    graph = _delta_graph().seal()
    stream = MutationStream(graph, seed=13)
    queries = _delta_queries()
    with _delta_service(graph) as service:
        _all_estimates(service, queries)  # warm the cache pre-swap
        first = stream.next_batch(12)
        result = service.swap_deltas(first)
        assert result["mode"] == "delta"
        assert result["applied"] == len(first)
        assert result["journal_len"] == len(first)
        after_first = _all_estimates(service, queries)
        second = stream.next_batch(12)
        service.swap_deltas(second)
        # SIGKILL the only worker: the respawn must replay the
        # accumulated journal on the base arenas before answering
        service._workers[0].process.kill()
        service._workers[0].process.join()
        after_second = _all_estimates(service, queries)
        stats = service.stats()
        assert stats["graph_generation"] == stream.twin.generation
        assert stats["journal_len"] == len(first) + len(second)
        assert stats["counters"]["serve.delta_swaps"] == 2
    # ground truth for both intermediate states: cold services booted on
    # mutable replicas advanced to the same content
    replica = _delta_graph()
    replica.enable_journal()
    for delta in first:
        delta.apply_to(replica)
    with _delta_service(replica.seal()) as cold:
        assert _all_estimates(cold, queries) == after_first
    for delta in second:
        delta.apply_to(replica)
    with _delta_service(replica.seal()) as cold:
        assert _all_estimates(cold, queries) == after_second


def test_swap_deltas_rejects_torn_journal_atomically():
    graph = _delta_graph().seal()
    queries = _delta_queries()
    with _delta_service(graph) as service:
        before = _all_estimates(service, queries)
        generation = service.stats()["generation"]
        src, dst, label = sorted(graph.edges())[0]
        with pytest.raises(DeltaError):
            service.swap_deltas([Delta("add_edge", src, dst, label)])
        with pytest.raises(DeltaError):
            service.swap_deltas([Delta("remove_edge", 0, 0, 999983)])
        stats = service.stats()
        assert stats["generation"] == generation
        assert stats["counters"].get("serve.delta_swaps", 0) == 0
        assert _all_estimates(service, queries) == before


def test_swap_deltas_empty_batch_is_a_noop():
    graph = _delta_graph().seal()
    with _delta_service(graph) as service:
        generation = service.stats()["generation"]
        result = service.swap_deltas([])
        assert result["mode"] == "noop"
        assert result["applied"] == 0
        assert service.stats()["generation"] == generation


def test_swap_deltas_compacts_past_the_journal_threshold():
    graph = _delta_graph().seal()
    stream = MutationStream(graph, seed=5)
    with _delta_service(graph, delta_compact_after=8) as service:
        result = service.swap_deltas(stream.next_batch(12))
        assert result["mode"] == "compacted"
        assert result["journal_len"] == 0
        assert service.stats()["journal_len"] == 0
        assert service.stats()["counters"]["serve.delta_compacts"] == 1
        # and the compacted generation still answers like a cold boot
        queries = _delta_queries()
        compacted = _all_estimates(service, queries)
    with _delta_service(stream.twin.seal()) as cold:
        assert _all_estimates(cold, queries) == compacted


def test_delta_swap_keeps_provably_unaffected_cache_entries():
    graph = _delta_graph().seal()
    queries = _delta_queries()
    with _delta_service(graph) as service:
        _all_estimates(service, queries)
        # a batch whose scope is a label no query uses: add a brand-new
        # vertex and wire it up under edge label 2 only
        new_id = graph.num_vertices
        deltas = [
            Delta("add_vertex", src=new_id, labels=(2,)),
            Delta("add_edge", src=new_id, dst=0, label=2),
        ]
        result = service.swap_deltas(deltas)
        # jsub is delta-local: its entry for the label-0 single-edge
        # query (disjoint from {2}) survives; cset's entries (not
        # delta-local) and jsub's label-{1,2} query are dropped
        assert result["cache_kept"] == 1
        assert result["cache_dropped"] == len(queries) * 2 - 1
        response = service.estimate("jsub", queries[0])
        assert response["cached"] is True
        # the survivor is still the right answer under the new graph
        replica = _delta_graph()
        replica.enable_journal()
        for delta in deltas:
            delta.apply_to(replica)
        with _delta_service(replica.seal()) as cold:
            assert (
                cold.estimate("jsub", queries[0])["estimate"]
                == response["estimate"]
            )


def test_daemon_swap_delta_mode_over_http(backend_service):
    _, _, service = backend_service
    with running_daemon(service) as daemon:
        url = daemon.address + "/swap"
        stream = MutationStream(service.graph, seed=9)
        batch = stream.next_batch(6)
        from repro.graph.delta import deltas_to_payload

        ok = _post(url, {"deltas": deltas_to_payload(batch)})
        assert ok["status"] == 200
        assert ok["applied"] == len(batch)
        assert ok["mode"] in ("delta", "compacted")
        # torn journals and malformed envelopes are 400s, never applied
        for payload in (
            {"deltas": [["frobnicate", 1, 2, 3]]},
            {"deltas": [["add_edge", 1]]},
            {"deltas": [["remove_edge", 0, 0, 999983]]},
            {"deltas": "nope"},
            {"graph": "/nonexistent", "deltas": []},
        ):
            rejected = _post(url, payload)
            assert rejected["status"] == 400, payload
            assert "error" in rejected
        # nothing after the good batch moved the generation
        stats = _get(daemon.address + "/stats")
        assert stats["graph_generation"] == stream.twin.generation


def test_metrics_expose_generation_gauges(backend_service):
    _, _, service = backend_service
    with running_daemon(service) as daemon:
        raw = urllib.request.urlopen(
            daemon.address + "/metrics", timeout=10
        ).read().decode()
    assert "gcare_graph_generation" in raw
    assert "gcare_journal_length" in raw


# ---------------------------------------------------------------------------
# ResultCache retargeting (the delta swap's cache semantics, in isolation)
# ---------------------------------------------------------------------------
def _scope(delta_local, edge_labels=(), vertex_labels=()):
    from repro.serve.cache import CacheScope

    return CacheScope(
        delta_local=delta_local,
        edge_labels=frozenset(edge_labels),
        vertex_labels=frozenset(vertex_labels),
    )


def test_retarget_keeps_only_delta_local_disjoint_entries():
    cache = ResultCache(max_entries=8, ttl=None)
    cache.put("disjoint", {"estimate": 1.0}, 0, scope=_scope(True, {0}, {5}))
    cache.put("edge-overlap", {"estimate": 2.0}, 0, scope=_scope(True, {3}))
    cache.put(
        "vertex-overlap", {"estimate": 3.0}, 0,
        scope=_scope(True, (), {7}),
    )
    cache.put("not-local", {"estimate": 4.0}, 0, scope=_scope(False, {0}))
    cache.put("unscoped", {"estimate": 5.0}, 0, scope=None)
    kept, dropped = cache.retarget(
        3, touched_edge_labels={3}, touched_vertex_labels={7}
    )
    assert (kept, dropped) == (1, 4)
    assert cache.keys() == ["disjoint"]
    assert cache.generation == 3
    # the survivor serves at the new generation...
    assert cache.get("disjoint") == {"estimate": 1.0}
    # ...and writes from the superseded generation are fenced off
    assert not cache.put("stale", {"estimate": 9.0}, 0)
    assert cache.put("fresh", {"estimate": 9.0}, 3)


def test_cache_scope_for_query_collects_label_sets():
    from repro.serve.cache import CacheScope

    query = QueryGraphForDeltas(
        [frozenset({4}), frozenset(), frozenset({6})], [(0, 1, 0), (1, 2, 2)]
    )
    scope = CacheScope.for_query(True, query)
    assert scope.edge_labels == {0, 2}
    assert scope.vertex_labels == {4, 6}
    assert scope.survives(frozenset({1}), frozenset({5}))
    assert not scope.survives(frozenset({0}), frozenset())
    assert not scope.survives(frozenset(), frozenset({4}))
    assert not CacheScope.for_query(False, query).survives(
        frozenset(), frozenset()
    )
