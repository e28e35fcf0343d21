"""The incremental-graph subsystem's differential contract.

Everything here enforces one invariant from three angles: **the delta
path is indistinguishable from the batch path**.

* ``CompactGraph.reseal(deltas)`` must produce a graph bit-identical to
  sealing the mutated source from scratch — same accessor stream, same
  fingerprint, same generation — whether it patched rows in place or
  fell back to a compacting rebuild.
* ``Estimator.apply_deltas`` must leave every technique producing
  estimates bit-identical to a cold prepare on the post-delta graph —
  for the maintained summaries (the ``update_summary`` hook), for the
  re-prepare fallback, for summaries hydrated from exported blobs, and
  on every kernel backend the host can dispatch.
* The serving layer's delta swap must answer every subsequent request
  exactly as a fresh service booted on the post-delta graph would,
  through worker deaths and journal replays included.

A torn journal — a slice that does not apply cleanly — must be rejected
atomically: :class:`~repro.graph.delta.DeltaError` with nothing
partially applied to any published structure.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.summary_cache import graph_fingerprint
from repro.core.registry import ALL_TECHNIQUES, EXTENSIONS, create_estimator
from repro.graph.compact import CompactGraph
from repro.graph.delta import (
    Delta,
    DeltaError,
    DeltaSummary,
    deltas_from_payload,
    deltas_to_payload,
    touched_labels,
)
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph
from repro.kernels import force_backend

TECHNIQUES = tuple(ALL_TECHNIQUES) + tuple(EXTENSIONS)

#: per-technique constructor overrides (mirrors the bench harness: the
#: sampling techniques keep their paper ratios, everything is seeded)
TECH_KWARGS = {
    name: {"sampling_ratio": 0.5, "time_limit": 30.0, "seed": 7}
    for name in TECHNIQUES
}


# ---------------------------------------------------------------------------
# shared generators: a seeded graph, a seeded mutation batch, small queries
# ---------------------------------------------------------------------------
def random_graph(seed: int, n: int = 60, m: int = 160) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    for _ in range(n):
        graph.add_vertex(rng.sample(range(4), rng.randint(1, 2)))
    added = 0
    while added < m:
        if graph.add_edge(rng.randrange(n), rng.randrange(n), rng.randrange(5)):
            added += 1
    return graph


def mutate(graph: Graph, seed: int, k: int = 24):
    """Journal ``k`` mixed mutations into ``graph``; return the slice.

    Covers every delta kind: edge adds (including a label the base graph
    never saw), edge removes, new vertices with incident edges, and a
    vertex-label attachment.
    """
    rng = random.Random(seed + 999)
    graph.enable_journal()
    base = graph.generation
    n = graph.num_vertices
    done = 0
    while done < k - 4:
        if rng.random() < 0.55:
            if graph.add_edge(
                rng.randrange(n), rng.randrange(n), rng.randrange(6)
            ):
                done += 1
        else:
            edges = list(graph.edges())
            if not edges:
                continue
            src, dst, label = edges[rng.randrange(len(edges))]
            if graph.remove_edge(src, dst, label):
                done += 1
    v1 = graph.add_vertex([4])
    v2 = graph.add_vertex([0, 4])
    graph.add_edge(v1, rng.randrange(n), 1)
    graph.add_edge(rng.randrange(n), v2, 0)
    graph.add_vertex_label(rng.randrange(n), 5)
    return graph.deltas_since(base)


QUERIES = (
    # 3-path with a labelled middle vertex
    QueryGraph(
        [frozenset(), frozenset({1}), frozenset()], [(0, 1, 0), (1, 2, 1)]
    ),
    # out-star anchored on a labelled center
    QueryGraph(
        [frozenset({0}), frozenset(), frozenset()], [(0, 1, 2), (0, 2, 0)]
    ),
    # triangle
    QueryGraph(
        [frozenset(), frozenset(), frozenset()],
        [(0, 1, 0), (1, 2, 1), (2, 0, 2)],
    ),
)


#: SumRDF's differential checks add a query with a cut set of two
#: vertices (an antiparallel pair and a self loop): its cut enumeration
#: follows the summary adjacency lists that maintenance permutes
CUT_QUERY = QueryGraph(
    [frozenset(), frozenset(), frozenset()],
    [(0, 1, 0), (1, 0, 1), (1, 2, 2), (2, 2, 0)],
)


def graph_stream(graph):
    """The canonical accessor stream two equal graphs must share."""
    return (
        graph.num_vertices,
        graph.num_edges,
        [frozenset(graph.vertex_labels(v)) for v in graph.vertices()],
        sorted(graph.edges()),
        graph.generation,
    )


def estimates(estimator, queries=None):
    if queries is None:
        extra = (CUT_QUERY,) if estimator.name == "sumrdf" else ()
        queries = QUERIES + extra
    out = []
    for query in queries:
        result = estimator.estimate(query)
        out.append(
            (result.estimate, result.num_subqueries, result.num_substructures)
        )
    return out


def base_and_delta(seed: int, k: int = 24):
    """A sealed base, its mutated twin's fresh seal, and the slice."""
    base = random_graph(seed).seal()
    twin = random_graph(seed)
    deltas = mutate(twin, seed, k)
    return base, twin.seal(), deltas


# ---------------------------------------------------------------------------
# the mutation journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_generation_counts_every_effective_mutation(self):
        graph = Graph()
        v0 = graph.add_vertex([0])
        v1 = graph.add_vertex([1])
        assert graph.generation == 2
        assert graph.add_edge(v0, v1, 5)
        assert graph.generation == 3
        # non-effective mutations neither count nor journal
        assert not graph.add_edge(v0, v1, 5)
        assert graph.generation == 3
        assert not graph.remove_edge(v1, v0, 5)
        assert graph.generation == 3

    def test_journal_slice_replays_to_identical_content(self):
        twin = random_graph(3)
        deltas = mutate(twin, 3)
        replica = random_graph(3)
        base_generation = replica.generation
        assert replica.apply(deltas) == len(deltas)
        assert replica.generation == base_generation + len(deltas)
        assert graph_stream(replica) == graph_stream(twin)

    def test_journal_records_every_delta_kind(self):
        twin = random_graph(5)
        deltas = mutate(twin, 5)
        kinds = {delta.op for delta in deltas}
        assert kinds == {
            "add_edge", "remove_edge", "add_vertex", "add_vertex_label",
        }

    def test_deltas_since_rejects_uncovered_generations(self):
        graph = random_graph(1)
        graph.enable_journal()
        with pytest.raises(ValueError):
            graph.deltas_since(graph.generation + 1)
        with pytest.raises(ValueError):
            graph.deltas_since(-1)

    def test_wire_round_trip_is_lossless(self):
        twin = random_graph(2)
        deltas = mutate(twin, 2)
        assert deltas_from_payload(deltas_to_payload(deltas)) == deltas

    @pytest.mark.parametrize(
        "payload",
        [
            "not a list",
            [["frobnicate", 1, 2, 3]],
            [["add_edge", 1]],
            [["add_edge", 1, 2, "x"]],
            [["add_vertex", 1, 2]],
            [[]],
            [42],
        ],
    )
    def test_torn_wire_payloads_raise(self, payload):
        with pytest.raises(DeltaError):
            deltas_from_payload(payload)

    def test_replaying_ineffective_record_raises(self):
        graph = random_graph(1)
        src, dst, label = next(iter(graph.edges()))
        with pytest.raises(DeltaError):
            Delta(op="add_edge", src=src, dst=dst, label=label).apply_to(graph)
        with pytest.raises(DeltaError):
            Delta(op="remove_edge", src=0, dst=0, label=999983).apply_to(graph)

    def test_vertex_id_mismatch_flags_wrong_base(self):
        graph = random_graph(1)
        with pytest.raises(DeltaError):
            # journal recorded id 999 — this graph would assign a lower id
            Delta(op="add_vertex", src=999, labels=(0,)).apply_to(graph)

    def test_touched_labels_cover_the_slice_scope(self):
        twin = random_graph(4)
        deltas = mutate(twin, 4)
        edge_labels, vertex_labels = touched_labels(deltas)
        assert 5 in vertex_labels  # the attached label
        assert {4, 0} <= vertex_labels  # the new vertices' labels
        assert edge_labels  # edge churn happened

    def test_delta_summary_rewinds_to_pre_slice_state(self):
        before = random_graph(6)
        twin = random_graph(6)
        deltas = mutate(twin, 6)
        sealed = twin.seal()
        summary = DeltaSummary(deltas, sealed.num_vertices)
        assert summary.old_num_vertices == before.num_vertices
        for v in summary.touched_vertices():
            assert not summary.is_new(v)
            expected_out = {}
            for _, _, label in (
                (v, dst, lab) for src, dst, lab in before.edges() if src == v
            ):
                expected_out[label] = expected_out.get(label, 0) + 1
            assert summary.old_out_counts(v, sealed) == expected_out
            assert summary.old_vertex_labels(
                v, frozenset(sealed.vertex_labels(v))
            ) == frozenset(before.vertex_labels(v))


# ---------------------------------------------------------------------------
# O(delta) reseal: bit-identical to a fresh seal
# ---------------------------------------------------------------------------
class TestReseal:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_patched_reseal_matches_fresh_seal(self, seed):
        base, cold, deltas = base_and_delta(seed)
        patched = base.reseal(deltas, max_patch_fraction=1.0)
        assert patched.is_patched
        assert patched.last_reseal["mode"] == "patched"
        assert graph_stream(patched) == graph_stream(cold)
        assert graph_fingerprint(patched) == graph_fingerprint(cold)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_compacting_fallback_matches_fresh_seal(self, seed):
        base, cold, deltas = base_and_delta(seed)
        compacted = base.reseal(deltas, max_patch_fraction=0.0)
        assert compacted.last_reseal["mode"] == "compacted"
        assert graph_stream(compacted) == graph_stream(cold)
        assert graph_fingerprint(compacted) == graph_fingerprint(cold)

    def test_chained_reseals_accumulate_generations(self):
        base = random_graph(7).seal()
        twin = random_graph(7)
        first = mutate(twin, 7)
        second = mutate(twin, 7 * 17)
        stepped = base.reseal(first, max_patch_fraction=1.0).reseal(
            second, max_patch_fraction=1.0
        )
        assert graph_stream(stepped) == graph_stream(twin.seal())

    def test_base_generation_stays_queryable_after_reseal(self):
        base, _, deltas = base_and_delta(8)
        before = graph_stream(base)
        base.reseal(deltas, max_patch_fraction=1.0)
        assert graph_stream(base) == before

    @pytest.mark.parametrize(
        "deltas",
        [
            # duplicate add of whatever edge exists is built per-case below
            "duplicate_add",
            "phantom_remove",
            "vertex_id_mismatch",
            "label_on_missing_vertex",
            "label_already_attached",
            "edge_out_of_range",
        ],
    )
    def test_torn_slice_rejected_atomically(self, deltas):
        base = random_graph(9).seal()
        src, dst, label = sorted(base.edges())[0]
        vlabel = next(iter(base.vertex_labels(0)))
        cases = {
            "duplicate_add": [Delta("add_edge", src, dst, label)],
            "phantom_remove": [Delta("remove_edge", 0, 0, 999983)],
            "vertex_id_mismatch": [Delta("add_vertex", src=999, labels=(0,))],
            "label_on_missing_vertex": [
                Delta("add_vertex_label", src=10_000, label=0)
            ],
            "label_already_attached": [
                Delta("add_vertex_label", src=0, label=vlabel)
            ],
            "edge_out_of_range": [Delta("add_edge", 10_000, 0, 0)],
        }
        before = graph_stream(base)
        with pytest.raises(DeltaError):
            base.reseal(cases[deltas], max_patch_fraction=1.0)
        # atomicity: the failed slice left the base untouched
        assert graph_stream(base) == before


# ---------------------------------------------------------------------------
# summary maintenance: every technique, incremental == cold prepare
# ---------------------------------------------------------------------------
def differential_check(name, seed=1, backend=None):
    """incremental-after-deltas estimates == cold-prepare estimates."""
    base, cold_graph, deltas = base_and_delta(seed)
    patched = base.reseal(deltas, max_patch_fraction=1.0)

    def run():
        incremental = create_estimator(name, base, **TECH_KWARGS[name])
        incremental.prepare()
        mode = incremental.apply_deltas(patched, deltas)
        cold = create_estimator(name, cold_graph, **TECH_KWARGS[name])
        cold.prepare()
        return mode, estimates(incremental), estimates(cold)

    if backend is None:
        return run()
    with force_backend(backend):
        return run()


class TestSummaryDifferential:
    @pytest.mark.parametrize("name", TECHNIQUES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_incremental_matches_cold_prepare(self, name, seed):
        mode, incremental, cold = differential_check(name, seed)
        expected = (
            "incremental"
            if create_estimator(
                name, random_graph(1).seal(), **TECH_KWARGS[name]
            ).supports_incremental_update
            else "reprepare"
        )
        assert mode == expected
        assert incremental == cold

    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param("c", marks=pytest.mark.needs_native),
        ],
    )
    @pytest.mark.parametrize("name", ["cset", "sumrdf", "wj"])
    def test_differential_holds_on_every_kernel_backend(self, backend, name):
        mode, incremental, cold = differential_check(name, backend=backend)
        assert incremental == cold

    @pytest.mark.parametrize("size_threshold", [0.7, 0.9])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_sumrdf_cut_enumeration_is_order_independent(
        self, seed, size_threshold
    ):
        """Finer summaries: several buckets, whose maintained adjacency
        lists differ in order from the cold build's (at seed 5 / 0.7 a
        float sum in enumeration order already differs in the last bit)."""
        base, cold_graph, deltas = base_and_delta(seed)
        patched = base.reseal(deltas, max_patch_fraction=1.0)
        kwargs = dict(TECH_KWARGS["sumrdf"], size_threshold=size_threshold)
        incremental = create_estimator("sumrdf", base, **kwargs)
        incremental.prepare()
        assert incremental.apply_deltas(patched, deltas) == "incremental"
        cold = create_estimator("sumrdf", cold_graph, **kwargs)
        cold.prepare()
        assert incremental.summary.num_buckets > 1
        result = estimates(incremental)
        assert result == estimates(cold)
        assert result[-1][2] > 1  # CUT_QUERY: many cut assignments

    @pytest.mark.parametrize("name", ["cset", "sumrdf", "jsub"])
    def test_chained_batches_stay_incremental(self, name):
        base = random_graph(3).seal()
        twin = random_graph(3)
        first = mutate(twin, 3)
        g1 = base.reseal(first, max_patch_fraction=1.0)
        second = mutate(twin, 3 * 17)
        g2 = g1.reseal(second, max_patch_fraction=1.0)
        estimator = create_estimator(name, base, **TECH_KWARGS[name])
        estimator.prepare()
        assert estimator.apply_deltas(g1, first) == "incremental"
        assert estimator.apply_deltas(g2, second) == "incremental"
        assert estimator._summary_generation == g2.generation
        cold = create_estimator(name, twin.seal(), **TECH_KWARGS[name])
        cold.prepare()
        assert estimates(estimator) == estimates(cold)

    def test_non_contiguous_slice_falls_back_to_reprepare(self):
        base = random_graph(4).seal()
        twin = random_graph(4)
        skipped = mutate(twin, 4)
        second = mutate(twin, 4 * 17)
        advanced = base.reseal(skipped, max_patch_fraction=1.0).reseal(
            second, max_patch_fraction=1.0
        )
        estimator = create_estimator("cset", base, **TECH_KWARGS["cset"])
        estimator.prepare()
        # the estimator never saw `skipped`: generations cannot line up
        assert estimator.apply_deltas(advanced, second) == "reprepare"
        assert not estimator.prepared
        cold = create_estimator("cset", twin.seal(), **TECH_KWARGS["cset"])
        cold.prepare()
        # estimate() cold-prepares on demand and still agrees
        assert estimates(estimator) == estimates(cold)

    def test_unprepared_estimator_takes_the_reprepare_path(self):
        base, cold_graph, deltas = base_and_delta(5)
        patched = base.reseal(deltas, max_patch_fraction=1.0)
        estimator = create_estimator("cset", base, **TECH_KWARGS["cset"])
        assert estimator.apply_deltas(patched, deltas) == "reprepare"

    def test_update_modes_reach_the_trace_counters(self):
        from repro.obs.trace import TraceCollector

        base, _, deltas = base_and_delta(6)
        patched = base.reseal(deltas, max_patch_fraction=1.0)
        estimator = create_estimator("cset", base, **TECH_KWARGS["cset"])
        estimator.obs = TraceCollector()
        estimator.prepare()
        estimator.apply_deltas(patched, deltas)
        assert estimator.obs.counters["summary.update.incremental"] == 1


# ---------------------------------------------------------------------------
# hydrated summaries: blobs carry the generation stamp, not the levels
# ---------------------------------------------------------------------------
class TestHydratedUpdate:
    @pytest.mark.parametrize("name", ["cset", "sumrdf"])
    def test_hydrated_estimator_takes_the_incremental_path(self, name):
        base, cold_graph, deltas = base_and_delta(1)
        patched = base.reseal(deltas, max_patch_fraction=1.0)
        donor = create_estimator(name, base, **TECH_KWARGS[name])
        donor.prepare()
        blob = donor.export_summary()
        hydrated = create_estimator(name, base, **TECH_KWARGS[name])
        hydrated.import_summary(blob)
        assert hydrated._summary_generation == base.generation
        assert hydrated.apply_deltas(patched, deltas) == "incremental"
        cold = create_estimator(name, cold_graph, **TECH_KWARGS[name])
        cold.prepare()
        assert estimates(hydrated) == estimates(cold)

    def test_sumrdf_blob_never_carries_level_states(self):
        base = random_graph(2).seal()
        donor = create_estimator("sumrdf", base, **TECH_KWARGS["sumrdf"])
        donor.prepare()
        assert donor._levels  # the donor itself maintains them
        blob = donor.export_summary()
        hydrated = create_estimator("sumrdf", base, **TECH_KWARGS["sumrdf"])
        hydrated.import_summary(blob)
        assert hydrated._levels == []
        # and the exclusion is what keeps hydration cheap: a blob with
        # levels would be an order of magnitude larger
        assert len(blob) < 100_000

    def test_sumrdf_lazy_rebuild_restores_maintenance(self):
        base, cold_graph, deltas = base_and_delta(3)
        patched = base.reseal(deltas, max_patch_fraction=1.0)
        donor = create_estimator("sumrdf", base, **TECH_KWARGS["sumrdf"])
        donor.prepare()
        hydrated = create_estimator("sumrdf", base, **TECH_KWARGS["sumrdf"])
        hydrated.import_summary(donor.export_summary())
        # first update rebuilds the level states from the post-delta graph
        assert hydrated.apply_deltas(patched, deltas) == "incremental"
        assert hydrated._levels
        cold = create_estimator("sumrdf", cold_graph, **TECH_KWARGS["sumrdf"])
        cold.prepare()
        assert estimates(hydrated) == estimates(cold)
        # ...and subsequent batches maintain those rebuilt states in place
        twin = random_graph(3)
        twin.apply(deltas)
        more = mutate(twin, 3 * 31)
        stepped = patched.reseal(more, max_patch_fraction=1.0)
        assert hydrated.apply_deltas(stepped, more) == "incremental"
        cold2 = create_estimator(
            "sumrdf", twin.seal(), **TECH_KWARGS["sumrdf"]
        )
        cold2.prepare()
        assert estimates(hydrated) == estimates(cold2)


# ---------------------------------------------------------------------------
# the shm-attached substrate behaves identically
# ---------------------------------------------------------------------------
class TestShmAttach:
    def test_differential_through_a_shared_memory_attach(self):
        base, cold_graph, deltas = base_and_delta(2)
        patched = base.reseal(deltas, max_patch_fraction=1.0)
        handle, ref = patched.to_shm()
        try:
            attached = CompactGraph.from_shm(ref)
            assert attached.generation == patched.generation
            assert graph_stream(attached) == graph_stream(cold_graph)
            for name in ("cset", "wj"):
                served = create_estimator(name, attached, **TECH_KWARGS[name])
                served.prepare()
                cold = create_estimator(
                    name, cold_graph, **TECH_KWARGS[name]
                )
                cold.prepare()
                assert estimates(served) == estimates(cold)
        finally:
            handle.release()
