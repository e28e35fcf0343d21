"""Unit tests for SumRDF."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.example import figure1_graph, figure1_query
from repro.estimators.sumrdf import SumRDF, _cut_plan
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph
from repro.matching.homomorphism import count_embeddings
from repro.obs.trace import TraceCollector


def distinct_type_graph() -> Graph:
    """A graph where every vertex has a unique type (label set).

    Level-0 summarization then produces singleton buckets and SumRDF's
    estimate must equal the exact count.
    """
    graph = Graph()
    for i in range(6):
        graph.add_vertex((i,))
    for src, dst, label in (
        (0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1), (4, 0, 2), (5, 4, 0),
    ):
        graph.add_edge(src, dst, label)
    return graph


class TestSummarization:
    def test_singleton_buckets_for_distinct_types(self):
        est = SumRDF(distinct_type_graph(), size_threshold=1.0)
        est.prepare()
        assert est.summary.num_buckets == 6
        assert all(w == 1 for w in est.summary.weights)

    def test_same_type_vertices_merge(self, fig1_graph):
        est = SumRDF(fig1_graph, size_threshold=1.0)
        est.prepare()
        # v4 and v5 share type ({C}, out {c}, in {b}) and merge
        assert est.summary.num_buckets == 7

    def test_weights_count_members(self, fig1_graph):
        est = SumRDF(fig1_graph, size_threshold=1.0)
        est.prepare()
        assert sorted(est.summary.weights) == [1, 1, 1, 1, 1, 1, 2]
        assert sum(est.summary.weights) == fig1_graph.num_vertices

    def test_edge_weights_sum_to_edge_count(self, fig1_graph):
        est = SumRDF(fig1_graph, size_threshold=1.0)
        est.prepare()
        assert sum(est.summary.edge_weights.values()) == fig1_graph.num_edges

    def test_threshold_forces_coarsening(self, fig1_graph):
        est = SumRDF(fig1_graph, size_threshold=0.03)
        est.prepare()
        # 3% of 11 edges ~ 1 summary edge: must coarsen beyond level 0
        last = len(SumRDF.COARSENING_LEVELS) - 1
        assert est._coarsening_level > 0
        assert est.summary.num_edges <= max(
            1, int(0.03 * fig1_graph.num_edges)
        ) or est._coarsening_level == last

    def test_coarser_levels_shrink_summary(self, fig1_graph):
        est = SumRDF(fig1_graph)
        levels = range(len(SumRDF.COARSENING_LEVELS))
        sizes = [est._build_summary(level).num_buckets for level in levels]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        # the coarsest level merges all label sets (degree bands remain)
        assert sizes[-1] <= 4

    def test_effective_weight_filters_labels(self, fig1_graph):
        est = SumRDF(fig1_graph, size_threshold=1.0)
        est.prepare()
        summary = est.summary
        merged = summary.weights.index(2)  # the {v4, v5} bucket
        assert summary.effective_weight(merged, frozenset({2})) == 2  # C
        assert summary.effective_weight(merged, frozenset({0})) == 0
        assert summary.effective_weight(merged, frozenset()) == 2


class TestEstimates:
    def test_exact_with_singleton_buckets(self):
        graph = distinct_type_graph()
        est = SumRDF(graph, size_threshold=1.0)
        square = QueryGraph(
            [()] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1)]
        )
        truth = count_embeddings(graph, square).count
        assert truth >= 1
        assert est.estimate(square).estimate == pytest.approx(float(truth))

    def test_figure1_example_value(self, fig1_graph, fig1_query):
        """Hand-computed possible-world estimate for the level-0 summary."""
        est = SumRDF(fig1_graph, size_threshold=1.0)
        assert est.estimate(fig1_query).estimate == pytest.approx(2.0)

    def test_merging_unlabeled_edges_overestimates(self):
        """With no edge labels, merging buckets aggregates all edge weights
        — the Human overestimation effect (paper, Section 6.2.1)."""
        graph = Graph()
        # v0(L1) -- v1(L2), v2(L2) -- v3(L3): v1 and v2 share a type and
        # merge; the merged bucket invents an L1 ... L3 connection.
        graph.add_vertex((1,))
        graph.add_vertex((2,))
        graph.add_vertex((2,))
        graph.add_vertex((3,))
        graph.add_undirected_edge(0, 1, 0)
        graph.add_undirected_edge(2, 3, 0)
        query = QueryGraph([(1,), (), (3,)], [(0, 1, 0), (1, 2, 0)])
        truth = count_embeddings(graph, query).count
        assert truth == 0
        est = SumRDF(graph, size_threshold=1.0)
        estimate = est.estimate(query).estimate
        assert estimate > truth

    def test_no_match_returns_zero(self, fig1_graph):
        est = SumRDF(fig1_graph, size_threshold=1.0)
        missing = QueryGraph([(), ()], [(0, 1, 99)])
        assert est.estimate(missing).estimate == 0.0

    def test_max_embeddings_guard(self, fig1_graph, fig1_query):
        est = SumRDF(fig1_graph, size_threshold=1.0, max_embeddings=1)
        result = est.estimate(fig1_query)
        assert result.num_substructures <= 1
        # the triangle's one-vertex cut has two {A} buckets: one is cut off
        assert result.info["truncated"]

    def test_truncation_reaches_the_trace(self, fig1_graph, fig1_query):
        est = SumRDF(fig1_graph, size_threshold=1.0, max_embeddings=1)
        est.obs = TraceCollector()
        est.estimate(fig1_query)
        assert est.obs.counters["sumrdf.truncated"] == 1
        assert est.obs.counters["sumrdf.summary_embeddings"] == 1

    def test_estimation_info(self, fig1_graph, fig1_query):
        est = SumRDF(fig1_graph, size_threshold=1.0)
        result = est.estimate(fig1_query)
        assert result.info["summary_buckets"] == 7
        assert result.info["coarsening_level"] == 0


class TestCutPlan:
    def test_tree_query_has_empty_cut(self):
        path = QueryGraph([()] * 4, [(0, 1, 0), (2, 1, 1), (2, 3, 0)])
        plan = _cut_plan(path)
        assert plan.cut == ()
        assert len(plan.roots) == 1

    def test_triangle_cuts_one_vertex(self, fig1_query):
        assert len(_cut_plan(fig1_query).cut) == 1

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 0, 0), (0, 1, 0)],  # self loop
            [(0, 1, 0), (1, 0, 1)],  # antiparallel pair
            [(0, 1, 0), (0, 1, 1)],  # parallel pair
        ],
    )
    def test_multigraph_cycles_are_cut(self, edges):
        plan = _cut_plan(QueryGraph([()] * 2, edges))
        assert len(plan.cut) == 1

    def test_k4_needs_two_cut_vertices(self):
        k4 = QueryGraph(
            [()] * 4,
            [(u, v, 0) for u in range(4) for v in range(u + 1, 4)],
        )
        assert len(_cut_plan(k4).cut) == 2


# ---------------------------------------------------------------------------
# oracle: the estimate is the Stefanoni sum, computed by brute force
# ---------------------------------------------------------------------------
def reference_estimate(summary, query) -> Fraction:
    """Sum over *all* bucket assignments of the module docstring's product,
    ``prod_u w(b_u, L_u) * prod_(u,v,l) k(b_u, b_v, l) / (w(b_u) w(b_v))``,
    in exact arithmetic."""

    def member_weight(bucket, labels):
        return sum(
            count
            for labelset, count in summary.label_profiles[bucket].items()
            if labels <= labelset
        )

    total = Fraction(0)
    buckets = range(len(summary.weights))
    for sigma in itertools.product(buckets, repeat=query.num_vertices):
        term = Fraction(1)
        for u, bucket in enumerate(sigma):
            term *= member_weight(bucket, query.vertex_labels[u])
        if not term:
            continue
        for u, v, label in query.edges:
            bu, bv = sigma[u], sigma[v]
            term *= Fraction(
                summary.edge_weights.get((bu, bv, label), 0),
                summary.weights[bu] * summary.weights[bv],
            )
        total += term
    return total


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(1, 6))
    graph = Graph()
    for _ in range(n):
        graph.add_vertex(draw(st.sets(st.integers(0, 1), max_size=2)))
    # dense enough that cyclic queries often have non-zero estimates
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1)
            ),
            min_size=n,
            max_size=20,
        )
    )
    for src, dst, label in edges:
        graph.add_edge(src, dst, label)
    return graph


@st.composite
def queries(draw):
    """A random spanning tree plus random extra edges: self loops,
    parallel and antiparallel edges and longer cycles all occur."""
    n = draw(st.integers(1, 4))
    labels = [
        draw(st.sets(st.integers(0, 1), max_size=1)) for _ in range(n)
    ]
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edge = (parent, v) if draw(st.booleans()) else (v, parent)
        edges.append((*edge, draw(st.integers(0, 1))))
    extra = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1)
    )
    edges += draw(st.lists(extra, max_size=3))
    return QueryGraph(labels, edges)


def seeded_graph(seed: int, n: int = 12, m: int = 40) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    for _ in range(n):
        graph.add_vertex(rng.sample(range(3), rng.randint(0, 1)))
    while graph.num_edges < m:
        graph.add_edge(rng.randrange(n), rng.randrange(n), rng.randrange(2))
    return graph


CYCLIC_QUERIES = {
    "triangle": QueryGraph([()] * 3, [(0, 1, 0), (1, 2, 1), (2, 0, 0)]),
    "self-loop tail": QueryGraph(
        [(), (), ()], [(0, 0, 1), (0, 1, 0), (2, 1, 1)]
    ),
    "antiparallel": QueryGraph([(), ()], [(0, 1, 0), (1, 0, 1)]),
    "chorded square": QueryGraph(
        [(), (), (), ()],
        [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 0), (0, 2, 1)],
    ),
    "k4": QueryGraph(
        [()] * 4, [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1),
                   (0, 2, 0), (3, 1, 1)],
    ),
}


class TestOracle:
    @pytest.mark.parametrize("name", sorted(CYCLIC_QUERIES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cut_path_matches_reference(self, name, seed):
        query = CYCLIC_QUERIES[name]
        est = SumRDF(seeded_graph(seed), size_threshold=1.0)
        result = est.estimate(query)
        assert result.estimate == float(reference_estimate(est.summary, query))

    @given(
        graph=labelled_graphs(),
        query=queries(),
        threshold=st.sampled_from([1.0, 0.25]),
    )
    @settings(max_examples=150, deadline=None)
    def test_estimate_is_the_exact_stefanoni_sum(
        self, graph, query, threshold
    ):
        est = SumRDF(graph, size_threshold=threshold)
        result = est.estimate(query)
        assert result.estimate == float(reference_estimate(est.summary, query))
        assert not result.info["truncated"]
