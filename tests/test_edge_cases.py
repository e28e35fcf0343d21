"""Edge cases and failure injection across the library.

Estimators and substrates must degrade gracefully on degenerate inputs:
empty graphs, label-free graphs, queries larger than the data, isolated
vertices, and generators over graphs with no extractable structure.
"""

import pytest

from repro.core.registry import ALL_TECHNIQUES, create_estimator
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph
from repro.graph.topology import Topology
from repro.matching.homomorphism import count_embeddings
from repro.plans.optimizer import PlanOptimizer, TrueCardinalityOracle
from repro.plans.executor import PlanExecutor
from repro.workload.generator import QueryGenerator


def single_edge_graph() -> Graph:
    return Graph.from_edges([(0, 1, 0)])


class TestDegenerateGraphs:
    @pytest.mark.parametrize("name", ALL_TECHNIQUES)
    def test_estimators_on_edgeless_graph(self, name):
        graph = Graph()
        graph.add_vertex((0,))
        graph.add_vertex((0,))
        query = QueryGraph([(), ()], [(0, 1, 0)])
        est = create_estimator(name, graph, sampling_ratio=1.0)
        try:
            result = est.estimate(query)
        except Exception as exc:  # only framework errors are acceptable
            from repro.core.errors import GCareError

            assert isinstance(exc, GCareError)
            return
        assert result.estimate == 0.0

    @pytest.mark.parametrize("name", ALL_TECHNIQUES)
    def test_estimators_on_single_edge_graph(self, name):
        graph = single_edge_graph()
        query = QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 0)])
        est = create_estimator(name, graph, sampling_ratio=1.0)
        from repro.core.errors import GCareError

        try:
            result = est.estimate(query)
        except GCareError:
            return
        # a 2-chain cannot match a single edge
        assert result.estimate >= 0.0

    def test_matcher_query_larger_than_graph(self):
        graph = single_edge_graph()
        chain = QueryGraph([()] * 5, [(i, i + 1, 0) for i in range(4)])
        assert count_embeddings(graph, chain).count == 0

    def test_matcher_on_empty_graph(self):
        graph = Graph()
        query = QueryGraph([(), ()], [(0, 1, 0)])
        assert count_embeddings(graph, query).count == 0

    def test_stats_of_isolated_vertices(self):
        graph = Graph()
        for _ in range(5):
            graph.add_vertex((1,))
        stats = graph.stats()
        assert stats.num_edges == 0
        assert stats.max_degree == 0


class TestGeneratorRobustness:
    def test_generator_on_edgeless_graph(self):
        graph = Graph()
        graph.add_vertex()
        generator = QueryGenerator(graph, seed=0)
        assert generator.generate(Topology.CHAIN, 3, count=1) == []

    def test_generator_on_single_edge(self):
        generator = QueryGenerator(single_edge_graph(), seed=0)
        queries = generator.generate(Topology.CHAIN, 1, count=1)
        # a chain of one edge is extractable; longer ones are not
        assert generator.generate(Topology.CHAIN, 5, count=1) == []
        assert generator.generate(Topology.CYCLE, 3, count=1) == []

    def test_generate_diverse_empty_pool(self):
        generator = QueryGenerator(single_edge_graph(), seed=0)
        assert generator.generate_diverse(Topology.CYCLE, 3, count=2) == []

    def test_time_budget_zero_returns_empty(self):
        graph = Graph.from_edges([(i, i + 1, 0) for i in range(20)])
        generator = QueryGenerator(graph, seed=0)
        assert (
            generator.generate(Topology.CHAIN, 3, count=5, time_budget=0.0)
            == []
        )


class TestSelfLoops:
    def test_self_loop_heavy_graph(self):
        graph = Graph()
        graph.add_vertex((0,))
        graph.add_edge(0, 0, 0)
        graph.add_edge(0, 0, 1)
        loop_query = QueryGraph([(0,)], [(0, 0, 0), (0, 0, 1)])
        assert count_embeddings(graph, loop_query).count == 1

    def test_boundsketch_on_self_loop_query(self):
        graph = Graph()
        graph.add_vertex()
        graph.add_vertex()
        graph.add_edge(0, 0, 0)
        graph.add_edge(0, 1, 1)
        query = QueryGraph([(), ()], [(0, 0, 0), (0, 1, 1)])
        truth = count_embeddings(graph, query).count
        est = create_estimator("bs", graph)
        assert est.estimate(query).estimate >= truth

    def test_plan_executor_self_loop_join(self):
        graph = Graph()
        graph.add_vertex()
        graph.add_vertex()
        graph.add_edge(0, 0, 0)
        graph.add_edge(0, 1, 1)
        query = QueryGraph([(), ()], [(0, 0, 0), (0, 1, 1)])
        optimizer = PlanOptimizer(graph, TrueCardinalityOracle(graph))
        plan = optimizer.optimize(query)
        result = PlanExecutor(graph).execute(query, plan)
        assert result.cardinality == count_embeddings(graph, query).count


class TestWideLabels:
    def test_multi_label_vertex_matching(self):
        graph = Graph()
        graph.add_vertex((0, 1, 2))
        graph.add_vertex((0,))
        graph.add_edge(0, 1, 0)
        # query requiring two labels matches only the multi-labeled vertex
        query = QueryGraph([(0, 1), ()], [(0, 1, 0)])
        assert count_embeddings(graph, query).count == 1

    def test_cset_multi_label_star(self):
        graph = Graph()
        center = graph.add_vertex((0, 1))
        leaf = graph.add_vertex()
        graph.add_edge(center, leaf, 5)
        est = create_estimator("cset", graph)
        query = QueryGraph([(0, 1), ()], [(0, 1, 5)])
        assert est.estimate(query).estimate == pytest.approx(1.0)
