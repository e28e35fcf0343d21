"""Unit and property tests for the plan-quality substrate (Section 6.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import UnsupportedQueryError
from repro.core.registry import create_estimator
from repro.datasets import load_dataset
from repro.datasets.example import figure1_graph, figure1_query
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph
from repro.matching.homomorphism import count_embeddings
from repro.plans.cost import CostModel
from repro.plans.executor import PlanExecutor
from repro.plans.optimizer import (
    EstimatorOracle,
    PlanOptimizer,
    TrueCardinalityOracle,
)
from repro.plans.study import PlanQualityStudy, records_as_table

from tests.conftest import brute_force_count


@pytest.fixture
def graph():
    return figure1_graph()


@pytest.fixture
def optimizer(graph):
    return PlanOptimizer(graph, TrueCardinalityOracle(graph))


class TestCostModel:
    def test_sort_superlinear(self):
        model = CostModel()
        assert model.sort(1000) > 10 * model.sort(10)

    def test_merge_cheaper_than_hash_on_sorted_inputs(self):
        model = CostModel()
        assert model.merge_join(100, 100, 10) < model.hash_join(100, 100, 10)


class TestOptimizer:
    def test_single_edge_plan_is_scan(self, graph, optimizer):
        query = QueryGraph([(), ()], [(0, 1, 0)])
        plan = optimizer.optimize(query)
        assert plan.op == "scan"
        assert plan.cardinality == 3

    def test_triangle_plan_covers_all_edges(self, graph, optimizer):
        plan = optimizer.optimize(figure1_query())
        assert plan.edges == frozenset({0, 1, 2})
        assert plan.op in ("hash", "merge")

    def test_cardinalities_from_oracle(self, graph, optimizer):
        plan = optimizer.optimize(figure1_query())
        assert plan.cardinality == 3  # true cardinality at the root

    def test_empty_query_rejected(self, optimizer):
        with pytest.raises(UnsupportedQueryError):
            optimizer.optimize(QueryGraph([()], []))

    def test_disconnected_query_rejected(self, graph, optimizer):
        query = QueryGraph([()] * 4, [(0, 1, 0), (2, 3, 1)])
        with pytest.raises(UnsupportedQueryError):
            optimizer.optimize(query)

    def test_max_edges_guard(self, graph):
        optimizer = PlanOptimizer(
            graph, TrueCardinalityOracle(graph), max_edges=2
        )
        with pytest.raises(UnsupportedQueryError):
            optimizer.optimize(figure1_query())

    def test_plan_describe_mentions_operators(self, optimizer):
        plan = optimizer.optimize(figure1_query())
        text = plan.describe()
        assert "Scan" in text

    def test_estimator_oracle_fallback_on_unsupported(self, graph):
        impr = create_estimator("impr", graph)  # rejects 2-vertex queries
        oracle = EstimatorOracle(impr, fallback=123.0)
        query = QueryGraph([(), ()], [(0, 1, 0)])
        assert oracle.cardinality(query, frozenset({0})) == 123.0

    def test_oracles_memoize(self, graph):
        oracle = TrueCardinalityOracle(graph)
        query = figure1_query()
        first = oracle.cardinality(query, frozenset({0}))
        assert oracle.cardinality(query, frozenset({0})) == first
        assert len(oracle._cache) == 1


class TestExecutor:
    def test_triangle_execution_matches_truth(self, graph, optimizer):
        query = figure1_query()
        plan = optimizer.optimize(query)
        result = PlanExecutor(graph).execute(query, plan)
        assert result.cardinality == 3

    def test_execution_counts_intermediates(self, graph, optimizer):
        query = figure1_query()
        plan = optimizer.optimize(query)
        result = PlanExecutor(graph).execute(query, plan)
        assert result.intermediate_tuples >= result.cardinality

    def test_scan_applies_vertex_labels(self, graph, optimizer):
        query = QueryGraph([(0,), ()], [(0, 1, 0)])  # A --a-->
        plan = optimizer.optimize(query)
        result = PlanExecutor(graph).execute(query, plan)
        assert result.cardinality == 3

    def test_self_loop_scan(self, graph, optimizer):
        query = QueryGraph([()], [(0, 0, 2)])  # c self loop at v0
        plan = optimizer.optimize(query)
        result = PlanExecutor(graph).execute(query, plan)
        assert result.cardinality == 1

    def test_index_cache_reused(self, graph):
        executor = PlanExecutor(graph)
        first = executor._sorted_pairs(0, 0)
        assert executor._sorted_pairs(0, 0) is first
        # sorted on the requested position (first component)
        assert [p[0] for p in first] == sorted(
            p[0] for p in graph.edges_with_label(0)
        )


class TestStudy:
    def test_study_produces_record_per_query_per_technique(self, graph):
        study = PlanQualityStudy(graph)
        queries = {"tri": figure1_query()}
        estimators = {
            "bs": create_estimator("bs", graph),
            "wj": create_estimator("wj", graph, sampling_ratio=1.0),
        }
        records = study.run(queries, estimators)
        assert len(records) == 3  # TC + 2 techniques
        techniques = {r.technique for r in records}
        assert techniques == {"TC", "bs", "wj"}
        for record in records:
            assert record.execution is not None
            assert record.execution.cardinality == 3

    def test_records_as_table_pivot(self, graph):
        study = PlanQualityStudy(graph)
        records = study.run(
            {"tri": figure1_query()},
            {"bs": create_estimator("bs", graph)},
        )
        table = records_as_table(records)
        assert set(table) == {"TC", "bs"}
        assert "tri" in table["TC"]


# ---------------------------------------------------------------------------
# property test: every optimized plan executes to the exact count
# ---------------------------------------------------------------------------
plan_graphs = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 1)),
    max_size=20,
)
plan_queries = st.sampled_from(
    [
        QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 0)]),
        QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 1)]),
        QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
        QueryGraph([(), (), (), ()], [(0, 1, 0), (1, 2, 1), (1, 3, 0)]),
        QueryGraph([(), (), (), ()], [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
    ]
)


@given(edges=plan_graphs, query=plan_queries)
@settings(max_examples=80, deadline=None)
def test_optimized_plans_execute_exactly(edges, query):
    graph = Graph.from_edges(edges, num_vertices=6)
    expected = brute_force_count(graph, query)
    optimizer = PlanOptimizer(graph, TrueCardinalityOracle(graph))
    plan = optimizer.optimize(query)
    result = PlanExecutor(graph).execute(query, plan)
    assert result.cardinality == expected
