"""Unit tests for the G-CARE framework template (Algorithm 1)."""

import time

import pytest

from repro.core.errors import (
    EstimationTimeout,
    InvalidEstimateError,
    UnsupportedQueryError,
)
from repro.core.framework import Estimator
from repro.core.result import EstimationResult
from repro.core.registry import (
    ALL_TECHNIQUES,
    available_techniques,
    create_estimator,
    estimator_class,
)
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph


class TwoSubqueryEstimator(Estimator):
    """A toy technique: decomposes into two subqueries, sums per subquery."""

    name = "toy"
    display_name = "Toy"

    def decompose_query(self, query):
        return ["first", "second"]

    def get_substructures(self, query, subquery):
        yield 1.0
        yield 2.0

    def est_card(self, query, subquery, substructure):
        return substructure

    def agg_card(self, card_vec):
        return sum(card_vec)

    def selectivity(self, query, subqueries):
        return 0.5


@pytest.fixture
def graph():
    return Graph.from_edges([(0, 1, 0)])


@pytest.fixture
def query():
    return QueryGraph([(), ()], [(0, 1, 0)])


class TestTemplate:
    def test_algorithm1_composition(self, graph, query):
        est = TwoSubqueryEstimator(graph)
        result = est.estimate(query)
        # (1+2) * (1+2) * 0.5
        assert result.estimate == pytest.approx(4.5)
        assert result.num_subqueries == 2
        assert result.num_substructures == 4

    def test_negative_estimate_rejected(self, graph, query):
        # a genuinely negative product is a technique bug: surfaced, not
        # silently clamped (the old clamp also ate NaN via max(0.0, nan))
        class Negative(TwoSubqueryEstimator):
            def selectivity(self, query, subqueries):
                return -1.0

        with pytest.raises(InvalidEstimateError):
            Negative(graph).estimate(query)

    def test_nan_estimate_rejected(self, graph, query):
        class NaN(TwoSubqueryEstimator):
            def selectivity(self, query, subqueries):
                return float("nan")

        with pytest.raises(InvalidEstimateError):
            NaN(graph).estimate(query)

    def test_tiny_negative_rounding_noise_clamped(self, graph, query):
        class Tiny(TwoSubqueryEstimator):
            def selectivity(self, query, subqueries):
                return -1e-12

        assert Tiny(graph).estimate(query).estimate == 0.0

    def test_prepare_runs_once(self, graph, query):
        calls = []

        class Counting(TwoSubqueryEstimator):
            def prepare_summary_structure(self):
                calls.append(1)

        est = Counting(graph)
        est.prepare()
        est.prepare()
        est.estimate(query)
        assert len(calls) == 1

    def test_preparation_time_recorded(self, graph):
        class Slow(TwoSubqueryEstimator):
            def prepare_summary_structure(self):
                time.sleep(0.01)

        est = Slow(graph)
        assert est.prepare() >= 0.01
        assert est.preparation_time == est.prepare()

    def test_timeout_raises(self, graph, query):
        class Endless(TwoSubqueryEstimator):
            def get_substructures(self, query, subquery):
                while True:
                    yield 1.0

        est = Endless(graph, time_limit=0.05)
        with pytest.raises(EstimationTimeout):
            est.estimate(query)

    def test_invalid_sampling_ratio_rejected(self, graph):
        with pytest.raises(ValueError):
            TwoSubqueryEstimator(graph, sampling_ratio=0.0)
        with pytest.raises(ValueError):
            TwoSubqueryEstimator(graph, sampling_ratio=1.5)

    def test_num_samples_floor_of_one(self, graph):
        est = TwoSubqueryEstimator(graph, sampling_ratio=0.01)
        assert est.num_samples(10) == 1
        assert est.num_samples(1000) == 10

    def test_rng_reseeded_per_query(self, graph, query):
        class RandomEst(TwoSubqueryEstimator):
            def get_substructures(self, query, subquery):
                yield self.rng.random()

            def agg_card(self, card_vec):
                return sum(card_vec)

            def selectivity(self, query, subqueries):
                return 1.0

        est = RandomEst(graph, seed=42)
        first = est.estimate(query).estimate
        second = est.estimate(query).estimate
        assert first == second  # same seed, same estimate


class TestResult:
    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            EstimationResult(estimate=-1.0)

    def test_float_conversion(self):
        assert float(EstimationResult(estimate=4.0)) == 4.0


class TestRegistry:
    def test_available_techniques_in_paper_order(self):
        expected = ["cset", "impr", "sumrdf", "cs", "wj", "jsub", "bs"]
        assert list(ALL_TECHNIQUES) == expected
        assert available_techniques() == expected

    def test_create_each_technique(self, graph):
        for name in available_techniques():
            estimator = create_estimator(name, graph)
            assert estimator.name == name
            assert estimator.graph is graph

    def test_unknown_technique_raises(self, graph):
        with pytest.raises(KeyError):
            create_estimator("nonsense", graph)

    def test_estimator_class_lookup(self):
        assert estimator_class("wj").display_name == "WJ"

    def test_sampling_flags(self, graph):
        sampling = {n for n in available_techniques()
                    if create_estimator(n, graph).is_sampling_based}
        assert sampling == {"impr", "cs", "wj", "jsub"}


class TestTimings:
    def test_phase_timings_reported(self, graph, query):
        result = TwoSubqueryEstimator(graph).estimate(query)
        timings = result.info["timings"]
        assert set(timings) == {"decompose", "substructures", "agg", "selectivity"}
        assert all(t >= 0.0 for t in timings.values())
        assert sum(timings.values()) <= result.elapsed + 1e-6

    def test_timings_attribute_slow_phase(self, graph, query):
        import time as _time

        class SlowSubstructures(TwoSubqueryEstimator):
            def get_substructures(self, query, subquery):
                _time.sleep(0.02)
                yield 1.0

        result = SlowSubstructures(graph).estimate(query)
        timings = result.info["timings"]
        assert timings["substructures"] > timings["decompose"]
