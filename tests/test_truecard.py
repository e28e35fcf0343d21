"""Unit tests for the TrueCardinality baseline."""

import pytest

from repro.core.errors import EstimationTimeout
from repro.core.registry import EXTENSIONS, create_estimator
from repro.datasets.example import FIGURE1_TRUE_CARDINALITY
from repro.graph.query import QueryGraph


class TestTrueCardinality:
    def test_registered_as_extension(self):
        assert "tc" in EXTENSIONS

    def test_exact_on_figure1(self, fig1_graph, fig1_query):
        tc = create_estimator("tc", fig1_graph)
        assert tc.estimate(fig1_query).estimate == FIGURE1_TRUE_CARDINALITY

    def test_zero_matches(self, fig1_graph):
        tc = create_estimator("tc", fig1_graph)
        query = QueryGraph([(), ()], [(0, 1, 99)])
        assert tc.estimate(query).estimate == 0.0

    def test_timeout_raises_instead_of_truncating(self, fig1_graph, fig1_query):
        tc = create_estimator("tc", fig1_graph, time_limit=1e-9)
        with pytest.raises(EstimationTimeout):
            tc.estimate(fig1_query)

    def test_works_in_evaluation_runner(self, fig1_graph, fig1_query):
        from repro.bench.runner import EvaluationRunner, NamedQuery

        runner = EvaluationRunner(fig1_graph, ["tc", "bs"], time_limit=10)
        records = runner.run([NamedQuery("tri", fig1_query, 3)])
        tc_record = next(r for r in records if r.technique == "tc")
        assert tc_record.qerror == 1.0
