"""Smoke tests for the figure-reproduction harness (small configurations).

The full experiments live in ``benchmarks/``; these tests exercise the
same code paths at minimal scale so harness regressions are caught by the
fast suite.
"""

import pytest

from repro.bench import figures, workloads
from repro.graph.topology import Topology


@pytest.fixture(autouse=True, scope="module")
def _warm_caches():
    """All tests share the memoized datasets/workloads."""
    yield


class TestTable2:
    def test_stats_rows_cover_all_datasets(self):
        result = figures.table2_statistics()
        for name in ("lubm", "yago", "dbpedia", "aids", "human"):
            assert name in result.data["stats"]
            assert name in result.table


class TestAccuracyGrouped:
    @pytest.fixture(scope="class")
    def small_result(self):
        return figures.accuracy_grouped(
            "TEST",
            "aids",
            "topology",
            topologies=(Topology.CHAIN, Topology.STAR),
            sizes=(3,),
            per_combination=1,
            techniques=("cset", "wj", "bs"),
            time_limit=10.0,
        )

    def test_groups_match_requested_topologies(self, small_result):
        assert set(small_result.data["groups"]) <= {"chain", "star"}
        assert small_result.data["num_queries"] >= 1

    def test_summaries_per_technique(self, small_result):
        summaries = small_result.data["summaries"]
        assert set(summaries) <= {"cset", "wj", "bs"}

    def test_table_mentions_techniques(self, small_result):
        for technique in ("CSET", "WJ", "BS"):
            assert technique in small_result.table

    def test_records_carry_groups(self, small_result):
        for record in small_result.data["records"]:
            assert "topology" in record.groups
            assert "size" in record.groups


class TestAccuracyGroupedParallel:
    def test_workers_reproduce_serial_records(self):
        kwargs = dict(
            topologies=(Topology.CHAIN, Topology.STAR),
            sizes=(3,),
            per_combination=1,
            techniques=("cset", "wj", "bs"),
            time_limit=10.0,
        )
        serial = figures.accuracy_grouped("TESTP", "aids", "topology", **kwargs)
        parallel = figures.accuracy_grouped(
            "TESTP", "aids", "topology", workers=2, **kwargs
        )
        serial_cells = [
            (r.technique, r.query_name, r.run, r.estimate, r.error)
            for r in serial.data["records"]
        ]
        parallel_cells = [
            (r.technique, r.query_name, r.run, r.estimate, r.error)
            for r in parallel.data["records"]
        ]
        assert parallel_cells == serial_cells
        assert parallel.data["groups"] == serial.data["groups"]


class TestSamplingRatio:
    def test_two_ratio_sweep(self):
        result = figures.sec63_sampling_ratio(
            dataset_name="aids",
            ratios=(0.01, 0.03),
            techniques=("wj",),
            time_limit=10.0,
        )
        per_ratio = result.data["per_ratio"]
        assert set(per_ratio) == {0.01, 0.03}
        assert all("wj" in row for row in per_ratio.values())


class TestEfficiency:
    def test_single_dataset_efficiency(self):
        result = figures.fig10_efficiency(
            dataset_names=("aids",),
            techniques=("cset", "wj"),
            time_limit=10.0,
        )
        data = result.data["aids"]
        assert data["preparation"]["cset"] >= 0.0
        assert data["online"]["wj"] is not None


class TestPlanQualityFigure:
    def test_lubm_only_study(self):
        result = figures.fig11_plan_quality(
            techniques=("cset", "bs"),
            include_dbpedia=False,
            time_limit=10.0,
        )
        table = result.data["lubm"]["table"]
        assert set(table) == {"TC", "cset", "bs"}
        assert "dbpedia" not in result.data


class TestWorkloadMemoization:
    def test_dataset_memoized(self):
        a = workloads.dataset("aids")
        b = workloads.dataset("aids")
        assert a is b

    def test_dataset_kwargs_key(self):
        a = workloads.dataset("aids", num_graphs=20)
        b = workloads.dataset("aids", num_graphs=30)
        assert a is not b
        assert a.graph.num_graphs == 20

    def test_workload_memoized_in_process(self):
        a = workloads.workload(
            "aids", topologies=(Topology.CHAIN,), sizes=(3,),
            per_combination=1,
        )
        b = workloads.workload(
            "aids", topologies=(Topology.CHAIN,), sizes=(3,),
            per_combination=1,
        )
        assert a is b


class TestSignedChartInFigures:
    def test_accuracy_table_contains_chart(self):
        result = figures.accuracy_grouped(
            "TEST2",
            "aids",
            "size",
            topologies=(Topology.CHAIN,),
            sizes=(3,),
            per_combination=1,
            techniques=("cset", "bs"),
            time_limit=10.0,
        )
        assert "signed q-error" in result.table
        assert "|" in result.table
