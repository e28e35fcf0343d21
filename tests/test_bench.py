"""Unit tests for the benchmark harness (runner, tables, CLI)."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.runner import (
    EvalRecord,
    EvaluationRunner,
    NamedQuery,
    group_by,
    mean_elapsed,
    summarize,
)
from repro.bench.tables import (
    ACCURATE,
    COLUMNS,
    INACCURATE,
    render_table3,
    table3_matrix,
)
from repro.bench import cli
from repro.datasets.example import figure1_graph, figure1_query
from repro.graph.topology import Topology
from repro.workload.generator import WorkloadQuery


@pytest.fixture
def graph():
    return figure1_graph()


@pytest.fixture
def named_query():
    return NamedQuery("tri", figure1_query(), 3, {"topology": "cycle"})


class TestRunner:
    def test_run_produces_record_per_technique_per_run(self, graph, named_query):
        runner = EvaluationRunner(
            graph, ["cset", "bs"], sampling_ratio=1.0, time_limit=10
        )
        records = runner.run([named_query], runs=2)
        assert len(records) == 4
        assert {r.technique for r in records} == {"cset", "bs"}
        assert {r.run for r in records} == {0, 1}

    def test_prepare_records_times(self, graph):
        runner = EvaluationRunner(graph, ["cset", "bs"])
        times = runner.prepare()
        assert set(times) == {"cset", "bs"}
        assert all(t >= 0 for t in times.values())

    def test_unsupported_recorded_not_raised(self, graph):
        # IMPR rejects 2-vertex queries
        from repro.graph.query import QueryGraph

        query = NamedQuery("edge", QueryGraph([(), ()], [(0, 1, 0)]), 3)
        runner = EvaluationRunner(graph, ["impr"], sampling_ratio=1.0)
        records = runner.run([query])
        assert records[0].error == "unsupported"
        assert records[0].failed
        assert records[0].qerror is None

    def test_reseed_gives_run_variation(self, graph, named_query):
        runner = EvaluationRunner(
            graph, ["wj"], sampling_ratio=0.5, seed=0, time_limit=10
        )
        records = runner.run([named_query], runs=4, reseed=True)
        estimates = {r.estimate for r in records}
        assert len(estimates) > 1  # different seeds -> different estimates

    def test_named_query_from_workload(self):
        wq = WorkloadQuery(figure1_query(), Topology.CYCLE, 3)
        named = NamedQuery.from_workload("yago_", 7, wq)
        assert named.name == "yago_7"
        assert named.groups["topology"] == "cycle"
        assert named.groups["size"] == "3"


class TestAggregation:
    def _record(self, technique, group, truth, estimate, error=None):
        return EvalRecord(
            technique=technique,
            query_name="q",
            run=0,
            true_cardinality=truth,
            estimate=estimate,
            elapsed=0.5,
            groups={"topology": group},
            error=error,
        )

    def test_summarize_groups(self):
        records = [
            self._record("wj", "chain", 10, 10),
            self._record("wj", "star", 10, 100),
            self._record("bs", "chain", 10, 1000),
        ]
        summaries = summarize(records, group_by("topology"))
        assert summaries["wj"]["chain"].median == 1.0
        assert summaries["wj"]["star"].median == 10.0
        assert summaries["bs"]["chain"].median == 100.0

    def test_summarize_counts_failures(self):
        records = [
            self._record("impr", "chain", 10, None, error="unsupported"),
            self._record("impr", "chain", 10, 10),
        ]
        summaries = summarize(records, group_by("topology"))
        assert summaries["impr"]["chain"].failures == 1
        assert summaries["impr"]["chain"].count == 1

    def test_mean_elapsed(self):
        records = [
            self._record("wj", "chain", 1, 1),
            self._record("wj", "chain", 1, 1),
        ]
        elapsed = mean_elapsed(records)
        assert elapsed["wj"]["all"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# property-based coverage of summarize / group_by
# ---------------------------------------------------------------------------
def _make_record(technique, group, truth, estimate, run):
    return EvalRecord(
        technique=technique,
        query_name="q",
        run=run,
        true_cardinality=truth,
        estimate=estimate,
        elapsed=0.0,
        groups={"topology": group},
        error=None if estimate is not None else "timeout",
    )


record_lists = st.lists(
    st.builds(
        _make_record,
        technique=st.sampled_from(["wj", "cs", "bs"]),
        group=st.sampled_from(["chain", "star", "cycle"]),
        truth=st.integers(0, 10**6),
        estimate=st.one_of(
            st.none(),
            st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
        ),
        run=st.integers(0, 3),
    ),
    max_size=30,
)


def _normalize(summaries):
    """Comparable form of a summarize() result (NaN-free)."""
    return {
        technique: {
            group: (
                summary.count,
                summary.failures,
                summary.mean if summary.count else None,
                summary.percentiles if summary.count else None,
                (
                    summary.underestimated_fraction
                    if summary.count
                    else None
                ),
            )
            for group, summary in groups.items()
        }
        for technique, groups in summaries.items()
    }


class TestSummarizeProperties:
    @given(records=record_lists, seed=st.integers(0, 2**16))
    def test_record_order_never_changes_summaries(self, records, seed):
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        assert _normalize(
            summarize(records, group_by("topology"))
        ) == _normalize(summarize(shuffled, group_by("topology")))

    @given(records=record_lists)
    def test_failures_land_in_their_own_group(self, records):
        summaries = summarize(records, group_by("topology"))
        for technique, groups in summaries.items():
            for group, summary in groups.items():
                expected = sum(
                    1
                    for r in records
                    if r.technique == technique
                    and r.groups["topology"] == group
                    and r.failed
                )
                assert summary.failures == expected

    @given(records=record_lists)
    def test_counts_plus_failures_cover_every_record(self, records):
        summaries = summarize(records, group_by("topology"))
        total = sum(
            summary.count + summary.failures
            for groups in summaries.values()
            for summary in groups.values()
        )
        assert total == len(records)
        for technique, groups in summaries.items():
            for group, summary in groups.items():
                in_cell = [
                    r
                    for r in records
                    if r.technique == technique
                    and r.groups["topology"] == group
                ]
                assert summary.count + summary.failures == len(in_cell)
                if summary.count:
                    assert not math.isnan(summary.mean)

    @given(records=record_lists)
    def test_group_by_missing_field_buckets_to_question_mark(self, records):
        summaries = summarize(records, group_by("no_such_field"))
        for groups in summaries.values():
            assert set(groups) <= {"?"}


class TestTable3:
    def _record(self, technique, truth, estimate, size="3", topo="chain",
                name="yago_0", error=None):
        return EvalRecord(
            technique=technique,
            query_name=name,
            run=0,
            true_cardinality=truth,
            estimate=estimate,
            elapsed=0.0,
            groups={"topology": topo, "size": size},
            error=error,
        )

    def test_accurate_verdict(self):
        records = [self._record("wj", 100, 110)]
        matrix = table3_matrix(records, techniques=("wj",))
        assert matrix["wj"]["#emb <= 10^3"] == ACCURATE
        assert matrix["wj"]["size 3~6"] == ACCURATE
        assert matrix["wj"]["tree"] == ACCURATE

    def test_inaccurate_verdict(self):
        records = [self._record("cs", 10000, 1)]
        matrix = table3_matrix(records, techniques=("cs",))
        assert matrix["cs"]["#emb > 10^3"] == INACCURATE

    def test_failures_make_inaccurate(self):
        records = [
            self._record("impr", 10, None, error="unsupported"),
            self._record("impr", 10, None, error="unsupported"),
            self._record("impr", 10, 10),
        ]
        matrix = table3_matrix(records, techniques=("impr",))
        assert matrix["impr"]["#emb <= 10^3"] == INACCURATE

    def test_lubm_column_from_query_names(self):
        records = [self._record("wj", 100, 100, name="Q2")]
        matrix = table3_matrix(records, techniques=("wj",))
        assert matrix["wj"]["LUBM queryset"] == ACCURATE
        assert matrix["wj"]["tree"] == "-"

    def test_render_contains_all_columns(self):
        matrix = table3_matrix([], techniques=("wj",))
        text = render_table3(matrix)
        for column in COLUMNS:
            assert column in text


class TestCli:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "f6a" in out and "t2" in out

    def test_unknown_experiment(self, capsys):
        assert cli.main(["zzz"]) == 2

    def test_sweep_requires_dataset(self, capsys):
        assert cli.main(["sweep"]) == 2
        assert "usage: gcare sweep" in capsys.readouterr().out

    def test_t2_runs(self, capsys):
        assert cli.main(["t2"]) == 0
        out = capsys.readouterr().out
        assert "# of vertices" in out


class TestCliExports:
    def test_export_dataset(self, tmp_path, capsys):
        out = tmp_path / "aids.txt"
        assert cli.main(["export-dataset", "aids", "--out", str(out)]) == 0
        from repro.graph.io import load_graph

        graph = load_graph(out)
        assert graph.num_edges > 0

    def test_export_requires_out(self, capsys):
        assert cli.main(["export-dataset", "aids"]) == 2

    def test_export_unknown_dataset(self, tmp_path):
        import pytest as _pytest

        with _pytest.raises(KeyError):
            cli.main(
                ["export-dataset", "nope", "--out", str(tmp_path / "x.txt")]
            )


class TestCliValidate:
    def test_valid_graph_file(self, tmp_path, capsys):
        from repro.graph.io import dump_graph

        path = tmp_path / "g.txt"
        dump_graph(figure1_graph(), path)
        assert cli.main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_malformed_graph_file_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("t # 0\nv 0 1\nv oops 2\ne 0 0 0\n")
        assert cli.main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "MALFORMED" in out
        assert f"{path}:line 3" in out
        assert "non-integer" in out

    def test_kind_query(self, tmp_path, capsys):
        from repro.graph.io import dump_query

        path = tmp_path / "q.txt"
        dump_query(figure1_query(), path)
        assert cli.main(["validate", str(path), "--kind", "query"]) == 0
        assert "query" in capsys.readouterr().out

    def test_kind_triples(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("a p b\nbroken\n")
        assert cli.main(["validate", str(path), "--kind", "triples"]) == 1
        out = capsys.readouterr().out
        assert "1 records loaded, 1 malformed" in out

    def test_unreadable_path(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "missing.txt")]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_requires_target(self, capsys):
        assert cli.main(["validate"]) == 2
        assert "usage: gcare validate" in capsys.readouterr().out


class TestCliChaosSweep:
    def test_sweep_with_injection_completes(self, tmp_path, capsys):
        log = tmp_path / "chaos.jsonl"
        code = cli.main([
            "sweep", "aids", "--techniques", "cset", "--workers", "2",
            "--runs", "1", "--time-limit", "5", "--results-log", str(log),
            "--fsync", "--inject", "agg_card:nan", "--inject-seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault injection: 1 spec(s), seed 3" in out
        assert "retries" in out and "respawns" in out
        # every cell got the NaN fault and was sanitized, none crashed
        from repro.bench.results_log import ResultsLog

        records = ResultsLog(log).load()
        assert records
        assert all(r.error == "invalid_estimate" for r in records)


class TestCliEstimate:
    def test_estimate_roundtrip(self, tmp_path, capsys):
        from repro.datasets.example import figure1_graph, figure1_query
        from repro.graph.io import dump_graph, dump_query

        gpath, qpath = tmp_path / "g.txt", tmp_path / "q.txt"
        dump_graph(figure1_graph(), gpath)
        dump_query(figure1_query(), qpath)
        code = cli.main([
            "estimate", "--graph", str(gpath), "--query", str(qpath),
            "--technique", "bs",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "true cardinality: 3" in out
        assert "BS estimate" in out

    def test_estimate_requires_files(self, capsys):
        assert cli.main(["estimate"]) == 2
