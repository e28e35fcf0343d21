"""Integration tests: all seven techniques on real (generated) datasets.

These check the paper's qualitative findings end-to-end at small scale:
the framework runs every technique on every dataset, BS never
underestimates, WJ is accurate, and the recorded failure modes (IMPR's
size restriction, sampling failure zeros) surface where the paper says
they should.
"""

import pytest

from repro.bench.runner import EvaluationRunner, NamedQuery
from repro.core.registry import available_techniques, create_estimator
from repro.datasets import load_dataset
from repro.graph.topology import Topology
from repro.matching.homomorphism import count_embeddings
from repro.metrics.qerror import qerror
from repro.workload.generator import QueryGenerator
from repro.workload.lubm_queries import benchmark_queries


@pytest.fixture(scope="module")
def lubm():
    return load_dataset("lubm", seed=1, universities=1)


@pytest.fixture(scope="module")
def lubm_named(lubm):
    queries = []
    for name, query in benchmark_queries().items():
        truth = count_embeddings(lubm.graph, query, time_limit=30)
        assert truth.complete
        queries.append(NamedQuery(name, query, truth.count))
    return queries


@pytest.fixture(scope="module")
def lubm_records(lubm, lubm_named):
    runner = EvaluationRunner(
        lubm.graph,
        available_techniques(),
        sampling_ratio=0.1,
        seed=0,
        time_limit=20.0,
    )
    return runner.run(lubm_named, runs=2)


class TestAllTechniquesRun:
    def test_every_technique_produces_records(self, lubm_records):
        techniques = {r.technique for r in lubm_records}
        assert techniques == set(available_techniques())

    def test_estimates_are_non_negative(self, lubm_records):
        for record in lubm_records:
            if record.estimate is not None:
                assert record.estimate >= 0.0

    def test_impr_processes_all_lubm_analogues(self, lubm_records):
        """All LUBM query analogues have 3-4 vertices, inside IMPR's
        supported range, so none may be rejected as unsupported."""
        impr = [r for r in lubm_records if r.technique == "impr"]
        assert impr
        assert all(r.error != "unsupported" for r in impr)


class TestPaperShapes:
    def test_wanderjoin_is_accurate(self, lubm_records):
        """The paper's headline: WJ q-errors close to 1 on LUBM."""
        wj = [r for r in lubm_records if r.technique == "wj" and not r.failed]
        assert wj
        median = sorted(r.qerror for r in wj)[len(wj) // 2]
        assert median < 3.0

    def test_boundsketch_never_underestimates(self, lubm_records):
        bs = [r for r in lubm_records if r.technique == "bs" and not r.failed]
        assert bs
        for record in bs:
            assert record.estimate >= record.true_cardinality * 0.999

    def test_cset_exact_on_star_query(self, lubm, lubm_named):
        """Q4 is a star: C-SET's home turf (original paper evaluated only
        star queries)."""
        q4 = next(q for q in lubm_named if q.name == "Q4")
        est = create_estimator("cset", lubm.graph)
        estimate = est.estimate(q4.query).estimate
        assert qerror(q4.true_cardinality, estimate) < 1.5

    def test_wj_beats_cset_on_cyclic_queries(self, lubm_records):
        """On the cyclic Q2/Q9, WJ should dominate C-SET (independence
        assumption hurts C-SET on joins)."""
        def median_qerror(technique, names):
            values = sorted(
                r.qerror
                for r in lubm_records
                if r.technique == technique
                and r.query_name in names
                and not r.failed
            )
            return values[len(values) // 2] if values else float("inf")

        cyclic = {"Q2", "Q9"}
        assert median_qerror("wj", cyclic) <= median_qerror("cset", cyclic)


class TestNonRdfIntegration:
    @pytest.fixture(scope="class")
    def aids(self):
        return load_dataset("aids", seed=1, num_graphs=80)

    def test_techniques_on_aids_collection(self, aids):
        generator = QueryGenerator(aids.graph, seed=5)
        workload = generator.generate(
            Topology.CHAIN, 3, count=2, time_budget=20
        )
        assert workload
        queries = [
            NamedQuery.from_workload("aids_", i, wq)
            for i, wq in enumerate(workload)
        ]
        runner = EvaluationRunner(
            aids.graph, available_techniques(), sampling_ratio=0.1,
            time_limit=20.0,
        )
        records = runner.run(queries)
        by_tech = {r.technique: r for r in records}
        # BS upper bound holds on collections too
        for r in records:
            if r.technique == "bs" and not r.failed:
                assert r.estimate >= r.true_cardinality * 0.999
        assert not by_tech["wj"].failed

    def test_human_unlabeled_edges_run(self):
        human = load_dataset("human", seed=1, num_vertices=300, avg_degree=8)
        generator = QueryGenerator(human.graph, seed=5)
        workload = generator.generate(
            Topology.STAR, 3, count=1, time_budget=20
        )
        assert workload
        named = NamedQuery.from_workload("human_", 0, workload[0])
        runner = EvaluationRunner(
            human.graph,
            [t for t in ("cset", "sumrdf", "wj", "bs")
             if t in available_techniques()],
            sampling_ratio=0.1,
            time_limit=20.0,
        )
        records = runner.run([named])
        assert all(r.estimate is not None for r in records)
