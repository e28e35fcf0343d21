"""Phase breakdown — where each technique spends its on-line time.

Section 6.4's analysis attributes costs to the framework's phases:
"SumRDF spends most of the time on GetSubstructure and EstCard
procedures" (matching in the summary), while the walk-based samplers
spend their time drawing substructures and JSUB's cost sits in
DecomposeQuery (the trial runs that choose the spanning tree).  The
``info["timings"]`` instrumentation lets us regenerate that attribution.
"""

from repro.bench import figures
from repro.bench.runner import EvaluationRunner, NamedQuery
from repro.bench.workloads import dataset
from repro.matching.homomorphism import count_embeddings
from repro.metrics.report import render_table
from repro.workload.lubm_queries import benchmark_queries

TECHNIQUES = ("cset", "impr", "sumrdf", "cs", "wj", "jsub", "bs")


def test_phase_breakdown(run_once, save_result):
    def experiment():
        data = dataset("lubm")
        queries = [
            NamedQuery(name, q, count_embeddings(data.graph, q).count)
            for name, q in benchmark_queries().items()
        ]
        runner = EvaluationRunner(
            data.graph, TECHNIQUES, sampling_ratio=0.03, time_limit=20.0
        )
        runner.prepare()
        rows = []
        shares = {}
        for technique in TECHNIQUES:
            estimator = runner.estimators[technique]
            totals = {"decompose": 0.0, "substructures": 0.0,
                      "agg": 0.0, "selectivity": 0.0}
            for named in queries:
                try:
                    result = estimator.estimate(named.query)
                except Exception:
                    continue
                for phase, seconds in result.info["timings"].items():
                    totals[phase] += seconds
            overall = sum(totals.values()) or 1e-12
            shares[technique] = {
                phase: seconds / overall for phase, seconds in totals.items()
            }
            rows.append(
                [
                    technique.upper(),
                    overall,
                    shares[technique]["decompose"],
                    shares[technique]["substructures"],
                    shares[technique]["agg"],
                    shares[technique]["selectivity"],
                ]
            )
        table = render_table(
            ["technique", "total [s]", "decompose", "substructures",
             "agg", "selectivity"],
            rows,
            title="share of on-line time per framework phase (LUBM queryset)",
        )
        return figures.ExperimentResult(
            "Phase", "Per-phase time attribution", table, {"shares": shares}
        )

    result = run_once(experiment)
    save_result(result)
    shares = result.data["shares"]
    # the paper's attribution: SumRDF's cost is substructure matching
    assert shares["sumrdf"]["substructures"] > 0.5
    # JSUB's decomposition (trial runs) is a visible share of its cost
    assert shares["jsub"]["decompose"] > 0.1
