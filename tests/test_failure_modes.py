"""Adversarial constructions triggering each technique's failure mode.

The paper attributes a specific weakness to every technique (Table 3 and
Section 6.6).  These tests build minimal deterministic graphs where each
weakness *provably* fires — stronger evidence than observing it on random
workloads, and living documentation of why each technique errs.
"""

import pytest

from repro.core.errors import UnsupportedQueryError
from repro.core.registry import create_estimator
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph
from repro.matching.homomorphism import count_embeddings


def correlated_chain_graph(n: int = 30) -> Graph:
    """Unit-degree chains: v_i --a--> w_i --b--> x_i (2-chain count = n).

    System-R style selectivities are *exact* on this uniform 1:1 shape —
    the graph where independence-based estimates are safe."""
    graph = Graph()
    for i in range(n):
        a = graph.add_vertex((0,))
        b = graph.add_vertex((1,))
        c = graph.add_vertex((2,))
        graph.add_edge(a, b, 0)
        graph.add_edge(b, c, 1)
    return graph


def degree_correlated_graph(hub_degree: int = 20, decoys: int = 20) -> Graph:
    """In- and out-degree positively correlated at one mid vertex.

    One mid with ``hub_degree`` a-in and ``hub_degree`` b-out edges plus
    ``decoys`` mids with one a-in and *no* b-out.  Truth = hub_degree^2;
    the per-label distinct-count selectivity cannot see that all the
    b-capacity sits on the heavy mid and underestimates by ~hub_degree x.
    """
    graph = Graph()
    hub = graph.add_vertex((1,))
    for _ in range(hub_degree):
        v = graph.add_vertex((0,))
        graph.add_edge(v, hub, 0)
    for _ in range(hub_degree):
        v = graph.add_vertex((2,))
        graph.add_edge(hub, v, 1)
    for _ in range(decoys):
        a = graph.add_vertex((0,))
        mid = graph.add_vertex((1,))
        graph.add_edge(a, mid, 0)
    return graph


def anti_correlated_graph(n: int = 20) -> Graph:
    """a-edges and b-edges never meet: the join is empty.

    n a-edges into one vertex group, n b-edges out of a *different*
    group.  True 2-chain count is 0; summary techniques relying on
    per-label counts multiplied by generic selectivities estimate > 0.
    """
    graph = Graph()
    for _ in range(n):
        a = graph.add_vertex((0,))
        b = graph.add_vertex((0,))
        graph.add_edge(a, b, 0)
    for _ in range(n):
        a = graph.add_vertex((0,))
        b = graph.add_vertex((0,))
        graph.add_edge(a, b, 1)
    return graph


def hub_graph(spokes: int = 50) -> Graph:
    """One hub with many in- and out-edges: max-degree bounds explode."""
    graph = Graph()
    hub = graph.add_vertex((0,))
    for _ in range(spokes):
        v = graph.add_vertex((1,))
        graph.add_edge(v, hub, 0)
    for _ in range(spokes):
        v = graph.add_vertex((2,))
        graph.add_edge(hub, v, 1)
    return graph


TWO_CHAIN = QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 1)])


class TestCSetIndependenceFailure:
    def test_exact_on_uniform_unit_chains(self):
        """Independence-based selectivity is exact on uniform 1:1 joins —
        the baseline that makes the next test meaningful."""
        graph = correlated_chain_graph(30)
        truth = count_embeddings(graph, TWO_CHAIN).count
        assert truth == 30
        estimate = create_estimator("cset", graph).estimate(TWO_CHAIN).estimate
        assert estimate == pytest.approx(float(truth))

    def test_underestimates_degree_correlation(self):
        """Positive in/out degree correlation: the distinct-count
        selectivity misses that all fan-out sits on the heavy mid vertex
        and underestimates by ~an order of magnitude."""
        graph = degree_correlated_graph(20, 20)
        truth = count_embeddings(graph, TWO_CHAIN).count
        assert truth == 400
        estimate = create_estimator("cset", graph).estimate(TWO_CHAIN).estimate
        assert estimate < truth / 5

    def test_overestimates_anti_correlation(self):
        graph = anti_correlated_graph(20)
        truth = count_embeddings(graph, TWO_CHAIN).count
        assert truth == 0
        estimate = create_estimator("cset", graph).estimate(TWO_CHAIN).estimate
        # per-label counts are both 20; independence invents mass
        assert estimate > 0.0


class TestBoundSketchLooseness:
    def test_hub_blows_up_the_bound(self):
        graph = hub_graph(50)
        truth = count_embeddings(graph, TWO_CHAIN).count
        assert truth == 2500  # every in-spoke pairs with every out-spoke
        estimate = create_estimator("bs", graph, budget=1).estimate(
            TWO_CHAIN
        ).estimate
        assert estimate >= truth  # bound holds...
        # ...but partitioning cannot help: the hub sits in one bucket
        fine = create_estimator("bs", graph, budget=4096).estimate(
            TWO_CHAIN
        ).estimate
        assert fine >= truth

    def test_bound_is_tight_without_skew_or_partitioning(self):
        graph = correlated_chain_graph(30)
        truth = count_embeddings(graph, TWO_CHAIN).count
        # at M=1 the count * max-degree formula is exact on unit degrees
        exact = create_estimator("bs", graph, budget=1).estimate(
            TWO_CHAIN
        ).estimate
        assert exact == pytest.approx(float(truth))
        # partitioning can only stay valid, not tighter, on this shape
        # (per-bucket 0/1 max degrees double-count across bucket pairs —
        # the non-monotonicity the budget ablation measures)
        partitioned = create_estimator("bs", graph, budget=4096).estimate(
            TWO_CHAIN
        ).estimate
        assert partitioned >= truth


class TestImprLabelFailure:
    def test_unreachable_labels_starve_walks(self):
        """Query labels confined to a tiny subgraph: walks started from
        the stationary distribution of that label-filtered graph are fine,
        but a query whose shape cannot be covered by any walk yields 0."""
        graph = correlated_chain_graph(10)
        triangle = QueryGraph(
            [(), (), ()], [(0, 1, 0), (1, 2, 1), (2, 0, 0)]
        )
        truth = count_embeddings(graph, triangle).count
        assert truth == 0
        est = create_estimator("impr", graph, sampling_ratio=1.0)
        assert est.estimate(triangle).estimate == 0.0

    def test_query_size_restriction_is_hard(self):
        graph = hub_graph(10)
        six_chain = QueryGraph(
            [()] * 7, [(i, i + 1, 0) for i in range(6)]
        )
        est = create_estimator("impr", graph)
        with pytest.raises(UnsupportedQueryError):
            est.estimate(six_chain)


class TestJsubAcyclicBound:
    def test_cycle_bounded_by_chain_count(self):
        """On the hub graph, close the 2-chain into a triangle that has no
        matches: JSUB estimates the acyclic subquery instead (>> 0)."""
        graph = hub_graph(20)
        triangle = QueryGraph(
            [(), (), ()], [(0, 1, 0), (1, 2, 1), (2, 0, 0)]
        )
        truth = count_embeddings(graph, triangle).count
        assert truth == 0
        est = create_estimator("jsub", graph, sampling_ratio=1.0, seed=0)
        estimate = est.estimate(triangle).estimate
        assert estimate > 0.0  # the acyclic upper bound, not the truth


class TestWanderJoinDeadEnds:
    def test_selective_tail_starves_walks_but_stays_unbiased(self):
        """A long chain where only one path completes: single walks almost
        always die, yet the average over many walks approaches the truth
        (the unbiasedness that keeps WJ afloat where others collapse)."""
        graph = Graph()
        # 40 decoy 2-prefixes that never complete
        for _ in range(40):
            a = graph.add_vertex()
            b = graph.add_vertex()
            graph.add_edge(a, b, 0)
        # one full chain a-b-c
        a = graph.add_vertex()
        b = graph.add_vertex()
        c = graph.add_vertex()
        graph.add_edge(a, b, 0)
        graph.add_edge(b, c, 1)
        truth = count_embeddings(graph, TWO_CHAIN).count
        assert truth == 1
        estimates = [
            create_estimator("wj", graph, sampling_ratio=1.0, seed=s)
            .estimate(TWO_CHAIN)
            .estimate
            for s in range(40)
        ]
        mean = sum(estimates) / len(estimates)
        assert truth * 0.5 <= mean <= truth * 2.0


class TestSumRdfInventedConnections:
    def test_merged_types_invent_mass(self):
        graph = anti_correlated_graph(20)
        truth = count_embeddings(graph, TWO_CHAIN).count
        assert truth == 0
        est = create_estimator("sumrdf", graph, size_threshold=0.01)
        estimate = est.estimate(TWO_CHAIN).estimate
        # the coarsened summary merges a-sources with b-sources and
        # manufactures 2-chains that do not exist
        assert estimate > 0.0
