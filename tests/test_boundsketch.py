"""Unit and property tests for BoundSketch (BS)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EstimationTimeout, UnsupportedQueryError
from repro.datasets.example import figure1_graph, figure1_query
from repro.estimators.boundsketch import (
    MAX_FORMULAS,
    BoundSketch,
    _RelationDesc,
    _Term,
    _acyclic_coverage,
)
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph
from repro.matching.homomorphism import count_embeddings
from repro.obs.trace import TraceCollector

from tests.conftest import brute_force_count


class TestPartitions:
    def test_partitions_respect_budget(self, fig1_graph):
        est = BoundSketch(fig1_graph, budget=4096)
        assert est.partitions_for(3) == 16       # 16^3 = 4096
        assert est.partitions_for(2) == 64       # 64^2 = 4096
        assert est.partitions_for(12) == 2       # 2^12 = 4096
        assert est.partitions_for(13) >= 1

    def test_budget_one_gives_single_partition(self, fig1_graph):
        est = BoundSketch(fig1_graph, budget=1)
        assert est.partitions_for(3) == 1


class TestSketches:
    def test_edge_sketch_counts_sum_to_relation_size(self, fig1_graph):
        est = BoundSketch(fig1_graph)
        count, deg_src, deg_dst = est._edge_sketches(0, 4, self_loop=False)
        assert count.sum() == fig1_graph.edge_label_count(0)
        # a cell's max degree counts edges of one value inside the cell
        assert (deg_src <= count).all()
        assert (deg_dst <= count).all()
        assert deg_src.max() >= 1

    def test_vertex_sketch_counts(self, fig1_graph):
        est = BoundSketch(fig1_graph)
        count = est._vertex_sketches(0, 4)  # label A: v0, v1
        assert count.sum() == 2

    def test_self_loop_sketch(self, fig1_graph):
        est = BoundSketch(fig1_graph)
        count, degree, _ = est._edge_sketches(2, 4, self_loop=True)
        # only self loop with label c is (v0, v0)
        assert count.sum() == 1
        assert degree.max() == 1

    def test_sketch_cache_reused(self, fig1_graph):
        est = BoundSketch(fig1_graph)
        first = est._edge_sketches(0, 4, self_loop=False)
        second = est._edge_sketches(0, 4, self_loop=False)
        assert first is second


class TestFormulaValidity:
    def _edge_rel(self, a, b, label=0):
        return _RelationDesc("edge", label, (a, b))

    def _valid(self, terms):
        """The enumerator's check on (term, cover mask, hinge mask)
        triples, cross-checked against the test's reference."""
        options = [
            (
                term,
                sum(1 << a for a in term.covers()),
                0 if term.role == "count" else 1 << term.hinge,
            )
            for term in terms
        ]
        valid = _acyclic_coverage(options)
        assert valid == reference_acyclic(terms)
        return valid

    def test_all_count_formula_valid(self):
        terms = [
            _Term(self._edge_rel(0, 1), "count"),
            _Term(self._edge_rel(1, 2), "count"),
        ]
        assert self._valid(terms)

    def test_circular_degree_coverage_rejected(self):
        terms = [
            _Term(self._edge_rel(0, 1), "degree", hinge=0),
            _Term(self._edge_rel(0, 1, 1), "degree", hinge=1),
        ]
        assert not self._valid(terms)

    def test_count_then_degree_chain_valid(self):
        terms = [
            _Term(self._edge_rel(0, 1), "count"),
            _Term(self._edge_rel(1, 2), "degree", hinge=1),
        ]
        assert self._valid(terms)

    def test_formula_enumeration_covers_all_attrs(self, fig1_graph, fig1_query):
        est = BoundSketch(fig1_graph)
        formulas = list(est.get_substructures(fig1_query, fig1_query))
        assert formulas
        attrs = frozenset(range(fig1_query.num_vertices))
        for formula in formulas:
            covered = frozenset().union(*(t.covers() for t in formula))
            assert covered == attrs

    def test_too_many_attributes_rejected(self, fig1_graph):
        query = QueryGraph(
            [()] * 27, [(i, i + 1, 0) for i in range(26)]
        )
        est = BoundSketch(fig1_graph)
        with pytest.raises(UnsupportedQueryError):
            est.estimate(query)


class TestUpperBound:
    def test_figure1_bound_at_least_truth(self, fig1_graph, fig1_query):
        est = BoundSketch(fig1_graph)
        truth = count_embeddings(fig1_graph, fig1_query).count
        assert est.estimate(fig1_query).estimate >= truth

    def test_bigger_budget_tightens_bound(self, fig1_graph, fig1_query):
        loose = BoundSketch(fig1_graph, budget=1).estimate(fig1_query).estimate
        tight = BoundSketch(fig1_graph, budget=4096).estimate(fig1_query).estimate
        assert tight <= loose

    def test_min_aggregation(self, fig1_graph):
        est = BoundSketch(fig1_graph)
        assert est.agg_card([5.0, 2.0, 9.0]) == 2.0
        assert est.agg_card([float("inf"), 3.0]) == 3.0
        assert est.agg_card([]) == 0.0


# ---------------------------------------------------------------------------
# property test: BS is a guaranteed upper bound
# ---------------------------------------------------------------------------
@st.composite
def labelled_graphs(draw, num_vertices=6):
    labels = {
        v: draw(st.sets(st.integers(0, 1), max_size=2))
        for v in range(num_vertices)
    }
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, num_vertices - 1),
            st.integers(0, num_vertices - 1),
            st.integers(0, 1),
        ),
        max_size=18,
    ))
    return Graph.from_edges(edges, labels, num_vertices=num_vertices)


@st.composite
def random_queries(draw, min_vertices=2, max_vertices=5):
    """A random spanning tree plus random extra edges: self loops,
    parallel and antiparallel edges and longer cycles all occur."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = [draw(st.sets(st.integers(0, 1), max_size=1)) for _ in range(n)]
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


queries = st.sampled_from(
    [
        QueryGraph([(), ()], [(0, 1, 0)]),
        QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 0)]),
        QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 1)]),
        QueryGraph([(), (), ()], [(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
        QueryGraph([(), (), (), ()], [(0, 1, 0), (1, 2, 0), (2, 3, 1)]),
        QueryGraph([(), (), ()], [(0, 1, 0), (0, 2, 1), (1, 2, 0)]),
    ]
)


@given(
    graph=labelled_graphs(),
    query=st.one_of(queries, random_queries()),
    budget=st.sampled_from([1, 64, 4096]),
)
@settings(max_examples=150, deadline=None)
def test_boundsketch_never_underestimates(graph, query, budget):
    truth = brute_force_count(graph, query)
    estimate = BoundSketch(graph, budget=budget).estimate(query).estimate
    assert estimate >= truth


# ---------------------------------------------------------------------------
# evaluation oracle: references that share no code with est_card or the
# formula enumerator
# ---------------------------------------------------------------------------
def reference_acyclic(terms):
    remaining = list(terms)
    covered = set()
    while remaining:
        progress = False
        for term in list(remaining):
            if term.role == "count" or term.hinge in covered:
                covered |= term.covers()
                remaining.remove(term)
                progress = True
        if not progress:
            return False
    return True


def reference_formulas(est, query):
    """The straightforward DFS: every relation takes no term, its count
    term or a degree term, pruned when the rest cannot cover A_Q."""
    relations = est._relations(query)
    attributes = frozenset(range(query.num_vertices))
    formulas = []

    def roles(relation):
        options = [None, _Term(relation, "count")]
        if relation.kind == "edge" and not relation.self_loop:
            options += [_Term(relation, "degree", a) for a in relation.attrs]
        return options

    def assign(index, chosen, covered):
        if len(formulas) >= MAX_FORMULAS:
            return
        if index == len(relations):
            if covered == attributes and reference_acyclic(chosen):
                formulas.append(tuple(chosen))
            return
        rest = set().union(*(r.attrs for r in relations[index:]))
        if not attributes <= covered | rest:
            return
        for term in roles(relations[index]):
            if term is None:
                assign(index + 1, chosen, covered)
            else:
                assign(index + 1, chosen + [term], covered | term.covers())

    assign(0, [], set())
    return formulas


def reference_card(est, query, formula):
    """One formula's partitioned sum as an einsum over the sketches."""
    import numpy as np

    partitions = est.partitions_for(query.num_vertices)
    operands, subscripts = [], []
    for term in formula:
        relation = term.relation
        if relation.kind == "vertex":
            operands.append(est._vertex_sketches(relation.label, partitions))
        else:
            count, deg_src, deg_dst = est._edge_sketches(
                relation.label, partitions, relation.self_loop
            )
            if term.role == "count":
                operands.append(count)
            else:
                hinge_first = term.hinge == relation.attrs[0]
                operands.append(deg_src if hinge_first else deg_dst)
        subscripts.append("".join(chr(ord("a") + a) for a in relation.attrs))
    return float(np.einsum(",".join(subscripts) + "->", *operands))


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@given(
    graph=labelled_graphs(),
    query=st.one_of(queries, random_queries(min_vertices=1)),
    budget=st.sampled_from([1, 64, 4096, 16384]),
    shuffle_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_evaluation_matches_einsum_reference(graph, query, budget, shuffle_seed):
    est = BoundSketch(graph, budget=budget)
    formulas = list(est.get_substructures(query, query))
    assert formulas == reference_formulas(est, query)
    # warm: one estimator, formulas in enumeration order
    warm = [est.est_card(query, query, f) for f in formulas]
    for formula, value in zip(formulas, warm):
        assert close(value, reference_card(est, query, formula))
    # shuffled: another estimator, another order, the same floats
    order = list(range(len(formulas)))
    random.Random(shuffle_seed).shuffle(order)
    shuffled_est = BoundSketch(graph, budget=budget)
    shuffled = {i: shuffled_est.est_card(query, query, formulas[i]) for i in order}
    assert [shuffled[i] for i in range(len(formulas))] == warm
    # cold: a fresh estimator for each of a few formulas
    for i in order[:8]:
        cold = BoundSketch(graph, budget=budget)
        assert cold.est_card(query, query, formulas[i]) == warm[i]


# ---------------------------------------------------------------------------
# the MAX_FORMULAS guard is visible, and estimating leaves no trace in the
# exported summary
# ---------------------------------------------------------------------------
class TestTruncation:
    # a 7-edge path: 3^6 = 729 valid formulas, over the cap of 512
    LONG_PATH = QueryGraph([()] * 8, [(i, i + 1, i % 2) for i in range(7)])

    def test_capped_enumeration_is_marked_truncated(self, fig1_graph):
        est = BoundSketch(fig1_graph)
        est.obs = TraceCollector()
        result = est.estimate(self.LONG_PATH)
        assert result.num_substructures == MAX_FORMULAS
        assert result.info["truncated"]
        assert est.obs.counters["bs.truncated"] == 1

    def test_complete_enumeration_is_not_truncated(self, fig1_graph, fig1_query):
        est = BoundSketch(fig1_graph)
        est.obs = TraceCollector()
        result = est.estimate(fig1_query)
        assert 0 < result.num_substructures < MAX_FORMULAS
        assert not result.info["truncated"]
        assert "bs.truncated" not in est.obs.counters

    def test_flag_resets_per_query(self, fig1_graph, fig1_query):
        est = BoundSketch(fig1_graph)
        assert est.estimate(self.LONG_PATH).info["truncated"]
        assert not est.estimate(fig1_query).info["truncated"]

    def test_enumeration_repeats_after_truncation(self, fig1_graph):
        est = BoundSketch(fig1_graph)
        first = list(est.get_substructures(self.LONG_PATH, self.LONG_PATH))
        second = list(est.get_substructures(self.LONG_PATH, self.LONG_PATH))
        assert len(first) == MAX_FORMULAS
        assert second == first
        assert est.estimation_info()["truncated"]


def test_estimating_leaves_export_summary_unchanged(fig1_graph):
    # 4 attributes at budget 4096 -> M = 8, whose sketches prepare builds
    query = QueryGraph(
        [(0,), (), (), ()], [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 1, 1)]
    )
    est = BoundSketch(fig1_graph)
    est.prepare()
    before = est.export_summary()
    assert est.estimate(query).num_substructures > 0
    assert est.export_summary() == before


def test_estimate_cut_short_leaves_no_stale_grid_after_graph_change(
    fig1_graph, fig1_query
):
    # an estimate stopped inside the formula loop never reaches agg_card;
    # its grid vectors must not answer the same query on the changed graph
    est = BoundSketch(fig1_graph)
    checks = 0

    def deadline_after_three_formulas():
        nonlocal checks
        checks += 1
        if checks > 3:
            raise EstimationTimeout("cut short")

    est.check_deadline = deadline_after_three_formulas
    with pytest.raises(EstimationTimeout):
        est.estimate(fig1_query)
    del est.check_deadline
    fig1_graph.enable_journal()
    base = fig1_graph.generation
    for _ in range(3):  # three more embeddings of the query
        image = [
            fig1_graph.add_vertex(labels) for labels in fig1_query.vertex_labels
        ]
        for src, dst, label in fig1_query.edges:
            fig1_graph.add_edge(image[src], image[dst], label)
    assert est.apply_deltas(fig1_graph, fig1_graph.deltas_since(base)) == "reprepare"
    cold = BoundSketch(fig1_graph).estimate(fig1_query).estimate
    assert cold >= brute_force_count(fig1_graph, fig1_query)
    assert est.estimate(fig1_query).estimate == cold
