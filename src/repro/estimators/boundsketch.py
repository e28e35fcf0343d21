"""BoundSketch (BS) — Cai, Balazinska & Suciu, SIGMOD 2019.

Summary-based relational technique computing a *guaranteed upper bound*
(paper, Section 4.4).  Each relation may appear in a bounding formula as a
count term ``c_R = |R|`` or a maximum-degree term ``d_R^a``; a formula is
valid when every query attribute is covered (count terms cover all of a
relation's attributes, a degree term on ``a`` covers the rest provided
``a`` is covered by another appearing relation).

To tighten the bound, every relation is hash-partitioned on its attributes
into ``M`` buckets per attribute, with ``M`` chosen from a *budget* so the
partitioned summation has at most ``budget`` terms (default 4096, as in
the paper).  The estimate of one formula is

    sum_{m in [M]^{|A_Q|}}  prod_terms  term(R^(m))

The grid ``[M]^|A_Q|`` has at most ``budget`` cells, so each term's sketch
tensor is broadcast once per query to a flat vector over the whole grid
and a formula is the sum of its terms' elementwise product.  Formulas
come out of a depth-first enumeration, so consecutive ones share long
prefixes; EstCard keeps the running products of the previous formula's
prefixes and multiplies in only the terms after the shared prefix.  At
most ``MAX_FORMULAS`` formulas are evaluated; an estimate the cap cut
short reports ``truncated``.  AggCard takes the MIN over formulas — the
tightest bound.

The paper's observations fall out of the math: BS always >= the true
cardinality, and its error grows with query size because larger formulas
multiply more count/degree factors (Sections 6.1.4 and 6.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import UnsupportedQueryError
from ..core.framework import Estimator
from ..graph.digraph import Graph
from ..graph.query import QueryGraph

_MASK = (1 << 64) - 1

#: cap on the number of valid bounding formulas evaluated per query
MAX_FORMULAS = 512


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


@dataclass(frozen=True)
class _RelationDesc:
    """One relation instance of the join query, as BS sees it."""

    kind: str  # "edge" or "vertex"
    label: int
    attrs: Tuple[int, ...]  # distinct query vertices, in tensor axis order
    self_loop: bool = False


@dataclass(frozen=True)
class _Term:
    """One term of a bounding formula."""

    relation: _RelationDesc
    role: str  # "count" or "degree"
    hinge: Optional[int] = None  # degree attribute for "degree" terms

    def covers(self) -> FrozenSet[int]:
        if self.role == "count":
            return frozenset(self.relation.attrs)
        return frozenset(a for a in self.relation.attrs if a != self.hinge)


Formula = Tuple[_Term, ...]


def _mask(attrs) -> int:
    mask = 0
    for a in attrs:
        mask |= 1 << a
    return mask


def _acyclic_coverage(options: Sequence[Tuple[Optional[_Term], int, int]]) -> bool:
    """Check that the terms admit a valid derivation order.

    ``options`` holds ``(term, cover mask, hinge mask)`` triples; a zero
    hinge mask marks a count term.  A degree term ``d_R^a`` conditions on
    ``a``, so ``a`` must be covered by terms processed *before* it (the
    entropy argument behind the bounds pays ``H(attrs | a)`` and needs
    ``H(a)`` paid first).  Circular coverage — two degree terms covering
    each other's hinges — is not a valid bound.
    """
    covered = 0
    pending = []
    for _, cover, hinge in options:
        if hinge:
            pending.append((cover, hinge))
        else:
            covered |= cover
    while pending:
        waiting = []
        for cover, hinge in pending:
            if hinge & covered:
                covered |= cover
            else:
                waiting.append((cover, hinge))
        if len(waiting) == len(pending):
            return False
        pending = waiting
    return True


class BoundSketch(Estimator):
    """The BS technique expressed in the G-CARE framework."""

    name = "bs"
    display_name = "BS"
    is_sampling_based = False
    # per-query diagnostics and evaluation scratch are not summary state
    _SUMMARY_EXCLUDED_STATE = Estimator._SUMMARY_EXCLUDED_STATE + (
        "_formulas_evaluated",
        "_truncated",
        "_grid_key",
        "_grid_vectors",
        "_prefix_stack",
    )

    def __init__(self, graph: Graph, budget: int = 4096, **kwargs) -> None:
        """``budget`` bounds the partitioned summation size M^|A_Q| and thus
        selects the per-attribute partition count M (paper default 4096)."""
        super().__init__(graph, **kwargs)
        self.budget = budget
        self._salt = 0x5DEECE66D ^ (self.seed * 0x9E3779B9)
        # sketch cache: (kind, label, M, variant) -> numpy tensor
        self._sketches: Dict[Tuple, np.ndarray] = {}
        # observability: formulas evaluated by the current estimate, and
        # whether MAX_FORMULAS cut the enumeration short
        self._formulas_evaluated = 0
        self._truncated = False
        # per-query scratch of est_card, released at the start of every
        # estimate, in agg_card and on reset_summary: the query the grid
        # was built for (by identity) and its M, grid vectors keyed by
        # term, and the (term, running product) stack of the last
        # formula's prefixes
        self._grid_key: Optional[Tuple[QueryGraph, int]] = None
        self._grid_vectors: Dict[_Term, np.ndarray] = {}
        self._prefix_stack: List[Tuple[_Term, np.ndarray]] = []

    # ------------------------------------------------------------------
    # PrepareSummaryStructure
    # ------------------------------------------------------------------
    def prepare_summary_structure(self) -> None:
        """Pre-build sketches of all relations at the common partition sizes.

        The paper populates the sketches of all relations before query
        processing (on-demand builds dominate estimation time); we pre-build
        at the M values implied by the budget for the query sizes in Table 1.
        """
        for num_attrs in (3, 4, 7, 10, 13):
            partitions = self.partitions_for(num_attrs)
            for label in self.graph.edge_labels():
                self._edge_sketches(label, partitions, self_loop=False)
            for label in self.graph.all_vertex_labels():
                self._vertex_sketches(label, partitions)

    def reset_summary(self) -> None:
        # no update_summary hook: max-degree sketch cells are not
        # incrementally maintainable under deletions without per-value
        # degree maps, so BS degrades to a full re-prepare — which must
        # not serve sketches built from the pre-delta graph
        super().reset_summary()
        self._sketches.clear()
        self._release_scratch()

    def partitions_for(self, num_attrs: int) -> int:
        """M = floor(budget^(1/|A_Q|)), at least 1."""
        if num_attrs <= 0:
            return 1
        # epsilon guards against 4096**(1/3) = 15.999... flooring to 15
        return max(1, int(self.budget ** (1.0 / num_attrs) + 1e-9))

    def _bucket(self, value: int, partitions: int) -> int:
        if partitions <= 1:
            return 0
        return _splitmix64(value ^ self._salt) % partitions

    # -- edge relation sketches -----------------------------------------
    def _edge_sketches(
        self, label: int, partitions: int, self_loop: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(count, max-degree-over-src, max-degree-over-dst) tensors."""
        key = ("edge", label, partitions, self_loop)
        cached = self._sketches.get(key)
        if cached is not None:
            return cached
        pairs = self.graph.edges_with_label(label)
        if self_loop:
            buckets = [self._bucket(s, partitions) for s, d in pairs if s == d]
            count = np.zeros(partitions, dtype=np.float64)
            for i in buckets:
                count[i] += 1
            # degree of a value on the single attribute = its self-loop count
            per_value: Dict[int, int] = {}
            for s, d in pairs:
                if s == d:
                    per_value[s] = per_value.get(s, 0) + 1
            degree = np.zeros(partitions, dtype=np.float64)
            for value, deg in per_value.items():
                i = self._bucket(value, partitions)
                degree[i] = max(degree[i], deg)
            result = (count, degree, degree)
        else:
            count = np.zeros((partitions, partitions), dtype=np.float64)
            src_group: Dict[Tuple[int, int], int] = {}
            dst_group: Dict[Tuple[int, int], int] = {}
            for s, d in pairs:
                i, j = self._bucket(s, partitions), self._bucket(d, partitions)
                count[i, j] += 1
                src_group[(s, j)] = src_group.get((s, j), 0) + 1
                dst_group[(d, i)] = dst_group.get((d, i), 0) + 1
            deg_src = np.zeros_like(count)
            for (s, j), deg in src_group.items():
                i = self._bucket(s, partitions)
                deg_src[i, j] = max(deg_src[i, j], deg)
            deg_dst = np.zeros_like(count)
            for (d, i), deg in dst_group.items():
                j = self._bucket(d, partitions)
                deg_dst[i, j] = max(deg_dst[i, j], deg)
            result = (count, deg_src, deg_dst)
        self._sketches[key] = result
        return result

    # -- vertex relation sketches ----------------------------------------
    def _vertex_sketches(self, label: int, partitions: int) -> np.ndarray:
        key = ("vertex", label, partitions, False)
        cached = self._sketches.get(key)
        if cached is not None:
            return cached
        count = np.zeros(partitions, dtype=np.float64)
        for v in self.graph.vertices_with_label(label):
            count[self._bucket(v, partitions)] += 1
        self._sketches[key] = count
        return count

    # ------------------------------------------------------------------
    # DecomposeQuery: the whole query; GetSubstructure: bounding formulas
    # ------------------------------------------------------------------
    def decompose_query(self, query: QueryGraph) -> Sequence[QueryGraph]:
        if query.num_vertices > 26:
            raise UnsupportedQueryError("BoundSketch supports <= 26 attributes")
        self._formulas_evaluated = 0
        # an estimate cut short (timeout, memory budget) never reaches
        # agg_card; its scratch must not serve this one
        self._release_scratch()
        return [query]

    def _relations(self, query: QueryGraph) -> List[_RelationDesc]:
        relations: List[_RelationDesc] = []
        for u, v, label in query.edges:
            if u == v:
                relations.append(_RelationDesc("edge", label, (u,), True))
            else:
                relations.append(_RelationDesc("edge", label, (u, v)))
        for u in range(query.num_vertices):
            for label in sorted(query.vertex_labels[u]):
                relations.append(_RelationDesc("vertex", label, (u,)))
        return relations

    def get_substructures(
        self, query: QueryGraph, subquery: QueryGraph
    ) -> Iterator[Formula]:
        """Enumerate valid bounding formulas (capped at MAX_FORMULAS).

        A depth-first walk assigns each relation, in order, no term, its
        count term or one of its degree terms.  Every relation's terms are
        built once, so consecutive formulas share their prefix terms by
        identity (which :meth:`est_card` exploits).  When the cap stops the
        walk and a further valid formula exists, the estimate is marked
        truncated.
        """
        self._truncated = False
        relations = self._relations(subquery)
        full = (1 << subquery.num_vertices) - 1
        # per relation: (term or None, cover mask, hinge mask or 0 for
        # terms that need no prior coverage)
        options: List[List[Tuple[Optional[_Term], int, int]]] = []
        for relation in relations:
            attrs_mask = _mask(relation.attrs)
            choices = [(None, 0, 0), (_Term(relation, "count"), attrs_mask, 0)]
            if relation.kind == "edge" and not relation.self_loop:
                for hinge in relation.attrs:
                    choices.append((
                        _Term(relation, "degree", hinge),
                        attrs_mask & ~(1 << hinge),
                        1 << hinge,
                    ))
            options.append(choices)
        # suffix[i]: attributes the relations from i on can still cover
        suffix = [0] * (len(relations) + 1)
        for i in range(len(relations) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | _mask(relations[i].attrs)
        chosen: List[Tuple[Optional[_Term], int, int]] = []
        emitted = 0

        def assign(index: int, covered: int) -> Iterator[Formula]:
            nonlocal emitted
            if self._truncated:
                return
            if index == len(relations):
                if covered != full or not _acyclic_coverage(chosen):
                    return
                if emitted >= MAX_FORMULAS:
                    self._truncated = True
                    return
                emitted += 1
                yield tuple(term for term, _, _ in chosen)
                return
            if full & ~(covered | suffix[index]):
                return
            for option in options[index]:
                if option[0] is None:
                    yield from assign(index + 1, covered)
                else:
                    chosen.append(option)
                    yield from assign(index + 1, covered | option[1])
                    chosen.pop()

        yield from assign(0, 0)

    # ------------------------------------------------------------------
    # EstCard: partitioned evaluation of one formula over the grid
    # ------------------------------------------------------------------
    def est_card(
        self, query: QueryGraph, subquery: QueryGraph, substructure: Formula
    ) -> float:
        """Sum over the partition grid of the product of the formula's terms.

        Each term is broadcast once per query to a flat vector over the
        full grid ``[M]^|A_Q|``; the running products of a formula's
        prefixes are kept on a stack, so a formula sharing its first k terms
        with the previous one multiplies in only the rest.  Prefix k's
        vector is always the left fold of the formula's first k terms, so
        the value does not depend on what was evaluated before.
        """
        formula = substructure
        self._formulas_evaluated += 1
        partitions = self.partitions_for(subquery.num_vertices)
        key = self._grid_key
        if key is None or key[0] is not subquery or key[1] != partitions:
            self._release_scratch()
            self._grid_key = (subquery, partitions)
        stack = self._prefix_stack
        shared = 0
        limit = min(len(stack), len(formula))
        while shared < limit and stack[shared][0] is formula[shared]:
            shared += 1
        del stack[shared:]
        product = stack[-1][1] if stack else None
        for term in formula[shared:]:
            vector = self._grid_vectors.get(term)
            if vector is None:
                vector = self._grid_vector(term, subquery.num_vertices, partitions)
                self._grid_vectors[term] = vector
            product = vector if product is None else product * vector
            stack.append((term, product))
        return float(product.sum())

    def _grid_vector(self, term: _Term, num_attrs: int, partitions: int) -> np.ndarray:
        """The term's sketch tensor broadcast to the flat ``(M,)*|A_Q|`` grid."""
        tensor = self._term_tensor(term.relation, term, partitions)
        attrs = term.relation.attrs
        if len(attrs) == 2 and attrs[0] > attrs[1]:
            tensor, attrs = tensor.T, (attrs[1], attrs[0])
        shape = [1] * num_attrs
        for a in attrs:
            shape[a] = partitions
        grid = np.broadcast_to(tensor.reshape(shape), (partitions,) * num_attrs)
        return grid.ravel()

    def _term_tensor(
        self, relation: _RelationDesc, term: _Term, partitions: int
    ) -> np.ndarray:
        if relation.kind == "vertex":
            return self._vertex_sketches(relation.label, partitions)
        count, deg_src, deg_dst = self._edge_sketches(
            relation.label, partitions, relation.self_loop
        )
        if term.role == "count":
            return count
        if term.hinge == relation.attrs[0]:
            return deg_src
        return deg_dst

    def _release_scratch(self) -> None:
        self._grid_key = None
        self._grid_vectors = {}
        self._prefix_stack = []

    def agg_card(self, card_vec: Sequence[float]) -> float:
        """MIN over bounding formulas: the tightest upper bound."""
        self._release_scratch()  # the query's formulas are all evaluated
        finite = [c for c in card_vec if c != float("inf")]
        if not finite:
            return 0.0
        return float(min(finite))

    def summary_objects(self) -> tuple:
        return (self._sketches,)

    def record_counters(self, obs) -> None:
        obs.incr("bs.formulas_evaluated", self._formulas_evaluated)
        if self._truncated:
            obs.incr("bs.truncated")

    def estimation_info(self) -> dict:
        return {"truncated": self._truncated}
