"""JSUB — join sampling with upper bounds (paper, Section 4.3).

Derived from Zhao et al.'s random-sampling-over-joins framework (SIGMOD
2018).  JSUB extracts a *maximal acyclic subquery* ``q_1`` (a spanning tree
of the query), estimates ``|q_1|`` by sampling tuples from the first
relation and computing their Exact Weight ``w(t)`` — the number of join
results of ``t`` with the remaining tree relations — and returns
``avg(w(t)) * |R_1| * M(q_1)`` with ``M(q_1) = 1`` as in the paper.

For a cyclic query ``|q_1| >= |Q|``, so JSUB reports an upper bound; this
is the overestimation on cycle/petal/flower queries the paper observes
(Section 6.2.2).  The spanning tree and its root relation are chosen by
short trial runs, picking the (q_1, order) with the *smallest* estimate; if
no trial obtains a valid sample the estimate is 0 — the decomposition
sampling failure that the paper blames for JSUB's underestimation on Q4,
Q7 and Q12 of LUBM.

Exact weights are computed by dynamic programming over the tree: subtree
extension counts are memoized per (query vertex, data vertex), as in the
original framework ("computes W(t) only if t is sampled").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.framework import Estimator
from ..graph.digraph import Graph
from ..graph.query import QueryGraph
from ..kernels import ops as _kops
from ..kernels import sampling as _ksampling
from ..kernels import views as _kviews

QueryEdge = Tuple[int, int, int]

#: number of trial samples used to score one (tree, root) candidate
TRIAL_SAMPLES = 10
#: cap on (spanning tree, root edge) candidates scored during decomposition
MAX_CANDIDATES = 32
#: cap on entries in a shared exact-weight memo (per tree shape)
MEMO_MAX = 1 << 18


def _label_structures(
    graph: Graph, query: QueryGraph
) -> Tuple[Dict[int, Optional[FrozenSet[int]]], Dict[int, object]]:
    """Per-query-vertex label member sets and sorted member arrays.

    Shared by every sampler of a query (they differ only in tree shape),
    so the estimator builds these once per query signature instead of
    once per sampler — up to :data:`MAX_CANDIDATES` rebuilds saved per
    estimate call on the sealed hot path.
    """
    label_sets: Dict[int, Optional[FrozenSet[int]]] = {
        u: (
            graph.labels_member_set(query.vertex_labels[u])
            if query.vertex_labels[u]
            else None
        )
        for u in range(query.num_vertices)
    }
    member_arrs: Dict[int, object] = {
        u: (
            _kviews.member_array(graph, query.vertex_labels[u])
            if query.vertex_labels[u]
            else None
        )
        for u in range(query.num_vertices)
    }
    return label_sets, member_arrs


def _orient_tree(
    query: QueryGraph, tree_edges: List[int], root_edge: int
) -> Dict[int, List[QueryEdge]]:
    """Child-edge map of ``tree_edges`` oriented away from the root edge.

    A pure function of the query structure — hoisted out of
    :class:`_TreeSampler` so decomposition can cache one orientation per
    ``(tree, root)`` instead of re-deriving it on every estimate call
    (the BENCH_PR5 sealed-slower-than-unsealed regression: JSUB rebuilt
    up to 32 samplers' worth of this per estimate).
    """
    u, v, _ = query.edges[root_edge]
    children: Dict[int, List[QueryEdge]] = {}
    visited = {u, v}
    frontier = [u, v]
    remaining = [i for i in tree_edges if i != root_edge]
    while frontier:
        x = frontier.pop()
        for i in list(remaining):
            a, b, label = query.edges[i]
            if a == x and b not in visited:
                children.setdefault(x, []).append((a, b, label))
                visited.add(b)
                frontier.append(b)
                remaining.remove(i)
            elif b == x and a not in visited:
                children.setdefault(x, []).append((a, b, label))
                visited.add(a)
                frontier.append(a)
                remaining.remove(i)
    return children


class _TreeSampler:
    """Exact-weight sampler over one rooted spanning tree."""

    def __init__(
        self,
        graph: Graph,
        query: QueryGraph,
        tree_edges: List[int],
        root_edge: int,
        children: Optional[Dict[int, List[QueryEdge]]] = None,
        memo: Optional[Dict[Tuple[int, int], int]] = None,
        is_leaf: Optional[Tuple[bool, ...]] = None,
        label_structs: Optional[Tuple[Dict, Dict]] = None,
    ) -> None:
        self.graph = graph
        self.query = query
        self.tree_edges = tree_edges
        self.root_edge = root_edge
        # the tree orientation and exact-weight memo may be injected by
        # the estimator's decomposition cache (sealed hot path); a fresh
        # sampler derives/allocates its own, with identical contents
        self._children = (
            children
            if children is not None
            else _orient_tree(query, tree_edges, root_edge)
        )
        self._memo: Dict[Tuple[int, int], int] = memo if memo is not None else {}
        # leaves of the oriented tree: their subtree count collapses to a
        # label-membership count over the candidate segment, which the
        # kernel layer batch-counts instead of walking the DP per vertex
        self._is_leaf = (
            is_leaf
            if is_leaf is not None
            else tuple(u not in self._children for u in range(query.num_vertices))
        )
        # sealed graphs expose the root relation as a cached tuple of
        # pairs; indexing it skips the per-access tuple construction of
        # the live pair view (same pairs, same order — RNG parity holds)
        self._sealed = bool(getattr(graph, "sealed", False))
        _, _, root_label = query.edges[root_edge]
        self._root_pairs: Sequence[Tuple[int, int]] = (
            graph.edge_pairs(root_label)
            if self._sealed
            else graph.edges_with_label(root_label)
        )
        if self._sealed:
            # per-query-vertex member sets (cached on the graph): one C
            # membership test per DP node instead of a subset comparison;
            # samplers of the same query share one build via the
            # estimator's decomposition cache
            if label_structs is None:
                label_structs = _label_structures(graph, query)
            self._label_sets, self._member_arrs = label_structs

    # ------------------------------------------------------------------
    def root_relation_size(self) -> int:
        _, _, label = self.query.edges[self.root_edge]
        return self.graph.edge_label_count(label)

    def sample_root(self, rng) -> Optional[Tuple[int, int]]:
        pairs = self._root_pairs
        if not pairs:
            return None
        return pairs[rng.randrange(len(pairs))]

    def sample_roots(self, rng, k: int) -> List[Tuple[int, int]]:
        """``k`` uniform root tuples — one frontier-batched kernel call.

        Index drawing replays the exact scalar ``randrange`` sequence
        (stream parity with ``k`` :meth:`sample_root` calls); the tuples
        are already materialized, so the gather is plain indexing.
        """
        pairs = self._root_pairs
        if not pairs:
            return []
        return [pairs[i] for i in _ksampling.draw_indices(rng, len(pairs), k)]

    def exact_weight(self, root_tuple: Tuple[int, int]) -> int:
        """w(t): join results of the root tuple with the rest of the tree."""
        u, v, _ = self.query.edges[self.root_edge]
        a, b = root_tuple
        if not self._labels_ok(u, a) or not self._labels_ok(v, b):
            return 0
        if u == v and a != b:  # self-loop query edge
            return 0
        weight = self._branch_product(u, a)
        if weight == 0:
            return 0
        if v != u:
            weight *= self._branch_product(v, b)
        return weight

    # ------------------------------------------------------------------
    def _labels_ok(self, query_vertex: int, value: int) -> bool:
        if self._sealed:
            member_set = self._label_sets[query_vertex]
            return member_set is None or value in member_set
        labels = self.query.vertex_labels[query_vertex]
        return not labels or labels <= self.graph.vertex_labels(value)

    def _branch_product(self, query_vertex: int, value: int) -> int:
        product = 1
        for a, b, label in self._children.get(query_vertex, ()):  # child edges
            if a == query_vertex:  # query_vertex --label--> child b
                child, candidates = b, self.graph.out_neighbors(value, label)
            else:  # child a --label--> query_vertex
                child, candidates = a, self.graph.in_neighbors(value, label)
            if self._sealed and self._is_leaf[child]:
                # leaf subtree: each candidate contributes 1 iff it
                # carries the child's labels, so the branch sum is one
                # batched membership count over the adjacency segment —
                # the kernel path that fixes JSUB's per-step neighbor
                # re-materialization
                member_set = self._label_sets[child]
                if member_set is None:
                    branch = len(candidates)
                else:
                    branch = _kops.count_members(
                        candidates, member_set, self._member_arrs[child]
                    )
            else:
                branch = 0
                for w in candidates:
                    branch += self._subtree_count(child, w)
            product *= branch
            if product == 0:
                return 0
        return product

    def _subtree_count(self, query_vertex: int, value: int) -> int:
        if not self._labels_ok(query_vertex, value):
            return 0
        key = (query_vertex, value)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        count = self._branch_product(query_vertex, value)
        if len(self._memo) < MEMO_MAX:
            self._memo[key] = count
        return count


class Jsub(Estimator):
    """The JSUB technique expressed in the G-CARE framework."""

    name = "jsub"
    display_name = "JSUB"
    is_sampling_based = True
    # estimates only read relations and label memberships named by the
    # query, so a delta touching disjoint label scopes cannot change them
    delta_local = True

    def __init__(self, graph: Graph, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self._chosen: Optional[_TreeSampler] = None
        # observability: samples drawn by the current estimate
        self._trial_samples = 0
        self._root_samples = 0
        # decomposition cache: spanning trees and their oriented child
        # maps are pure functions of the query structure, so repeated
        # estimates over the same query shape skip the per-call rebuild
        # (the BENCH_PR5 sealed-hot-loop regression)
        self._decomp_cache: Dict[tuple, List[tuple]] = {}

    def update_summary(self, deltas) -> None:
        """Drop graph-derived decomposition state; keep the pure plans.

        Spanning trees and orientations are functions of the query alone
        and survive any delta; the cached label-membership structures
        read the graph and are rebuilt lazily against the rebound one.
        (Exact-weight memos live in ``graph.shared_cache``, which a
        reseal replaces wholesale.)
        """
        for key in [k for k in self._decomp_cache if k[0] == "jsub.labels"]:
            del self._decomp_cache[key]

    def reset_summary(self) -> None:
        super().reset_summary()
        self._decomp_cache.clear()

    # ------------------------------------------------------------------
    # DecomposeQuery: pick (q_1, o) = argmin of trial estimates
    # ------------------------------------------------------------------
    def decompose_query(self, query: QueryGraph) -> Sequence[_TreeSampler]:
        self._trial_samples = 0
        self._root_samples = 0
        candidates = self._candidate_samplers(query)
        best: Optional[_TreeSampler] = None
        best_estimate = float("inf")
        for sampler in candidates:
            self.check_deadline()
            estimate = self._trial_estimate(sampler)
            if estimate is not None and estimate < best_estimate:
                best, best_estimate = sampler, estimate
        if best is None:
            # no valid sample from any (q_1, o): the paper returns 0
            self._chosen = None
            return [None]
        self._chosen = best
        return [best]

    def _candidate_samplers(self, query: QueryGraph) -> List[_TreeSampler]:
        qsig = (query.num_vertices, tuple(query.edges))
        plans = self._decomp_cache.get(qsig)
        if plans is None:
            plans = []
            for tree in self._spanning_trees(query):
                for root_edge in tree:
                    children = _orient_tree(query, tree, root_edge)
                    is_leaf = tuple(
                        u not in children for u in range(query.num_vertices)
                    )
                    plans.append((tree, root_edge, children, is_leaf))
                    if len(plans) >= MAX_CANDIDATES:
                        break
                if len(plans) >= MAX_CANDIDATES:
                    break
            self._decomp_cache[qsig] = plans
        # on sealed graphs the exact-weight memo is shared across
        # estimate() calls (and estimator instances) per tree shape: the
        # DP counts are exact integers determined by the immutable graph
        # and the labeled tree, so reuse cannot change any estimate
        shared = getattr(self.graph, "shared_cache", None)
        sealed = bool(getattr(self.graph, "sealed", False))
        labels_sig = (
            tuple(tuple(sorted(s)) for s in query.vertex_labels)
            if shared is not None or sealed
            else None
        )
        label_structs = None
        if sealed:
            key = ("jsub.labels", query.num_vertices, labels_sig)
            label_structs = self._decomp_cache.get(key)
            if label_structs is None:
                label_structs = _label_structures(self.graph, query)
                self._decomp_cache[key] = label_structs
        samplers: List[_TreeSampler] = []
        for tree, root_edge, children, is_leaf in plans:
            memo = None
            if shared is not None:
                memo = shared.setdefault(
                    ("jsub.memo", qsig, labels_sig, tuple(tree), root_edge), {}
                )
            samplers.append(
                _TreeSampler(
                    self.graph,
                    query,
                    tree,
                    root_edge,
                    children=children,
                    memo=memo,
                    is_leaf=is_leaf,
                    label_structs=label_structs,
                )
            )
        return samplers

    def _spanning_trees(self, query: QueryGraph) -> List[List[int]]:
        """BFS spanning trees from each query vertex (deduplicated)."""
        seen: Set[FrozenSet[int]] = set()
        trees: List[List[int]] = []
        for start in range(query.num_vertices):
            tree: List[int] = []
            visited = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop(0)
                for i, (a, b, _) in enumerate(query.edges):
                    if a == x and b not in visited:
                        visited.add(b)
                        frontier.append(b)
                        tree.append(i)
                    elif b == x and a not in visited:
                        visited.add(a)
                        frontier.append(a)
                        tree.append(i)
            key = frozenset(tree)
            if key not in seen:
                seen.add(key)
                trees.append(sorted(tree))
        return trees

    def _trial_estimate(self, sampler: _TreeSampler) -> Optional[float]:
        """Mean of a few exact-weight samples; None if no valid sample."""
        size = sampler.root_relation_size()
        if size == 0:
            return None
        total = 0.0
        valid = False
        # frontier batch: all trial indices in one kernel call (the draw
        # sequence is exactly TRIAL_SAMPLES scalar randrange calls)
        for root_tuple in sampler.sample_roots(self.rng, TRIAL_SAMPLES):
            self._trial_samples += 1
            weight = sampler.exact_weight(root_tuple)
            if weight > 0:
                valid = True
            total += weight * size
        return total / TRIAL_SAMPLES if valid else None

    # ------------------------------------------------------------------
    # GetSubstructure / EstCard / AggCard
    # ------------------------------------------------------------------
    def get_substructures(
        self, query: QueryGraph, subquery: Optional[_TreeSampler]
    ) -> Iterator[float]:
        if subquery is None:
            yield 0.0
            return
        sampler = subquery
        size = sampler.root_relation_size()
        budget = self.num_samples(size)
        roots = sampler.sample_roots(self.rng, budget)
        if not roots:  # empty root relation: every sample fails
            for _ in range(budget):
                self._root_samples += 1
                yield 0.0
            return
        # the whole frontier's indices were drawn in one kernel call
        # above (scalar stream parity); exact weights never consume the
        # RNG, so batching cannot reorder any draw
        for i, root_tuple in enumerate(roots):
            self._root_samples += 1
            # W(t)/P(t) with W(t) = w(t) (Exact Weight) and P(t) = 1/|R_1|
            yield sampler.exact_weight(root_tuple) * size
            if i % 64 == 0:
                self.check_deadline()

    def est_card(
        self, query: QueryGraph, subquery: Optional[_TreeSampler], substructure: float
    ) -> float:
        return substructure

    def agg_card(self, card_vec: Sequence[float]) -> float:
        if not card_vec:
            return 0.0
        return float(sum(card_vec) / len(card_vec))

    def record_counters(self, obs) -> None:
        obs.incr("jsub.trial_samples", self._trial_samples)
        obs.incr("jsub.root_samples", self._root_samples)

    def estimation_info(self) -> dict:
        chosen = self._chosen
        return {
            "tree_edges": chosen.tree_edges if chosen else None,
            "root_edge": chosen.root_edge if chosen else None,
        }
