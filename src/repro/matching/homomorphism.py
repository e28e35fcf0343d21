"""Exact subgraph matching by graph homomorphism.

The paper defines subgraph matching via graph homomorphism (Section 2):
an embedding maps query vertices to data vertices such that vertex labels
are contained, and every query edge maps to a data edge with the same label.
Homomorphisms are *not* required to be injective.

This module provides the ground-truth cardinality counter used to compute
true cardinalities for q-error evaluation, and is reused by estimators that
execute (sub)queries over restricted data (CorrelatedSampling counts the
join over its samples; SumRDF matches the query against its summary graph).

The counter is a backtracking search with:

* a matching order that starts from the most selective query vertex and
  grows along query edges (so every subsequent vertex is constrained by at
  least one assigned neighbor when the query is connected),
* candidate generation from the smallest adjacency list,
* a *leaf product* shortcut: when all remaining query vertices are mutually
  non-adjacent and fully constrained by assigned vertices, the number of
  completions is the product of their candidate counts,
* optional per-query-edge candidate restrictions, a wall-clock budget and a
  count cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graph.digraph import Graph
from ..graph.query import QueryGraph
from ..kernels import ops as _kops

try:  # typing helper for vertex filter predicates
    from typing import Callable

    VertexFilter = Callable[[int], bool]
except ImportError:  # pragma: no cover
    pass


@dataclass
class MatchResult:
    """Outcome of a counting run.

    ``complete`` is False when the run stopped early (timeout or count cap);
    ``count`` is then a lower bound on the true cardinality.  ``steps``
    counts backtracking search nodes (calls of the recursive search) —
    the matcher's work metric, surfaced by the observability layer as
    the ``match.backtrack_steps`` counter.
    """

    count: int
    complete: bool
    elapsed: float
    steps: int = 0

    def __int__(self) -> int:
        return self.count


class BudgetExceeded(Exception):
    """Internal signal: wall-clock or count budget exhausted."""


# A constraint of an unassigned query vertex u against an assigned vertex:
# (assigned query vertex, direction, edge label, edge index).
_Constraint = Tuple[int, str, int, int]


class HomomorphismCounter:
    """Counts homomorphic embeddings of a query in a data graph."""

    def __init__(
        self,
        graph: Graph,
        query: QueryGraph,
        edge_candidates: Optional[Dict[int, Set[Tuple[int, int]]]] = None,
        vertex_filters: Optional[Dict[int, "VertexFilter"]] = None,
        use_bitsets: Optional[bool] = None,
    ) -> None:
        """``edge_candidates`` optionally restricts which data edge may match
        a given query edge (keyed by index into ``query.edges``);
        ``vertex_filters`` optionally restricts which data vertex may match a
        query vertex (keyed by query vertex, value is a predicate).
        ``use_bitsets`` toggles the sealed substrate's adjacency-bitset
        intersection kernel (default: on whenever the graph provides it)."""
        self.graph = graph
        self.query = query
        self.edge_candidates = edge_candidates or {}
        self.vertex_filters = vertex_filters or {}
        self._order = self._matching_order()
        self._deadline = 0.0
        self._cap = 0
        self._count = 0
        self._steps = 0
        # sealed graphs expose memoized neighbor/label frozensets, which
        # turns the per-candidate constraint probes into plain set
        # membership; the dict-backed path below stays untouched
        self._sealed = bool(getattr(graph, "sealed", False))
        bits_available = self._sealed and hasattr(graph, "out_neighbor_bits")
        if use_bitsets is None:
            self._bitsets = bits_available
        else:
            self._bitsets = bool(use_bitsets) and bits_available
        if self._sealed:
            # per-query-vertex incidence lists in edge-index order, so the
            # search filters O(deg_q(u)) entries instead of scanning every
            # query edge at every search node
            incident: List[List[_Constraint]] = [
                [] for _ in range(query.num_vertices)
            ]
            for idx, (a, b, label) in enumerate(query.edges):
                if a == b:
                    incident[a].append((a, "out", label, idx))
                else:
                    incident[a].append((b, "out", label, idx))
                    incident[b].append((a, "in", label, idx))
            self._incident = incident
            # per-query-vertex label member set: one C membership test per
            # candidate instead of a frozenset subset comparison
            self._ulabel_sets: List[Optional[FrozenSet[int]]] = [
                graph.labels_member_set(query.vertex_labels[u])
                if query.vertex_labels[u]
                else None
                for u in range(query.num_vertices)
            ]
            # suffix independence, precomputed once per matching order:
            # _suffix_independent[d] <=> the vertices of order[d:] are
            # pairwise non-adjacent in the query (the leaf-product guard,
            # which the generic path rediscovers at every search node)
            order = self._order
            n = len(order)
            suffix = [False] * (n + 1)
            suffix[n] = True
            later: Set[int] = set()
            for d in range(n - 1, -1, -1):
                # order[d] joins the set before the check so a self loop
                # (u adjacent to itself) blocks independence, exactly as
                # the generic scan's u-in-remaining_set membership does
                later.add(order[d])
                suffix[d] = suffix[d + 1] and not (
                    query.neighbors(order[d]) & later
                )
            self._suffix_independent = suffix
            # candidate memos live *inside* each plan (reset per count()
            # run): keyed by the anchor values of the plan's constraints —
            # sibling subtrees that agree on those anchors reuse the list.
            # Single-anchor plans key on the bare int, which skips a tuple
            # allocation per probe on the search's hottest path.
            # separator per depth: the assigned query vertices with at
            # least one query edge into order[d:].  A subtree's completion
            # count depends only on the data vertices bound to the
            # separator, which is what makes subtree counts memoizable
            seps: List[Tuple[int, ...]] = []
            for d in range(n + 1):
                later_set = set(order[d:])
                seps.append(
                    tuple(
                        x
                        for x in order[:d]
                        if query.neighbors(x) & later_set
                    )
                )
            self._separators = seps
            self._count_memo: Dict[object, int] = {}
            # candidate *plans*, precomputed per search context: which of
            # u's edges are anchored is a function of the (fixed) matching
            # order alone, so the per-node incident scan of the generic
            # path collapses into tuple lookups.  Two contexts that anchor
            # the same edges share one plan — and hence one memo keyspace.
            self._plan_registry: Dict[tuple, tuple] = {}
            self._depth_plans = [
                self._make_plan(order[d], set(order[:d])) for d in range(n)
            ]
            # leaf-product context: suffix independence means every
            # non-self edge of order[d] is anchored when the product fires
            all_vertices = set(range(query.num_vertices))
            self._leaf_plans = [
                self._make_plan(order[d], all_vertices - {order[d]})
                for d in range(n)
            ]
            # per-depth execution table: everything the hot recursion
            # needs at one depth in a single tuple fetch — the per-node
            # constant work (order/plan/separator lookups, separator
            # sizing, the suffix-independence probe) happens once here
            # instead of at every one of the millions of search nodes.
            # ``None`` is the depth == n sentinel; a ``None`` separator
            # means subtree counts at this depth are not memoizable.
            self._depth_exec: List[Optional[tuple]] = []
            for d in range(n):
                plan = self._depth_plans[d]
                sep = seps[d] if len(seps[d]) < d else None
                self._depth_exec.append((
                    order[d],
                    plan,
                    sep,
                    d > 0 and suffix[d],
                    # one-element separators key the count memo on a bare
                    # (depth, value) pair instead of a built tuple
                    sep[0] if sep is not None and len(sep) == 1 else None,
                    plan[9],   # plan-local candidate memo
                    plan[11],  # sole anchor (int-keyed memo) or None
                    self._fast_candidates(plan),
                ))
            self._depth_exec.append(None)
            # leaf-product twin of the table:
            # (plan, count memo, anchor, inline count fast path)
            self._leaf_exec = [
                (p, p[10], p[11], self._fast_count(p))
                for p in self._leaf_plans
            ]

    #: cap on memoized candidate lists per count() run (backstop against
    #: pathological query shapes; typical runs stay far below it)
    _MEMO_MAX = 1 << 18

    @staticmethod
    def _fast_candidates(plan: tuple) -> Optional[tuple]:
        """Inline candidate shortcut for single-anchor single-constraint plans.

        Returns ``(view_fn, label, filtered_fn, ulabels, label_set)`` when
        the plan's candidate pipeline reduces to one adjacency view plus at
        most a vertex-label filter — the overwhelmingly common node shape —
        so the search loop resolves a memo miss without calling (and
        re-unpacking the plan inside) :meth:`_plan_candidates`.  The
        produced lists are identical, element for element, to that method's.
        """
        (_key_id, others, getters, extras, label_set, vfilter, _static, _u,
         _label_bits, _memo, _cmemo, anchor, ulabels) = plan
        if anchor is None or len(getters) != 1 or vfilter is not None or extras:
            return None
        view_fn, _set_fn, _bits_fn, label, filt_fn = getters[0]
        return (view_fn, label, filt_fn, ulabels, label_set)

    @staticmethod
    def _fast_count(plan: tuple) -> Optional[tuple]:
        """Inline count shortcut: ``(view_fn, label)`` or None.

        Valid only for unlabeled single-constraint plans, where the
        candidate count is the length of one adjacency view — the same
        number every :meth:`_plan_count` branch computes for this shape,
        in either bitset mode.
        """
        (_key_id, others, getters, extras, label_set, vfilter, _static, _u,
         _label_bits, _memo, _cmemo, anchor, _ulabels) = plan
        if (
            anchor is None
            or len(getters) != 1
            or vfilter is not None
            or extras
            or label_set is not None
        ):
            return None
        view_fn, _set_fn, _bits_fn, label, _filt_fn = getters[0]
        return (view_fn, label)

    def _make_plan(self, u: int, assigned: Set[int]) -> tuple:
        """Candidate plan for matching ``u`` with ``assigned`` bound.

        A plan freezes everything about candidate generation that does not
        depend on the *data* vertices: the anchored constraints (edges
        from ``u`` into ``assigned``), the pre-bound adjacency accessors
        for each, the per-candidate extra checks (self loops and
        per-edge candidate restrictions), the label member set and the
        vertex filter.  Plans with identical content are interned so
        different search contexts share one candidate-memo keyspace.
        """
        entries: List[_Constraint] = []
        extras: List[_Constraint] = []
        for entry in self._incident[u]:
            other = entry[0]
            if other == u:
                extras.append(entry)
                continue
            if other not in assigned:
                continue
            entries.append(entry)
            if entry[3] in self.edge_candidates:
                extras.append(entry)
        signature = (u, tuple(entries), tuple(extras))
        plan = self._plan_registry.get(signature)
        if plan is None:
            graph = self.graph
            in_bits = getattr(graph, "in_neighbor_bits", None)
            out_bits = getattr(graph, "out_neighbor_bits", None)
            # bind the CSR direction objects' accessors directly when the
            # graph exposes them: the per-call graph wrapper frame is pure
            # overhead on the matcher's hottest call site
            rev = getattr(graph, "_rev", None)
            fwd = getattr(graph, "_fwd", None)
            in_view = graph.in_neighbors if rev is None else rev.neighbors
            out_view = graph.out_neighbors if fwd is None else fwd.neighbors
            in_filt = getattr(graph, "in_neighbors_labeled", None)
            out_filt = getattr(graph, "out_neighbors_labeled", None)
            getters = tuple(
                # u --label--> other: candidates come from the anchor's
                # in-adjacency; other --label--> u: from its out-adjacency
                (in_view, graph.in_neighbor_set, in_bits, label, in_filt)
                if direction == "out"
                else (out_view, graph.out_neighbor_set, out_bits, label,
                      out_filt)
                for _other, direction, label, _idx in entries
            )
            label_set = self._ulabel_sets[u]
            label_bits = (
                graph.labels_member_bits(self.query.vertex_labels[u])
                if self._bitsets and label_set is not None
                else None
            )
            others = tuple(entry[0] for entry in entries)
            plan = (
                len(self._plan_registry),  # memo keyspace id
                others,  # anchor vertices
                getters,
                tuple(extras),
                label_set,
                self.vertex_filters.get(u),
                [None],  # lazily computed constant list (anchor-free plans)
                u,
                label_bits,
                {},  # plan-local candidate memo (int key for 1 anchor)
                {},  # plan-local candidate-*count* memo (leaf product)
                others[0] if len(others) == 1 else None,  # sole anchor
                frozenset(self.query.vertex_labels[u])
                if label_set is not None
                else None,  # u's label set, for graph-level filtered views
            )
            self._plan_registry[signature] = plan
        return plan

    # ------------------------------------------------------------------
    def count(
        self,
        time_limit: Optional[float] = None,
        max_count: Optional[int] = None,
    ) -> MatchResult:
        """Count embeddings, stopping early at a time or count budget."""
        start = time.monotonic()
        self._deadline = start + time_limit if time_limit else float("inf")
        self._cap = max_count if max_count else 1 << 62
        self._count = 0
        self._steps = 0
        if self._sealed:
            self._count_memo = {}
            for plan in self._plan_registry.values():
                plan[9].clear()
                plan[10].clear()
            native = self._native_result()
            if native is not None:
                self._count, self._steps, complete = native
                return MatchResult(
                    self._count,
                    complete,
                    time.monotonic() - start,
                    self._steps,
                )
        assignment: Dict[int, int] = {}
        complete = True
        try:
            if self._sealed:
                self._search_sealed(0, assignment)
            else:
                self._search(0, assignment)
        except BudgetExceeded:
            complete = False
        return MatchResult(
            self._count, complete, time.monotonic() - start, self._steps
        )

    def _native_result(self) -> Optional[tuple]:
        """``(count, steps, complete)`` from the native search kernel.

        Engages only on the ``c`` kernel backend, and only for counter
        shapes the C transliteration replicates bit-for-bit (bitset-mode
        sealed search, no edge restrictions / vertex filters / self
        loops — see :func:`repro.kernels.native_match.build_native_matcher`).
        None means "run the Python loop" — including on a native
        allocation failure mid-search, which is sound because all memo
        state is per-:meth:`count`-run.
        """
        from ..kernels import backend as _kbackend

        lib = _kbackend.get_native()
        if lib is None:
            return None
        runner = getattr(self, "_native_runner", None)
        if runner is None:
            from ..kernels import native_match

            runner = native_match.build_native_matcher(self, lib)
            self._native_runner = runner if runner is not None else False
        if not runner:
            return None
        return runner(self._deadline, self._cap)

    # ------------------------------------------------------------------
    def _matching_order(self) -> List[int]:
        """Selective-first, connectivity-respecting vertex order."""
        query, graph = self.query, self.graph

        def selectivity(u: int) -> Tuple[int, int]:
            labels = query.vertex_labels[u]
            if labels:
                cand = min(
                    len(graph.vertices_with_label(l)) for l in labels
                )
            else:
                cand = graph.num_vertices
            return (cand, -query.degree(u))

        remaining = set(range(query.num_vertices))
        order: List[int] = []
        while remaining:
            frontier = {
                u
                for u in remaining
                if any(v in set(order) for v in query.neighbors(u))
            }
            pool = frontier or remaining
            best = min(pool, key=selectivity)
            order.append(best)
            remaining.discard(best)
        return order

    def _constraints(self, u: int, assigned: Set[int]) -> List[_Constraint]:
        """Edges between ``u`` and already-assigned vertices (and self loops)."""
        result: List[_Constraint] = []
        for idx, (a, b, label) in enumerate(self.query.edges):
            if a == u and (b in assigned or b == u):
                result.append((b, "out", label, idx))
            elif b == u and a in assigned:
                result.append((a, "in", label, idx))
        return result

    def _plan_candidates(
        self, plan: tuple, assignment: Dict[int, int]
    ) -> Sequence[int]:
        """Sealed-substrate candidate pipeline, driven by a frozen plan.

        Produces exactly the candidates (in the same order) as the generic
        path, but checks each non-anchor constraint with one membership
        test against the graph's memoized neighbor frozensets instead of a
        tuple-allocating ``has_edge`` probe — and **memoizes** the result
        per ``(plan, anchor-values)``.  In a backtracking search, sibling
        subtrees constantly re-derive candidates for vertices whose
        anchors they share (most extremely inside the leaf product), so
        the memo collapses those recomputations into dict hits.  It is
        sound because the graph is immutable and the filters are fixed for
        the counter's lifetime; it is reset at every :meth:`count` call.
        """
        (_key_id, others, getters, extras, label_set, vfilter, static, u,
         label_bits, memo, _cmemo, anchor, ulabels) = plan
        if not others:
            # no anchored edges: the candidate list is a run constant
            result = static[0]
            if result is None:
                if label_set is not None:
                    result = self.graph.label_members(
                        self.query.vertex_labels[u]
                    )
                else:
                    result = self.graph.vertices()
                if vfilter is not None:
                    result = [v for v in result if vfilter(v)]
                if extras:
                    result = [
                        v
                        for v in result
                        if self._extra_ok(v, u, assignment, extras)
                    ]
                static[0] = result
            return result
        if anchor is not None:
            key: object = assignment[anchor]
            values: tuple = (key,)
        else:
            values = tuple([assignment[o] for o in others])
            key = values
        result = memo.get(key)
        if result is not None:
            return result
        if (
            self._bitsets
            and vfilter is None
            and not extras
            and len(getters) > 1
        ):
            # bitset kernel: every constraint (anchored adjacency + label
            # membership) is a precomputed bitset, so the whole filter
            # pipeline is a chain of C-speed big-int ANDs.  Intersecting
            # sparsest-first (by popcount) shrinks the working set as
            # early as possible — the bitset analog of the generic path's
            # smallest-adjacency-list selection.  Single-constraint nodes
            # stay on the list path: filtering a short cached tuple beats
            # an AND + decode over |V|-bit integers.
            blist = [g[2](val, g[3]) for g, val in zip(getters, values)]
            if label_bits is not None:
                blist.append(label_bits)
            if len(blist) > 1:
                blist.sort(key=int.bit_count)
            bits = blist[0]
            for b in blist[1:]:
                if not bits:
                    break
                bits &= b
            result = self._bits_to_vertices(bits)
        elif len(getters) == 1:
            view_fn, _set_fn, _bits_fn, label, filt_fn = getters[0]
            if label_set is None:
                result = view_fn(values[0], label)
            elif filt_fn is not None:
                # graph-level filtered adjacency: cached across counters,
                # so repeated queries over one graph share the filter work
                result = filt_fn(values[0], label, ulabels)
            else:
                result = [
                    v for v in view_fn(values[0], label) if v in label_set
                ]
        else:
            views = [g[0](val, g[3]) for g, val in zip(getters, values)]
            best = min(range(len(views)), key=lambda i: len(views[i]))
            result = views[best]
            for i, g in enumerate(getters):
                if i != best:
                    s = g[1](values[i], g[3])
                    result = [v for v in result if v in s]
            if label_set is not None:
                result = [v for v in result if v in label_set]
        if vfilter is not None:
            result = [v for v in result if vfilter(v)]
        if extras:
            result = [
                v for v in result if self._extra_ok(v, u, assignment, extras)
            ]
        if len(memo) < self._MEMO_MAX:
            memo[key] = result
        return result

    def _bits_to_vertices(self, bits: int) -> List[int]:
        """Decode a bitset into the ascending list of set-bit positions.

        Routed through the kernel layer: dense results decode via one
        native unpack, sparse ones via the bit-twiddling loop — the
        outputs are identical element for element.
        """
        return _kops.bits_to_list(bits, self.graph.num_vertices)

    def _plan_count(self, plan: tuple, assignment: Dict[int, int]) -> int:
        """Candidate *count* for a plan — the leaf product's only need.

        With the bitset kernel the count is ``bit_count()`` of the ANDed
        constraint bitsets: no candidate list is ever materialized, which
        is where the leaf product spends most of its time on star-shaped
        queries.  Falls back to ``len(_plan_candidates(...))`` whenever
        the bitset preconditions fail, so counts are always identical.
        """
        (_key_id, others, getters, extras, label_set, vfilter, _static, _u,
         label_bits, _memo, cmemo, anchor, _ulabels) = plan
        if not others or vfilter is not None or extras:
            # static / filtered / extra-checked plans: counts come from
            # the (memoized) candidate list itself
            return len(self._plan_candidates(plan, assignment))
        if anchor is not None:
            key: object = assignment[anchor]
            values: tuple = (key,)
        else:
            values = tuple([assignment[o] for o in others])
            key = values
        cached = cmemo.get(key)
        if cached is not None:
            return cached
        if not self._bitsets:
            count = len(self._plan_candidates(plan, assignment))
        elif label_bits is None and len(getters) == 1:
            # single anchored view, no label filter: the segment length
            g = getters[0]
            count = len(g[0](values[0], g[3]))
        else:
            blist = [g[2](val, g[3]) for g, val in zip(getters, values)]
            if label_bits is not None:
                blist.append(label_bits)
            if len(blist) > 1:
                blist.sort(key=int.bit_count)
            bits = blist[0]
            for b in blist[1:]:
                if not bits:
                    break
                bits &= b
            count = bits.bit_count()
        if len(cmemo) < self._MEMO_MAX:
            cmemo[key] = count
        return count

    def _extra_ok(
        self,
        v: int,
        u: int,
        assignment: Dict[int, int],
        extra: List[_Constraint],
    ) -> bool:
        """Per-candidate checks the membership pipeline cannot batch."""
        graph = self.graph
        for other, direction, label, idx in extra:
            anchor = v if other == u else assignment[other]
            if direction == "out":
                src, dst = v, anchor
            else:
                src, dst = anchor, v
            # self loops never contributed an adjacency segment, so the
            # edge's existence is still unverified here
            if other == u and not graph.has_edge(src, dst, label):
                return False
            allowed = self.edge_candidates.get(idx)
            if allowed is not None and (src, dst) not in allowed:
                return False
        return True

    def _candidates(
        self, u: int, assignment: Dict[int, int]
    ) -> Optional[List[int]]:
        """Data vertices that can match ``u`` given the partial assignment.

        Returns None when the candidate set is the whole vertex set (only
        possible for an unconstrained wildcard vertex).
        """
        graph, query = self.graph, self.query
        constraints = self._constraints(u, set(assignment))
        labels = query.vertex_labels[u]

        adjacency_lists: List[Sequence[int]] = []
        pair_checks: List[Tuple[str, int, int, int]] = []
        for other, direction, label, idx in constraints:
            if other == u:  # self loop: defer to the filter stage
                pair_checks.append((direction, label, idx, -1))
                continue
            anchor = assignment[other]
            if direction == "out":  # u --label--> other
                adjacency_lists.append(graph.in_neighbors(anchor, label))
            else:  # other --label--> u
                adjacency_lists.append(graph.out_neighbors(anchor, label))

        if not adjacency_lists:
            if labels:
                base: Sequence[int] = graph.vertices_with_labels(labels)
            else:
                base = graph.vertices()
            candidates = [
                v for v in base if self._vertex_ok(v, u, assignment, constraints)
            ]
            return candidates

        adjacency_lists.sort(key=len)
        candidates = [
            v
            for v in adjacency_lists[0]
            if self._vertex_ok(v, u, assignment, constraints)
        ]
        return candidates

    def _vertex_ok(
        self,
        v: int,
        u: int,
        assignment: Dict[int, int],
        constraints: List[_Constraint],
    ) -> bool:
        """Full check of labels and all constraint edges for ``u -> v``."""
        graph = self.graph
        labels = self.query.vertex_labels[u]
        if labels and not labels <= graph.vertex_labels(v):
            return False
        vertex_filter = self.vertex_filters.get(u)
        if vertex_filter is not None and not vertex_filter(v):
            return False
        for other, direction, label, idx in constraints:
            anchor = v if other == u else assignment[other]
            if direction == "out":
                src, dst = v, anchor
            else:
                src, dst = anchor, v
            if not graph.has_edge(src, dst, label):
                return False
            allowed = self.edge_candidates.get(idx)
            if allowed is not None and (src, dst) not in allowed:
                return False
        return True

    def _leaf_product(
        self, depth: int, assignment: Dict[int, int]
    ) -> Optional[int]:
        """Product shortcut when all remaining vertices are independent."""
        remaining_set = set(self._order[depth:])
        for u in remaining_set:
            if self.query.neighbors(u) & remaining_set:
                return None
        product = 1
        for u in self._order[depth:]:
            candidates = self._candidates(u, assignment)
            product *= len(candidates)
            if product == 0:
                return 0
        return product

    def _leaf_product_sealed(
        self, depth: int, assignment: Dict[int, int]
    ) -> Optional[int]:
        """Sealed leaf product: precomputed independence, frozen plans."""
        if not self._suffix_independent[depth]:
            return None
        product = 1
        plans = self._leaf_plans
        for d in range(depth, len(plans)):
            product *= self._plan_count(plans[d], assignment)
            if product == 0:
                return 0
        return product

    def _search(self, depth: int, assignment: Dict[int, int]) -> None:
        self._steps += 1
        if time.monotonic() > self._deadline:
            raise BudgetExceeded
        if depth == len(self._order):
            self._count += 1
            if self._count >= self._cap:
                raise BudgetExceeded
            return
        if depth > 0:
            product = self._leaf_product(depth, assignment)
            if product is not None:
                self._count += product
                if self._count >= self._cap:
                    self._count = self._cap
                    raise BudgetExceeded
                return
        u = self._order[depth]
        for v in self._candidates(u, assignment):
            assignment[u] = v
            self._search(depth + 1, assignment)
            del assignment[u]

    def _search_sealed(self, depth: int, assignment: Dict[int, int]) -> int:
        """Sealed-substrate search: memoized subtree completion counts.

        The number of completions below ``depth`` is a function of the
        data vertices bound to that depth's separator only, so sibling
        subtrees that agree on the separator contribute a dict hit
        instead of a re-search.  Sound because the graph, the filters and
        the edge restrictions are all fixed for the counter's lifetime;
        a budget abort propagates *past* the memo store, so only fully
        explored subtrees are ever cached.  Complete-run counts are
        identical to the generic path's; capped runs clamp to the cap
        exactly as the leaf product always has.

        Implemented as an explicit-stack loop rather than recursion: the
        search visits one node per candidate binding (hundreds of
        thousands per query), and holding the counters, budget and memo
        tables in locals while replacing call frames with a small list
        per *in-progress* node removes the dominant constant cost of the
        sealed matcher.  Node visitation order — and therefore ``steps``
        and every count — is exactly the recursion's.
        """
        steps = self._steps
        count = self._count
        cap = self._cap
        deadline = self._deadline
        monotonic = time.monotonic
        count_memo = self._count_memo
        depth_exec = self._depth_exec
        leaf_exec = self._leaf_exec
        nleaf = len(leaf_exec)
        plan_candidates = self._plan_candidates
        plan_count = self._plan_count
        memo_max = self._MEMO_MAX
        # frames of in-progress nodes: [u, memo key or None, candidate
        # sequence, next candidate index, accumulated total]; `ret`
        # carries a finished subtree's count up.  Indexing the candidate
        # sequence directly drops the iterator protocol's per-candidate
        # builtin calls from the hottest loop in the matcher.
        stack: List[list] = []
        ret: Optional[int] = None
        try:
            while True:
                if ret is None:
                    # enter the node at `depth`
                    steps += 1
                    # the deadline is a wall-clock budget over searches
                    # that run for seconds; probing the clock every 64
                    # nodes keeps the granularity far below any
                    # meaningful budget while dropping a syscall from
                    # the per-node fast path
                    if (steps & 63) == 0 and monotonic() > deadline:
                        raise BudgetExceeded
                    entry = depth_exec[depth]
                    if entry is None:  # depth == n: one complete embedding
                        count += 1
                        if count >= cap:
                            raise BudgetExceeded
                        ret = 1
                        continue
                    (u, plan, separator, leaf_ok, sep_single, cand_memo,
                     anchor, fast) = entry
                    if separator is not None:  # memoizable subtree
                        if sep_single is not None:
                            key: Optional[tuple] = (
                                depth, assignment[sep_single]
                            )
                        else:
                            key = (depth,) + tuple(
                                [assignment[x] for x in separator]
                            )
                        ret = count_memo.get(key)
                        if ret is not None:
                            count += ret
                            if count >= cap:
                                count = cap
                                raise BudgetExceeded
                            continue
                    else:
                        key = None
                    if leaf_ok:
                        # suffix independence (precomputed): completions
                        # below here are the product of independent
                        # candidate counts
                        product = 1
                        for d in range(depth, nleaf):
                            lplan, cmemo, lanchor, cfast = leaf_exec[d]
                            if lanchor is not None:
                                lkey = assignment[lanchor]
                                c = cmemo.get(lkey)
                                if c is None:
                                    if cfast is not None:
                                        # single label-constrained view:
                                        # count is the view length, no
                                        # call into _plan_count
                                        c = len(cfast[0](lkey, cfast[1]))
                                        if len(cmemo) < memo_max:
                                            cmemo[lkey] = c
                                    else:
                                        c = plan_count(lplan, assignment)
                            else:
                                c = plan_count(lplan, assignment)
                            product *= c
                            if product == 0:
                                break
                        count += product
                        if count >= cap:
                            count = cap
                            raise BudgetExceeded
                        if key is not None and len(count_memo) < memo_max:
                            count_memo[key] = product
                        ret = product
                        continue
                    # inline memo probe: single-anchor plans resolve
                    # their candidate list with one int-keyed dict hit,
                    # no call into _plan_candidates
                    if anchor is not None:
                        akey = assignment[anchor]
                        candidates = cand_memo.get(akey)
                        if candidates is None:
                            if fast is not None:
                                # single-constraint plan: build the list
                                # inline from the adjacency view instead
                                # of calling _plan_candidates
                                view_fn, label, filt_fn, ulabels, lset = fast
                                if lset is None:
                                    candidates = view_fn(akey, label)
                                elif filt_fn is not None:
                                    candidates = filt_fn(akey, label, ulabels)
                                else:
                                    candidates = [
                                        v for v in view_fn(akey, label)
                                        if v in lset
                                    ]
                                if len(cand_memo) < memo_max:
                                    cand_memo[akey] = candidates
                            else:
                                candidates = plan_candidates(plan, assignment)
                    else:
                        candidates = plan_candidates(plan, assignment)
                    if not candidates:  # no candidates: empty subtree
                        if key is not None and len(count_memo) < memo_max:
                            count_memo[key] = 0
                        ret = 0
                        continue
                    assignment[u] = candidates[0]
                    stack.append([u, key, candidates, 1, 0])
                    depth += 1
                    continue
                # a subtree finished with `ret` completions: resume the
                # innermost in-progress node
                if not stack:
                    return ret
                frame = stack[-1]
                frame[4] += ret
                u = frame[0]
                candidates = frame[2]
                i = frame[3]
                if i < len(candidates):  # next sibling binding, same depth
                    assignment[u] = candidates[i]
                    frame[3] = i + 1
                    ret = None
                    continue
                del assignment[u]
                stack.pop()
                total = frame[4]
                key = frame[1]
                if key is not None and len(count_memo) < memo_max:
                    count_memo[key] = total
                ret = total
                depth -= 1
        finally:
            # locals carry the counters through the loop; write them back
            # on every exit (including a budget abort mid-search)
            self._steps = steps
            self._count = count


def count_embeddings(
    graph: Graph,
    query: QueryGraph,
    time_limit: Optional[float] = None,
    max_count: Optional[int] = None,
    edge_candidates: Optional[Dict[int, Set[Tuple[int, int]]]] = None,
    vertex_filters: Optional[Dict[int, "VertexFilter"]] = None,
) -> MatchResult:
    """Count homomorphic embeddings of ``query`` in ``graph``.

    Convenience wrapper over :class:`HomomorphismCounter`.
    """
    counter = HomomorphismCounter(graph, query, edge_candidates, vertex_filters)
    return counter.count(time_limit=time_limit, max_count=max_count)
