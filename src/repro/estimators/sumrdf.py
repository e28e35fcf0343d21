"""SumRDF — Stefanoni, Motik & Kostylev, WWW 2018.

Summary-based technique (paper, Section 3.3).  Data vertices with the same
*type* (vertex label set + incident edge label signature) are merged into
summary buckets; summary edges aggregate the data edges between buckets.
The estimate is the expected cardinality over all possible worlds that
summarize to the same summary graph: every homomorphic embedding of the
query in the summary graph contributes

    prod_u w(b_u)  *  prod_(u,v,l)  w(b_u, b_v, l) / (w(b_u) * w(b_v))

(the paper's possible-world count; e.g. its running example yields
``8 * 27/216 = 1``).

Following the paper's extension, when the summary would exceed a size
threshold (default 3% of the data graph size) the summarization coarsens:
first dropping the edge-label signature, then merging different vertex
labels.  The Human dataset's overestimation (zero edge labels force merged
buckets to aggregate all edge weights, Section 6.2.1) emerges from this
construction.

The sum is a weighted homomorphism count over the summary, and is
computed without enumerating embeddings.  Charging each edge's
``1 / (w(b_u) w(b_v))`` to its endpoints gives a vertex factor
``w(b_u, L_u) / w(b_u)^deg(u)`` and an edge factor ``k(b_u, b_v, l)``.
``decompose_query`` picks a small *cut set* of query vertices (the
max-degree vertex of the skeleton's 2-core, repeatedly, until the rest
is a forest; a tree query has an empty cut), ``get_substructures``
enumerates the cut's bucket assignments, and ``est_card`` sums over the
forest by dynamic programming, in exact rational arithmetic that
``agg_card`` rounds once.  The paper's
implementation enumerates every summary embedding, which is what makes
it time out on 12-edge queries (Section 6.2.3); this one returns the
same estimate in milliseconds.  ``max_embeddings`` caps the number of
cut assignments; an estimate it cuts short reports ``truncated``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..core.framework import Estimator
from ..graph.delta import Delta, DeltaSummary
from ..graph.digraph import Graph
from ..graph.query import QueryGraph

CutAssignment = Tuple[int, ...]  # buckets of the cut vertices, in order


@dataclass
class SummaryGraph:
    """Buckets, weights, and labeled weighted edges between buckets."""

    #: per bucket: total number of data vertices merged into it
    weights: List[int] = field(default_factory=list)
    #: per bucket: vertex label set -> number of member vertices with it
    label_profiles: List[Dict[FrozenSet[int], int]] = field(default_factory=list)
    #: (src bucket, dst bucket, label) -> number of data edges merged
    edge_weights: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    #: adjacency: (src bucket, label) -> [dst bucket, ...]
    out_adj: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    in_adj: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)

    @property
    def num_buckets(self) -> int:
        return len(self.weights)

    @property
    def num_edges(self) -> int:
        return len(self.edge_weights)

    def effective_weight(self, bucket: int, labels: FrozenSet[int]) -> int:
        """Number of member vertices of ``bucket`` carrying all ``labels``."""
        if not labels:
            return self.weights[bucket]
        return sum(
            count
            for labelset, count in self.label_profiles[bucket].items()
            if labels <= labelset
        )


@dataclass
class _LevelState:
    """One maintained coarsening level: summary plus its bucket mapping.

    A cold :meth:`SumRDF.prepare_summary_structure` evaluates levels
    ``0..chosen`` and would normally discard everything but the chosen
    summary; the incremental path keeps every evaluated level alive —
    with the vertex-type -> bucket map and per-vertex assignment that
    built it — so a delta slice can patch all of them and re-run the
    budget selection exactly as a cold prepare over the new graph would.

    Level states are process-local: they are excluded from exported
    summary blobs (they would dominate the payload ~70x and slow every
    worker boot), so a hydrated estimator rebuilds them lazily on its
    first ``update_summary`` — one prepare-equivalent rebuild against
    the already post-delta graph, exact by construction, after which
    maintenance is O(delta) again.
    """

    level: int
    summary: SummaryGraph
    bucket_of: Dict[object, int]
    assignment: List[int]


class SumRDF(Estimator):
    """The SumRDF technique expressed in the G-CARE framework."""

    name = "sumrdf"
    display_name = "SumRDF"
    is_sampling_based = False

    #: maintained level states never travel in summary blobs — they are
    #: rebuilt lazily by the first post-hydration ``update_summary``
    _SUMMARY_EXCLUDED_STATE = Estimator._SUMMARY_EXCLUDED_STATE + ("_levels",)

    def __init__(
        self,
        graph: Graph,
        size_threshold: float = 0.03,
        max_embeddings: int = 2_000_000,
        **kwargs,
    ) -> None:
        """``size_threshold`` caps the summary size at that fraction of
        ``|E_G|``; ``max_embeddings`` bounds the enumerated substructures
        (cut assignments; a secondary guard next to the wall-clock
        ``time_limit``)."""
        super().__init__(graph, **kwargs)
        self.size_threshold = size_threshold
        self.max_embeddings = max_embeddings
        self.summary: Optional[SummaryGraph] = None
        self._coarsening_level = 0
        #: every coarsening level the last prepare evaluated, maintained
        #: through update_summary so budget re-selection stays exact
        self._levels: List[_LevelState] = []
        # observability: work done by the current estimate — cut
        # assignments enumerated, candidate buckets scanned (by the cut
        # enumeration and the forest DP), and whether the cap cut it short
        self._summary_embeddings = 0
        self._buckets_scanned = 0
        self._truncated = False

    # ------------------------------------------------------------------
    # PrepareSummaryStructure
    # ------------------------------------------------------------------
    #: coarsening ladder: (kind, parameter); "type" = labels + signature,
    #: "labels" = vertex labels only, "hash-g" = labels hashed into g groups
    #: (merging different vertex labels, the paper's extension), down to a
    #: single bucket.
    COARSENING_LEVELS = (
        ("type", 0),
        ("labels", 0),
        ("hash", 256),
        ("hash", 128),
        ("hash", 64),
        ("hash", 32),
        ("hash", 16),
        ("hash", 8),
        ("hash", 4),
        ("hash", 2),
        ("hash", 1),
    )

    def _vertex_type(self, v: int, level: int) -> object:
        """Vertex type at a coarsening level (lower levels = bigger summary)."""
        graph = self.graph
        vlabels = graph.vertex_labels(v)
        kind, parameter = self.COARSENING_LEVELS[level]
        if kind == "type":
            signature = frozenset(
                [("o", l) for l in graph.out_label_map(v)]
                + [("i", l) for l in graph.in_label_map(v)]
            )
            return (vlabels, signature)
        if kind == "labels":
            return vlabels
        # merge different vertex label sets by hashing into g groups — the
        # paper's extension for oversized summaries; merged buckets pool
        # *all* edge weights between them, which is exactly the mechanism
        # behind SumRDF's overestimation on the unlabeled-edge Human data
        # (paper, Section 6.2.1)
        return hash(vlabels) % parameter if parameter > 1 else 0

    def _build_level(self, level: int) -> _LevelState:
        graph = self.graph
        bucket_of: Dict[object, int] = {}
        summary = SummaryGraph()
        assignment: List[int] = []
        for v in graph.vertices():
            vtype = self._vertex_type(v, level)
            bucket = bucket_of.get(vtype)
            if bucket is None:
                bucket = len(summary.weights)
                bucket_of[vtype] = bucket
                summary.weights.append(0)
                summary.label_profiles.append({})
            summary.weights[bucket] += 1
            labels = graph.vertex_labels(v)
            profile = summary.label_profiles[bucket]
            profile[labels] = profile.get(labels, 0) + 1
            assignment.append(bucket)
        for src, dst, label in graph.edges():
            key = (assignment[src], assignment[dst], label)
            if key not in summary.edge_weights:
                summary.edge_weights[key] = 0
                summary.out_adj.setdefault((key[0], label), []).append(key[1])
                summary.in_adj.setdefault((key[1], label), []).append(key[0])
            summary.edge_weights[key] += 1
        return _LevelState(level, summary, bucket_of, assignment)

    def _build_summary(self, level: int) -> SummaryGraph:
        return self._build_level(level).summary

    def _budget(self) -> int:
        return max(1, int(self.size_threshold * self.graph.num_edges))

    def prepare_summary_structure(self) -> None:
        budget = self._budget()
        last = len(self.COARSENING_LEVELS) - 1
        self._levels = []
        for level in range(len(self.COARSENING_LEVELS)):
            state = self._build_level(level)
            self._levels.append(state)
            if state.summary.num_edges <= budget or level == last:
                self.summary = state.summary
                self._coarsening_level = level
                return

    # ------------------------------------------------------------------
    # incremental maintenance (the optional Algorithm-1 hook)
    # ------------------------------------------------------------------
    def import_summary(self, payload: bytes) -> None:
        super().import_summary(payload)
        # the payload never carries level states; drop any stale ones a
        # previous prepare left on this instance so maintenance rebuilds
        # from the imported summary's graph, not a superseded one
        self._levels = []

    def update_summary(self, deltas: Sequence[Delta]) -> None:
        """Patch every maintained coarsening level, then re-run selection.

        Per level: each touched vertex whose type moved is taken out of
        its old bucket (with its old incident edges, under the old
        assignment) and re-enrolled in its new one (with its new incident
        edges); untouched buckets and summary edges are never read.  The
        chosen level is then re-selected against the new size budget over
        the maintained levels — building deeper levels only if the budget
        shrank past all of them, exactly as a cold prepare would.
        """
        if not self._levels:
            # hydrated from a blob (level states are never exported):
            # rebuild from the already post-delta graph — a one-off
            # prepare-equivalent cost that restores O(delta) maintenance
            self.prepare_summary_structure()
            return
        graph = self.graph
        info = DeltaSummary(deltas, graph.num_vertices)
        for state in self._levels:
            self._update_level(state, info)
        budget = self._budget()
        last = len(self.COARSENING_LEVELS) - 1
        for state in self._levels:
            if state.summary.num_edges <= budget or state.level == last:
                self.summary = state.summary
                self._coarsening_level = state.level
                return
        for level in range(self._levels[-1].level + 1,
                           len(self.COARSENING_LEVELS)):
            state = self._build_level(level)
            self._levels.append(state)
            if state.summary.num_edges <= budget or level == last:
                self.summary = state.summary
                self._coarsening_level = level
                return

    def _update_level(self, state: _LevelState, info: DeltaSummary) -> None:
        graph = self.graph
        summary = state.summary
        bucket_of = state.bucket_of
        assignment = state.assignment
        # net slice effect per edge: +1 newly present, -1 newly absent;
        # batch-internal churn (add then remove of an absent edge) nets
        # to zero and must not touch the summary at all
        churn: Dict[Tuple[int, int, int], int] = {}
        for edge in info.added_edges:
            churn[edge] = churn.get(edge, 0) + 1
        for edge in info.removed_edges:
            churn[edge] = churn.get(edge, 0) - 1
        net_added = frozenset(e for e, n in churn.items() if n > 0)
        rm = {e for e, n in churn.items() if n < 0}
        ad = set(net_added)
        # classify touched vertices: bucket moves need their incident
        # edges re-keyed; label-only changes just shift a profile entry
        moving: List[int] = []
        for v in sorted(info.touched_vertices()):
            current = graph.vertex_labels(v)
            new_bucket = bucket_of.get(self._vertex_type(v, state.level))
            if new_bucket == assignment[v]:
                old_labels = info.old_vertex_labels(v, current)
                if old_labels != current:
                    profile = summary.label_profiles[new_bucket]
                    count = profile[old_labels]
                    if count == 1:
                        del profile[old_labels]
                    else:
                        profile[old_labels] = count - 1
                    profile[current] = profile.get(current, 0) + 1
                continue
            moving.append(v)
        removed_incident: Dict[int, List[Tuple[int, int, int]]] = {}
        for edge in rm:
            removed_incident.setdefault(edge[0], []).append(edge)
            removed_incident.setdefault(edge[1], []).append(edge)
        for v in moving:
            post = {
                (v, dst, label)
                for label, dsts in graph.out_label_map(v).items()
                for dst in dsts
            }
            post |= {
                (src, v, label)
                for label, srcs in graph.in_label_map(v).items()
                for src in srcs
            }
            # pre-slice incident edges: post minus slice-added, plus
            # slice-removed — subtracted under the old assignment below
            rm |= post - net_added
            rm.update(removed_incident.get(v, ()))
            ad |= post
        # --- phase A: retire edges, then vertices, under old buckets ---
        drained: List[int] = []
        for src, dst, label in rm:
            key = (assignment[src], assignment[dst], label)
            weight = summary.edge_weights[key]
            if weight == 1:
                del summary.edge_weights[key]
                self._drop_adjacency(summary, key, label)
            else:
                summary.edge_weights[key] = weight - 1
        for v in moving:
            bucket = assignment[v]
            drained.append(bucket)
            summary.weights[bucket] -= 1
            old_labels = info.old_vertex_labels(v, graph.vertex_labels(v))
            profile = summary.label_profiles[bucket]
            count = profile[old_labels]
            if count == 1:
                del profile[old_labels]
            else:
                profile[old_labels] = count - 1
        # --- phase B: enroll vertices under new buckets, then edges ---
        for v in moving:
            self._enroll_vertex(state, v)
        for v in range(info.old_num_vertices, graph.num_vertices):
            assignment.append(0)  # placeholder; _enroll_vertex overwrites
            self._enroll_vertex(state, v)
        for src, dst, label in ad:
            key = (assignment[src], assignment[dst], label)
            weight = summary.edge_weights.get(key)
            if weight is None:
                summary.edge_weights[key] = 1
                summary.out_adj.setdefault((key[0], label), []).append(key[1])
                summary.in_adj.setdefault((key[1], label), []).append(key[0])
            else:
                summary.edge_weights[key] = weight + 1
        if any(summary.weights[bucket] == 0 for bucket in drained):
            self._compact_level(state)

    def _enroll_vertex(self, state: _LevelState, v: int) -> None:
        summary = state.summary
        vtype = self._vertex_type(v, state.level)
        bucket = state.bucket_of.get(vtype)
        if bucket is None:
            bucket = len(summary.weights)
            state.bucket_of[vtype] = bucket
            summary.weights.append(0)
            summary.label_profiles.append({})
        state.assignment[v] = bucket
        summary.weights[bucket] += 1
        labels = self.graph.vertex_labels(v)
        profile = summary.label_profiles[bucket]
        profile[labels] = profile.get(labels, 0) + 1

    @staticmethod
    def _drop_adjacency(
        summary: SummaryGraph, key: Tuple[int, int, int], label: int
    ) -> None:
        for adj, anchor, other in (
            (summary.out_adj, key[0], key[1]),
            (summary.in_adj, key[1], key[0]),
        ):
            entries = adj[(anchor, label)]
            entries.remove(other)
            if not entries:
                del adj[(anchor, label)]

    def _compact_level(self, state: _LevelState) -> None:
        """Renumber away drained buckets so candidate scans match a cold
        build (an empty bucket would otherwise survive as a candidate for
        unconstrained query vertices, skewing scan counters and
        zero-cardinality diagnostics)."""
        summary = state.summary
        keep = [b for b, weight in enumerate(summary.weights) if weight > 0]
        if len(keep) == len(summary.weights):
            return
        remap = {b: i for i, b in enumerate(keep)}
        state.summary = SummaryGraph(
            weights=[summary.weights[b] for b in keep],
            label_profiles=[summary.label_profiles[b] for b in keep],
            edge_weights={
                (remap[s], remap[d], label): weight
                for (s, d, label), weight in summary.edge_weights.items()
            },
            out_adj={
                (remap[b], label): [remap[x] for x in others]
                for (b, label), others in summary.out_adj.items()
            },
            in_adj={
                (remap[b], label): [remap[x] for x in others]
                for (b, label), others in summary.in_adj.items()
            },
        )
        state.bucket_of = {
            vtype: remap[b]
            for vtype, b in state.bucket_of.items()
            if b in remap
        }
        state.assignment = [remap[b] for b in state.assignment]

    def reset_summary(self) -> None:
        super().reset_summary()
        self.summary = None
        self._levels = []
        self._coarsening_level = 0

    # ------------------------------------------------------------------
    # DecomposeQuery / GetSubstructure / EstCard / AggCard
    # ------------------------------------------------------------------
    def decompose_query(self, query: QueryGraph) -> Sequence[_CutPlan]:
        """One subquery: the whole query, split into a cut set and the
        forest that remains."""
        self._summary_embeddings = 0
        self._buckets_scanned = 0
        self._truncated = False
        return [_cut_plan(query)]

    def get_substructures(
        self, query: QueryGraph, plan: _CutPlan
    ) -> Iterator[CutAssignment]:
        """Enumerate bucket assignments of the query's cut set.

        Stops after ``max_embeddings`` assignments; if a further one
        existed, the estimate is marked truncated.
        """
        summary = self.summary
        assert summary is not None
        yield from self._match(query, summary, plan.cut, 0, {})

    def _match(
        self,
        query: QueryGraph,
        summary: SummaryGraph,
        order: Sequence[int],
        depth: int,
        assignment: Dict[int, int],
    ) -> Iterator[CutAssignment]:
        if depth == len(order):
            if self._summary_embeddings >= self.max_embeddings:
                self._truncated = True
                return
            self._summary_embeddings += 1
            yield tuple(assignment[u] for u in order)
            return
        u = order[depth]
        for bucket in self._bucket_candidates(query, summary, u, assignment):
            if self._truncated:
                return
            assignment[u] = bucket
            yield from self._match(
                query, summary, order, depth + 1, assignment
            )
            del assignment[u]

    def _bucket_candidates(
        self,
        query: QueryGraph,
        summary: SummaryGraph,
        u: int,
        assignment: Dict[int, int],
    ) -> List[int]:
        constraints: List[Tuple[str, int, int]] = []  # (dir, label, bucket)
        for v, label in query.out_edges(u):
            if v in assignment:
                constraints.append(("o", label, assignment[v]))
        for v, label in query.in_edges(u):
            if v in assignment:
                constraints.append(("i", label, assignment[v]))
        labels = query.vertex_labels[u]
        if constraints:
            direction, label, anchor = constraints[0]
            adj = summary.in_adj if direction == "o" else summary.out_adj
            base = adj.get((anchor, label), [])
        else:
            base = list(range(summary.num_buckets))
        self._buckets_scanned += len(base)
        result: List[int] = []
        for bucket in base:
            if labels and summary.effective_weight(bucket, labels) == 0:
                continue
            if all(
                self._has_summary_edge(summary, bucket, d, l, b)
                for d, l, b in constraints
            ):
                result.append(bucket)
        return result

    @staticmethod
    def _has_summary_edge(
        summary: SummaryGraph, bucket: int, direction: str, label: int, other: int
    ) -> bool:
        if direction == "o":
            return (bucket, other, label) in summary.edge_weights
        return (other, bucket, label) in summary.edge_weights

    def est_card(
        self,
        query: QueryGraph,
        plan: _CutPlan,
        substructure: CutAssignment,
    ) -> Fraction:
        """Weighted count of the summary embeddings extending one cut
        assignment, exact: a memoized DP over the forest left by the cut."""
        summary = self.summary
        assert summary is not None
        labels = query.vertex_labels
        edge_weights = summary.edge_weights
        fixed = dict(zip(plan.cut, substructure))
        total = Fraction(1)
        for u, bucket in fixed.items():
            total *= _vertex_factor(summary, bucket, labels[u], plan.degree[u])
        for u, v, label in plan.constant:
            total *= edge_weights.get((fixed[u], fixed[v], label), 0)
        if not total:
            return total
        memo: Dict[int, Dict[int, Fraction]] = {}

        def subtree_weight(u: int, bucket: int) -> Fraction:
            """Weighted count of u's subtree with u mapped to ``bucket``."""
            table = memo.get(u)
            if table is None:
                self.check_deadline()
                table = memo[u] = {}
            cached = table.get(bucket)
            if cached is not None:
                return cached
            value = _vertex_factor(summary, bucket, labels[u], plan.degree[u])
            for c, label, forward in plan.unary[u]:
                if not value:
                    break
                key = (bucket, fixed[c], label) if forward else (
                    fixed[c], bucket, label
                )
                value *= edge_weights.get(key, 0)
            for child, label, forward in plan.children[u]:
                if not value:
                    break
                if forward:  # u --label--> child
                    others = summary.out_adj.get((bucket, label), ())
                    branch = sum(
                        edge_weights[(bucket, other, label)]
                        * subtree_weight(child, other)
                        for other in others
                    )
                else:  # child --label--> u
                    others = summary.in_adj.get((bucket, label), ())
                    branch = sum(
                        edge_weights[(other, bucket, label)]
                        * subtree_weight(child, other)
                        for other in others
                    )
                self._buckets_scanned += len(others)
                value *= branch
            table[bucket] = value
            return value

        for root in plan.roots:
            candidates: Sequence[int] = range(summary.num_buckets)
            if plan.unary[root]:
                # anchored on a cut neighbour: only its summary adjacency
                c, label, forward = plan.unary[root][0]
                adj = summary.in_adj if forward else summary.out_adj
                candidates = adj.get((fixed[c], label), ())
            self._buckets_scanned += len(candidates)
            total *= sum(subtree_weight(root, b) for b in candidates)
            if not total:
                break
        return total

    def agg_card(self, card_vec: Sequence[Fraction]) -> float:
        # exact sum, rounded once: independent of enumeration order, which
        # follows summary adjacency-list order (permuted by maintenance)
        return float(sum(card_vec, Fraction(0)))

    def summary_objects(self) -> tuple:
        return (self.summary,) if self.summary is not None else ()

    def record_counters(self, obs) -> None:
        obs.incr("sumrdf.summary_embeddings", self._summary_embeddings)
        obs.incr("sumrdf.buckets_scanned", self._buckets_scanned)
        if self._truncated:
            obs.incr("sumrdf.truncated")

    def estimation_info(self) -> dict:
        summary = self.summary
        return {
            "coarsening_level": self._coarsening_level,
            "summary_buckets": summary.num_buckets if summary else 0,
            "summary_edges": summary.num_edges if summary else 0,
            "truncated": self._truncated,
        }


# ----------------------------------------------------------------------
# the cut/forest split of a query
# ----------------------------------------------------------------------
@dataclass
class _CutPlan:
    """A query split into an enumerated cut set and a forest.

    Edges are ``(other vertex, label, forward)`` triples, ``forward``
    meaning the edge points away from the vertex whose list holds it.
    """

    #: cut vertices, in enumeration order
    cut: Tuple[int, ...]
    #: per query vertex: incident edge endpoints (a self loop counts twice)
    degree: List[int]
    #: one root per forest component
    roots: List[int]
    #: per forest vertex: edges to its children in the rooted forest
    children: List[List[Tuple[int, int, bool]]]
    #: per forest vertex: edges to cut vertices (unary DP factors)
    unary: List[List[Tuple[int, int, bool]]]
    #: edges between two cut vertices (constant per cut assignment)
    constant: List[Tuple[int, int, int]]


def _two_core(query: QueryGraph, removed: Set[int]) -> Dict[int, int]:
    """Vertex -> degree in the 2-core of the skeleton minus ``removed``.

    The skeleton is a multigraph: a self loop adds 2 to its vertex's
    degree and parallel or antiparallel edges each count, so every cycle
    of the query — including those — survives the peeling.
    """
    alive = set(range(query.num_vertices)) - removed
    while True:
        degree = dict.fromkeys(alive, 0)
        for u, v, _ in query.edges:
            if u in alive and v in alive:
                degree[u] += 1
                degree[v] += 1
        peel = {u for u, d in degree.items() if d <= 1}
        if not peel:
            return degree
        alive -= peel


def _cut_plan(query: QueryGraph) -> _CutPlan:
    """Cut the query's cycles: take the 2-core's max-degree vertex
    (lowest index on ties) until the rest is a forest, then root each
    forest component, preferring a vertex adjacent to the cut."""
    n = query.num_vertices
    cut: Set[int] = set()
    while True:
        core = _two_core(query, cut)
        if not core:
            break
        cut.add(max(sorted(core), key=core.__getitem__))
    degree = [query.degree(u) for u in range(n)]
    forest: List[List[Tuple[int, int, bool]]] = [[] for _ in range(n)]
    unary: List[List[Tuple[int, int, bool]]] = [[] for _ in range(n)]
    constant: List[Tuple[int, int, int]] = []
    for u, v, label in query.edges:
        if u in cut and v in cut:
            constant.append((u, v, label))
        elif v in cut:
            unary[u].append((v, label, True))
        elif u in cut:
            unary[v].append((u, label, False))
        else:
            forest[u].append((v, label, True))
            forest[v].append((u, label, False))
    children: List[List[Tuple[int, int, bool]]] = [[] for _ in range(n)]
    roots: List[int] = []
    visited = set(cut)
    for start in range(n):
        if start in visited:
            continue
        component = [start]
        visited.add(start)
        for u in component:  # grows while iterating: BFS
            for v, _, _ in forest[u]:
                if v not in visited:
                    visited.add(v)
                    component.append(v)
        root = max(
            sorted(component), key=lambda u: (bool(unary[u]), degree[u])
        )
        roots.append(root)
        seen = {root}
        frontier = [root]
        for u in frontier:
            for v, label, forward in forest[u]:
                if v not in seen:
                    seen.add(v)
                    children[u].append((v, label, forward))
                    frontier.append(v)
    return _CutPlan(
        _matching_order(query, cut), degree, roots, children, unary, constant
    )


def _matching_order(query: QueryGraph, vertices: Set[int]) -> Tuple[int, ...]:
    """Max-degree-first order, growing along query edges where it can."""
    remaining = set(vertices)
    order: List[int] = []
    while remaining:
        placed = set(order)
        frontier = {u for u in remaining if query.neighbors(u) & placed}
        best = max(frontier or remaining, key=query.degree)
        order.append(best)
        remaining.discard(best)
    return tuple(order)


def _vertex_factor(
    summary: SummaryGraph, bucket: int, labels: FrozenSet[int], degree: int
) -> Fraction:
    """``effective_weight(b, L_u) / w(b)^deg(u)``: the vertex's own
    weight, with the ``1/w`` that each incident edge's weight
    ``k / (w(b_u) w(b_v))`` charges to this endpoint."""
    weight = summary.effective_weight(bucket, labels)
    if not weight:
        return Fraction(0)
    return Fraction(weight, summary.weights[bucket] ** degree)
