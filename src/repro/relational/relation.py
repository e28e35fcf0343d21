"""Relational view of a graph query.

Section 4 of the paper: an edge with label ``l`` is a tuple of the binary
relation ``R_l(src, dst)`` and a vertex with label ``A`` is a tuple of the
unary relation ``R_A(v)``.  A subgraph query then becomes a join query whose
join attributes are the query vertices.

A :class:`RelationInstance` is one *occurrence* of a base relation in the
join query — e.g. a triangle query uses three instances that may share the
same base edge relation.  Instances know their join attributes (the query
vertices they bind) and answer the access-path questions the relational
estimators ask:

* enumerate / count all tuples (CorrelatedSampling, BoundSketch),
* uniformly sample a tuple (WanderJoin's first step, JSUB),
* enumerate / count the tuples compatible with a partial binding of the
  query vertices (WanderJoin's walk step, JSUB's exact-weight DP).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.digraph import Graph
from ..kernels import ops as _kops
from ..kernels import views as _kviews

Binding = Dict[int, int]


class RelationInstance:
    """Base class: one occurrence of a relation in a join query."""

    #: query vertices bound by this instance, in tuple position order
    attrs: Tuple[int, ...]
    #: human-readable name, e.g. "R_a(u0,u1)"
    name: str

    def size(self) -> int:
        """|R| — the number of tuples in the base relation."""
        raise NotImplementedError

    def tuples(self) -> Iterator[Tuple[int, ...]]:
        """All tuples of the base relation."""
        raise NotImplementedError

    def sample(self, rng: random.Random) -> Optional[Tuple[int, ...]]:
        """A uniformly random tuple, or None if the relation is empty."""
        raise NotImplementedError

    def extensions(self, binding: Binding) -> List[Tuple[int, ...]]:
        """Tuples consistent with the bound subset of this instance's attrs."""
        raise NotImplementedError

    def count_extensions(self, binding: Binding) -> int:
        return len(self.extensions(binding))

    def bound_attrs(self, binding: Binding) -> List[int]:
        return [a for a in self.attrs if a in binding]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.name


class EdgeRelation(RelationInstance):
    """Binary relation R_l(src, dst) for one query edge ``u --l--> v``.

    Optional endpoint label sets turn the relation into the *filtered*
    view ``sigma_labels(R_l)`` — the access path a triple store with
    type-aware indexes exposes.  WanderJoin walks over filtered edge
    relations so vertex-label predicates prune the walk instead of
    failing it afterwards.
    """

    def __init__(
        self,
        graph: Graph,
        u: int,
        v: int,
        label: int,
        src_labels: frozenset = frozenset(),
        dst_labels: frozenset = frozenset(),
    ) -> None:
        self.graph = graph
        self.label = label
        self.attrs = (u, v)
        self.src_labels = frozenset(src_labels)
        self.dst_labels = frozenset(dst_labels)
        self.name = f"R_e{label}(u{u},u{v})"
        self._filtered: Optional[List[Tuple[int, int]]] = None
        # sealed-only: the resolved pair list, pinned after the first
        # _pairs() call so size()/sample() skip the dispatch (safe only
        # because a sealed graph's edge set can never change)
        self._pairs_pinned: Optional[Sequence[Tuple[int, int]]] = None
        # on sealed (immutable) graphs the expensive derived structures —
        # endpoint-filtered pair lists and per-anchor extension lists —
        # live in the graph's shared cache, so every relation instance of
        # every estimator instance reuses them (WanderJoin/JSUB rebuild
        # their relations on each estimate() call)
        self._sealed = bool(getattr(graph, "sealed", False))
        if self._sealed:
            self._shared = graph.shared_cache
            self._src_ok = (
                graph.labels_member_set(self.src_labels)
                if self.src_labels
                else None
            )
            self._dst_ok = (
                graph.labels_member_set(self.dst_labels)
                if self.dst_labels
                else None
            )
            # membership domains as sorted int64 arrays for the kernel
            # layer (None on the pure-Python backend)
            self._src_arr = (
                _kviews.member_array(graph, self.src_labels)
                if self.src_labels
                else None
            )
            self._dst_arr = (
                _kviews.member_array(graph, self.dst_labels)
                if self.dst_labels
                else None
            )
            # per-anchor extension memos, one dict per walk direction,
            # shared across every instance of this relation *shape*
            shape = (self.label, self.src_labels, self.dst_labels)
            self._ext_fwd: Dict[int, List[Tuple[int, int]]] = (
                self._shared.setdefault(("relation.ext", 0) + shape, {})
            )
            self._ext_rev: Dict[int, List[Tuple[int, int]]] = (
                self._shared.setdefault(("relation.ext", 1) + shape, {})
            )

    def _endpoint_ok(self, value: int, labels: frozenset) -> bool:
        return not labels or labels <= self.graph.vertex_labels(value)

    def _pairs(self) -> Sequence[Tuple[int, int]]:
        if self._pairs_pinned is not None:
            return self._pairs_pinned
        if not self.src_labels and not self.dst_labels:
            if self._sealed:
                self._pairs_pinned = self.graph.edge_pairs(self.label)
                return self._pairs_pinned
            return self.graph.edges_with_label(self.label)
        if self._filtered is None:
            if self._sealed:
                key = ("relation.pairs", self.label, self.src_labels,
                       self.dst_labels)
                cached = self._shared.get(key)
                if cached is None:
                    # one native column mask over the whole pair
                    # arena instead of a per-edge membership loop; the
                    # kernel's Python twin is the exact comprehension
                    # this replaces
                    cached = _kops.filter_pairs(
                        self.graph.edge_pairs(self.label),
                        self._src_ok,
                        self._dst_ok,
                        arrays=_kviews.pair_arrays(self.graph, self.label),
                        src_arr=self._src_arr,
                        dst_arr=self._dst_arr,
                    )
                    self._shared[key] = cached
                self._filtered = cached
                self._pairs_pinned = cached
            else:
                self._filtered = [
                    (s, d)
                    for s, d in self.graph.edges_with_label(self.label)
                    if self._endpoint_ok(s, self.src_labels)
                    and self._endpoint_ok(d, self.dst_labels)
                ]
        return self._filtered

    def size(self) -> int:
        pairs = self._pairs_pinned
        if pairs is None:
            pairs = self._pairs()
        return len(pairs)

    def tuples(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._pairs())

    def sample(self, rng: random.Random) -> Optional[Tuple[int, ...]]:
        pairs = self._pairs_pinned
        if pairs is None:
            pairs = self._pairs()
        if not pairs:
            return None
        return pairs[rng.randrange(len(pairs))]

    def extensions(self, binding: Binding) -> List[Tuple[int, ...]]:
        u, v = self.attrs
        src = binding.get(u)
        dst = binding.get(v)
        if src is None and dst is None:
            return list(self.tuples())
        if self._sealed:
            return self._extensions_sealed(src, dst)
        if src is not None and dst is not None:
            if (
                self.graph.has_edge(src, dst, self.label)
                and self._endpoint_ok(src, self.src_labels)
                and self._endpoint_ok(dst, self.dst_labels)
            ):
                return [(src, dst)]
            return []
        if src is not None:
            if not self._endpoint_ok(src, self.src_labels):
                return []
            return [
                (src, w)
                for w in self.graph.out_neighbors(src, self.label)
                if self._endpoint_ok(w, self.dst_labels)
            ]
        if not self._endpoint_ok(dst, self.dst_labels):
            return []
        return [
            (w, dst)
            for w in self.graph.in_neighbors(dst, self.label)
            if self._endpoint_ok(w, self.src_labels)
        ]

    #: cap on memoized extension anchors per relation shape and direction;
    #: beyond it, compute without caching
    _EXT_CACHE_MAX = 1 << 18

    def _extensions_sealed(
        self, src: Optional[int], dst: Optional[int]
    ) -> List[Tuple[int, int]]:
        """Sealed extension lookup: per-anchor memos in the shared cache.

        Single-endpoint lists (WanderJoin's walk step) are memoized by
        anchor vertex in per-shape dicts parked in the graph's shared
        cache, so walks of *any* estimator instance over the same access
        path reuse them.  Callers treat results as read-only (the walk
        code only indexes and measures them), which is what makes the
        sharing safe.  Endpoint-label rejections are folded into the memo
        as empty lists.
        """
        label = self.label
        if src is not None:
            if dst is not None:
                if (
                    self.graph.has_edge(src, dst, label)
                    and (self._src_ok is None or src in self._src_ok)
                    and (self._dst_ok is None or dst in self._dst_ok)
                ):
                    return [(src, dst)]
                return []
            cache = self._ext_fwd
            cached = cache.get(src)
            if cached is None:
                if self._src_ok is not None and src not in self._src_ok:
                    cached = []
                else:
                    dst_ok = self._dst_ok
                    targets = self.graph.out_neighbors(src, label)
                    if dst_ok is not None:
                        # hub anchors get the native membership mask;
                        # short segments fall through to the scalar twin
                        # inside the kernel
                        targets = _kops.filter_members(
                            targets, dst_ok, self._dst_arr
                        )
                    cached = [(src, w) for w in targets]
                if len(cache) < self._EXT_CACHE_MAX:
                    cache[src] = cached
            return cached
        cache = self._ext_rev
        cached = cache.get(dst)
        if cached is None:
            if self._dst_ok is not None and dst not in self._dst_ok:
                cached = []
            else:
                src_ok = self._src_ok
                sources = self.graph.in_neighbors(dst, label)
                if src_ok is not None:
                    sources = _kops.filter_members(
                        sources, src_ok, self._src_arr
                    )
                cached = [(w, dst) for w in sources]
            if len(cache) < self._EXT_CACHE_MAX:
                cache[dst] = cached
        return cached

    def count_extensions(self, binding: Binding) -> int:
        u, v = self.attrs
        src = binding.get(u)
        dst = binding.get(v)
        if src is None and dst is None:
            return self.size()
        if (src is None) != (dst is None) and not (
            self.src_labels or self.dst_labels
        ):
            # unfiltered single-endpoint case: adjacency list length
            if src is not None:
                return len(self.graph.out_neighbors(src, self.label))
            return len(self.graph.in_neighbors(dst, self.label))
        return len(self.extensions(binding))


class VertexRelation(RelationInstance):
    """Unary relation R_A(v) for one label of a labeled query vertex."""

    def __init__(self, graph: Graph, u: int, label: int) -> None:
        self.graph = graph
        self.label = label
        self.attrs = (u,)
        self.name = f"R_v{label}(u{u})"

    def size(self) -> int:
        return len(self.graph.vertices_with_label(self.label))

    def tuples(self) -> Iterator[Tuple[int, ...]]:
        return ((v,) for v in self.graph.vertices_with_label(self.label))

    def sample(self, rng: random.Random) -> Optional[Tuple[int, ...]]:
        vertices = self.graph.vertices_with_label(self.label)
        if not vertices:
            return None
        return (vertices[rng.randrange(len(vertices))],)

    def extensions(self, binding: Binding) -> List[Tuple[int, ...]]:
        (u,) = self.attrs
        value = binding.get(u)
        if value is not None:
            if self.label in self.graph.vertex_labels(value):
                return [(value,)]
            return []
        return [(v,) for v in self.graph.vertices_with_label(self.label)]

    def count_extensions(self, binding: Binding) -> int:
        (u,) = self.attrs
        value = binding.get(u)
        if value is not None:
            return 1 if self.label in self.graph.vertex_labels(value) else 0
        return self.size()
