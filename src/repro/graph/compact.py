"""Compact sealed graph: CSR adjacency over ``array('q')`` buffers.

The dict-of-lists :class:`~repro.graph.digraph.Graph` is the right shape
for *building* a graph — loaders and generators append freely — but it is
a poor shape for *running* estimators over one: every adjacency list is a
Python list of boxed ints inside a per-vertex dict, every ``has_edge``
probe allocates a tuple to hash into a set of tuples, and nothing can be
memoized because the graph may grow under the caller's feet.

:class:`CompactGraph` is the sealed (immutable) form the evaluation
pipeline actually runs on.  ``Graph.seal()`` produces one; loaders and
dataset generators seal by default.  Layout, per direction (out/in):

* ``lab_off`` / ``lab`` — per-vertex label lists (two-level CSR): vertex
  ``v``'s adjacency is grouped by edge label, labels listed in the same
  order the dict-backed graph held them;
* ``seg_off`` / ``targets`` — one contiguous neighbor segment per
  ``(vertex, label)`` pair, neighbors in original insertion order;
* ``sorted_targets`` — the same segments with neighbors sorted, giving
  ``has_edge`` an O(log d) bisect with no tuple allocation.

**Order preservation is a feature, not an accident.**  Sampling-based
estimators index into adjacency lists and relation scans with their RNG,
so iteration order is part of the determinism contract: every accessor
of the sealed graph returns elements in exactly the order the dict-backed
graph would, which is what makes estimates bit-identical across the two
substrates (see ``tests/test_compact_graph.py``).

**Sealing unlocks memoization.**  Because a sealed graph can never
change, it safely caches derived structures on first use: per-``(vertex,
label)`` neighbor frozensets (the exact-matcher's constraint filters),
per-label vertex membership sets, and label-set member lists.  The
mutable graph cannot offer these without invalidation hazards — which is
precisely why the fast paths downstream key on ``graph.sealed``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .. import kernels as _kernels
from ..kernels import ops as _kops
from ..kernels import views as _kviews
from .delta import (
    DeltaError,
    OP_ADD_EDGE,
    OP_ADD_VERTEX,
    OP_ADD_VERTEX_LABEL,
    OP_REMOVE_EDGE,
)
from .digraph import Edge, Graph, GraphStats, UNLABELED


class SealedGraphError(TypeError):
    """Raised when a mutation is attempted on a sealed graph."""


class IntArrayView(Sequence):
    """Immutable view over a slice of an ``array('q')`` buffer.

    Behaves like a read-only list of ints: ``len``, indexing, iteration,
    containment and equality against any sequence all work; mutation does
    not exist.  Views are cheap (three words) and never copy the buffer.
    """

    __slots__ = ("_data", "_start", "_stop")

    def __init__(self, data: array, start: int = 0, stop: Optional[int] = None):
        self._data = data
        self._start = start
        self._stop = len(data) if stop is None else stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        n = self._stop - self._start
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                return tuple(
                    self._data[self._start + i] for i in range(start, stop, step)
                )
            return IntArrayView(self._data, self._start + start, self._start + stop)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("view index out of range")
        return self._data[self._start + index]

    def __iter__(self):
        data = self._data
        for i in range(self._start, self._stop):
            yield data[i]

    def __contains__(self, value) -> bool:
        data = self._data
        for i in range(self._start, self._stop):
            if data[i] == value:
                return True
        return False

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, IntArrayView)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self):  # pragma: no cover - views are not hashable
        raise TypeError("IntArrayView is unhashable; convert to tuple")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"IntArrayView({list(self)!r})"


class PairArrayView(Sequence):
    """Immutable view over parallel src/dst arrays: a list of pairs.

    The sealed counterpart of ``Graph.edges_with_label``'s pair list —
    same length, same order, same ``(src, dst)`` tuples, no mutation.
    """

    __slots__ = ("_src", "_dst")

    def __init__(self, src: array, dst: array) -> None:
        self._src = src
        self._dst = dst

    def __len__(self) -> int:
        return len(self._src)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                (self._src[i], self._dst[i])
                for i in range(*index.indices(len(self._src)))
            ]
        return (self._src[index], self._dst[index])

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self._src, self._dst)

    def __contains__(self, pair) -> bool:
        try:
            s, d = pair
        except (TypeError, ValueError):
            return False
        return any(
            self._src[i] == s and self._dst[i] == d
            for i in range(len(self._src))
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, PairArrayView)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self):  # pragma: no cover - views are not hashable
        raise TypeError("PairArrayView is unhashable; convert to list")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PairArrayView({list(self)!r})"


_EMPTY = array("q")
_EMPTY_VIEW = IntArrayView(_EMPTY)
_EMPTY_PAIRS = PairArrayView(_EMPTY, _EMPTY)


class _Direction:
    """One direction (out or in) of the two-level CSR adjacency."""

    __slots__ = ("lab_off", "lab", "seg_off", "targets", "sorted_targets",
                 "seg_cache")

    def __init__(self, adjacency: List[Dict[int, List[int]]]) -> None:
        self.lab_off = array("q", [0])
        self.lab = array("q")
        self.seg_off = array("q", [0])
        self.targets = array("q")
        self.sorted_targets = array("q")
        #: lazy (v, label) -> materialized neighbor tuple; hot loops probe
        #: the same segments constantly, and a cached tuple beats a fresh
        #: view object (C-speed len/index/iteration, no allocation)
        self.seg_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for label_map in adjacency:
            for label, neighbors in label_map.items():
                self.lab.append(label)
                self.targets.extend(neighbors)
                self.sorted_targets.extend(sorted(neighbors))
                self.seg_off.append(len(self.targets))
            self.lab_off.append(len(self.lab))

    def segment(self, v: int, label: int) -> Tuple[int, int]:
        """``(start, stop)`` into ``targets`` for ``(v, label)``; (0, 0) if absent."""
        lo, hi = self.lab_off[v], self.lab_off[v + 1]
        # manual scan instead of array.index(label, lo, hi): the buffers
        # may be shared-memory memoryviews (no .index), and per-vertex
        # label lists are tiny; results are cached downstream anyway
        lab = self.lab
        for k in range(lo, hi):
            if lab[k] == label:
                return (self.seg_off[k], self.seg_off[k + 1])
        return (0, 0)

    def neighbors(self, v: int, label: int) -> Tuple[int, ...]:
        key = (v, label)
        cached = self.seg_cache.get(key)
        if cached is None:
            start, stop = self.segment(v, label)
            cached = tuple(self.targets[start:stop])
            self.seg_cache[key] = cached
        return cached

    @classmethod
    def _from_buffers(cls, lab_off, lab, seg_off, targets, sorted_targets):
        """Rebuild a direction over existing buffers (the shm attach path)."""
        self = cls.__new__(cls)
        self.lab_off = lab_off
        self.lab = lab
        self.seg_off = seg_off
        self.targets = targets
        self.sorted_targets = sorted_targets
        self.seg_cache = {}
        return self

    def __getstate__(self):
        state = {}
        # the class constant, not self.__slots__: a subclass instance's
        # __slots__ names only the subclass additions
        for slot in _Direction.__slots__:
            if slot == "seg_cache":
                continue
            value = getattr(self, slot)
            if isinstance(value, memoryview):
                # shm-attached buffers cannot cross a pickle boundary;
                # materialize them (the receiver owns a private copy)
                value = array("q", value)
            state[slot] = value
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self.seg_cache = {}

    def all_neighbors(self, v: int) -> List[int]:
        lo, hi = self.lab_off[v], self.lab_off[v + 1]
        return list(self.targets[self.seg_off[lo]:self.seg_off[hi]])

    def degree(self, v: int) -> int:
        lo, hi = self.lab_off[v], self.lab_off[v + 1]
        return self.seg_off[hi] - self.seg_off[lo]

    def label_map(self, v: int) -> Dict[int, IntArrayView]:
        lo, hi = self.lab_off[v], self.lab_off[v + 1]
        return {
            self.lab[k]: IntArrayView(
                self.targets, self.seg_off[k], self.seg_off[k + 1]
            )
            for k in range(lo, hi)
        }

    def contains(self, v: int, label: int, target: int) -> bool:
        start, stop = self.segment(v, label)
        if start == stop:
            return False
        index = bisect_left(self.sorted_targets, target, start, stop)
        return index < stop and self.sorted_targets[index] == target

    def patch_row(self, v: int):
        """Reseal overlay row for ``v`` (None on a pristine direction).

        The patched subclass returns the copy-on-write adjacency row of a
        vertex touched by :meth:`CompactGraph.reseal`; accessors consult
        it before touching the CSR offsets (which still describe the
        *base* generation for patched vertices).
        """
        return None


#: shared immutable row for vertices added by a reseal and never touched
#: again — real rows replace it on first mutation
_EMPTY_ROW: Dict[int, Tuple[int, ...]] = {}


class _PatchedDirection(_Direction):
    """A direction with copy-on-write rows over a pristine base.

    Shares the base CSR arenas (which may be read-only shared-memory
    views — in-place mutation is impossible by construction) and carries
    a ``rows`` dict holding the full ``label -> targets`` adjacency of
    every vertex a reseal touched, in exactly the order a freshly sealed
    graph would hold it.  Chained reseals stack onto the *same* base:
    ``rows`` accumulates, and the compaction threshold in ``reseal``
    bounds how far it can grow before a full rebuild.
    """

    __slots__ = ("rows", "base_n")

    def __init__(
        self,
        base: _Direction,
        rows: Dict[int, Dict[int, Tuple[int, ...]]],
        base_n: int,
    ) -> None:
        # share the base arenas; no super().__init__() (it would rebuild)
        self.lab_off = base.lab_off
        self.lab = base.lab
        self.seg_off = base.seg_off
        self.targets = base.targets
        self.sorted_targets = base.sorted_targets
        self.seg_cache = {}
        self.rows = rows
        self.base_n = base_n

    def patch_row(self, v: int):
        row = self.rows.get(v)
        if row is None and v >= self.base_n:
            return _EMPTY_ROW
        return row

    def segment(self, v: int, label: int) -> Tuple[int, int]:
        if self.patch_row(v) is not None:  # pragma: no cover - guarded
            raise SealedGraphError(
                "CSR segment offsets are undefined for a patched vertex"
            )
        return super().segment(v, label)

    def neighbors(self, v: int, label: int) -> Tuple[int, ...]:
        row = self.patch_row(v)
        if row is None:
            return super().neighbors(v, label)
        return row.get(label, ())

    def all_neighbors(self, v: int) -> List[int]:
        row = self.patch_row(v)
        if row is None:
            return super().all_neighbors(v)
        result: List[int] = []
        for targets in row.values():
            result.extend(targets)
        return result

    def degree(self, v: int) -> int:
        row = self.patch_row(v)
        if row is None:
            return super().degree(v)
        return sum(len(targets) for targets in row.values())

    def label_map(self, v: int) -> Dict[int, Sequence[int]]:
        row = self.patch_row(v)
        if row is None:
            return super().label_map(v)
        return dict(row)

    def contains(self, v: int, label: int, target: int) -> bool:
        row = self.patch_row(v)
        if row is None:
            return super().contains(v, label, target)
        return target in row.get(label, ())

    def __getstate__(self):
        state = super().__getstate__()
        state["rows"] = self.rows
        state["base_n"] = self.base_n
        return state


class _OverlayMap:
    """Label-keyed mapping with copy-on-write overrides over a base map.

    Backs the patched graph's ``_vindex_arrays`` / ``_esrc`` / ``_edst``:
    untouched labels read straight from the base (a plain dict or a
    :class:`_LazyShmMap` over a shared segment), touched labels from
    private ``array('q')`` copies.  Iteration follows the patched
    graph's label order so serialization and ``values()`` scans see the
    same world the accessors do.
    """

    __slots__ = ("_base", "_over", "_order")

    def __init__(self, base, over: Dict[int, array], order) -> None:
        self._base = base
        self._over = over
        #: a callable returning the *current* label order — the graph's
        #: order tuple is only final once reseal finishes building it
        self._order = order

    def get(self, label, default=None):
        # order gate first: a label emptied by deletes keeps its (empty)
        # override array, but must read as absent — like a fresh seal
        if label not in self._order():
            return default
        data = self._over.get(label)
        if data is not None:
            return data
        return self._base.get(label, default)

    def __getitem__(self, label):
        data = self.get(label)
        if data is None:
            raise KeyError(label)
        return data

    def __contains__(self, label) -> bool:
        return label in self._order()

    def __len__(self) -> int:
        return len(self._order())

    def __iter__(self):
        return iter(self._order())

    def keys(self):
        return tuple(self._order())

    def values(self):
        return [self[label] for label in self._order()]

    def items(self):
        return [(label, self[label]) for label in self._order()]

    def __getstate__(self):
        # materialize: the base may hold shm memoryviews, and the lambda
        # order closure is unpicklable anyway
        return {label: array("q", data) for label, data in self.items()}

    def __setstate__(self, state):
        self._base = state
        self._over = {}
        order = tuple(state)
        self._order = lambda: order


class _OverlayVLabels(Sequence):
    """Per-vertex label sets with overrides + appended vertices.

    ``base`` is the sealed original's container (list or
    :class:`_SharedVLabels`); ``over`` holds label sets changed by
    ``add_vertex_label`` deltas; ``extra`` the sets of vertices added
    after the base was sealed.
    """

    __slots__ = ("base", "over", "extra", "_base_n")

    def __init__(self, base, over: Dict[int, FrozenSet[int]], extra) -> None:
        self.base = base
        self.over = over
        self.extra = extra
        self._base_n = len(base)

    def __len__(self) -> int:
        return self._base_n + len(self.extra)

    def __getitem__(self, v):
        if isinstance(v, slice):
            return [self[i] for i in range(*v.indices(len(self)))]
        if v >= self._base_n:
            return self.extra[v - self._base_n]
        override = self.over.get(v)
        if override is not None:
            return override
        return self.base[v]

    def __iter__(self):
        for v in range(len(self)):
            yield self[v]


class _LazyShmMap:
    """``label -> int64 buffer`` mapping over a shared segment, cast lazily.

    Worker attach must stay O(1) in the number of labels (the AIDS-like
    graphs carry dozens of vertex labels); each buffer is sliced+cast out
    of the segment on first access and cached.  Supports the small
    mapping surface the graph accessors actually use.
    """

    __slots__ = ("_view", "_tag", "_labels", "_members", "_cache")

    def __init__(self, view, tag: str, labels: Tuple[int, ...]) -> None:
        self._view = view
        self._tag = tag
        self._labels = labels
        self._members = frozenset(labels)
        self._cache: Dict[int, object] = {}

    def get(self, label, default=None):
        cached = self._cache.get(label)
        if cached is not None:
            return cached
        if label not in self._members:
            return default
        data = self._view.ints((self._tag, label))
        self._cache[label] = data
        return data

    def __getitem__(self, label):
        data = self.get(label)
        if data is None:
            raise KeyError(label)
        return data

    def __contains__(self, label) -> bool:
        return label in self._members

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def keys(self) -> Tuple[int, ...]:
        return self._labels

    def values(self):
        return [self[label] for label in self._labels]

    def items(self):
        return [(label, self[label]) for label in self._labels]


class _SharedVLabels(Sequence):
    """Per-vertex label sets decoded lazily from a shared-memory index.

    An attached graph must not materialize ``num_vertices`` frozensets at
    construction (that would defeat the point of a sub-millisecond
    attach); instead each vertex carries an index into the shared table
    of *unique* label sets, decoded per access.  Vertices sharing a label
    set share one frozenset object, exactly like the sealed original.
    """

    __slots__ = ("_index", "_raw", "_sets")

    def __init__(self, index, raw_table: Tuple[Tuple[int, ...], ...]) -> None:
        self._index = index
        self._raw = raw_table
        self._sets: List[Optional[FrozenSet[int]]] = [None] * len(raw_table)

    def _set(self, i: int) -> FrozenSet[int]:
        cached = self._sets[i]
        if cached is None:
            cached = self._sets[i] = frozenset(self._raw[i])
        return cached

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, v):
        if isinstance(v, slice):
            return [self._set(i) for i in self._index[v]]
        return self._set(self._index[v])

    def __iter__(self):
        for i in self._index:
            yield self._set(i)


class CompactGraph(Graph):
    """Sealed, array-backed snapshot of a :class:`Graph`.

    Exposes the exact accessor API of the dict-backed graph (it *is* a
    ``Graph`` for ``isinstance`` purposes) with identical element orders,
    but rejects every mutation and memoizes derived lookup structures.
    Construct via :meth:`Graph.seal`.
    """

    sealed = True
    #: set (as an instance attribute) on graphs produced by the patching
    #: fast path of :meth:`reseal`; kernels that bind raw CSR offsets
    #: (the native matcher) key off it to fall back to accessor paths
    _patched = False
    #: provenance of the last reseal that produced this graph:
    #: ``{"mode": "patched"|"compacted", "rows": ...}`` (None if sealed
    #: from scratch) — observability counters read it at the call sites
    last_reseal: Optional[dict] = None
    #: mutation-count stamp mirrored from the source graph (class-level
    #: default covers pickles from before generations existed)
    generation = 0

    def __init__(self, source: Graph) -> None:
        # deliberately no super().__init__(): the dict containers never exist
        if isinstance(source, CompactGraph):
            raise SealedGraphError("graph is already sealed")
        self.num_graphs = source.num_graphs
        self._n = source.num_vertices
        self._m = source.num_edges
        # vertex label sets, interned: vertices sharing a label set share
        # one frozenset object (the dict graph allocates one per vertex)
        interned: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._vlabels = [
            interned.setdefault(source.vertex_labels(v), source.vertex_labels(v))
            for v in range(self._n)
        ]
        self._fwd = _Direction([source.out_label_map(v) for v in range(self._n)])
        self._rev = _Direction([source.in_label_map(v) for v in range(self._n)])
        # vertex label index, in the dict graph's label + member order
        self._vlabel_order: Tuple[int, ...] = tuple(source.all_vertex_labels())
        self._vindex_arrays: Dict[int, array] = {
            label: array("q", source.vertices_with_label(label))
            for label in self._vlabel_order
        }
        # edge label index: per-label (src, dst) pair arrays in insertion order
        self._elabel_order: Tuple[int, ...] = tuple(source.edge_labels())
        self._esrc: Dict[int, array] = {}
        self._edst: Dict[int, array] = {}
        for label in self._elabel_order:
            pairs = source.edges_with_label(label)
            self._esrc[label] = array("q", (s for s, _ in pairs))
            self._edst[label] = array("q", (d for _, d in pairs))
        # lazy memoization caches (safe only because the graph is sealed)
        self._out_set_cache: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._in_set_cache: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._vlabel_set_cache: Dict[int, FrozenSet[int]] = {}
        self._vlabels_members_cache: Dict[FrozenSet[int], Tuple[int, ...]] = {}
        self._labels_set_cache: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._edge_pairs_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._out_bits_cache: Dict[Tuple[int, int], int] = {}
        self._in_bits_cache: Dict[Tuple[int, int], int] = {}
        self._labels_bits_cache: Dict[FrozenSet[int], int] = {}
        self._filtered_cache: Dict[tuple, Tuple[int, ...]] = {}
        self._shm_view = None
        #: cross-component memoization point: immutability makes it safe
        #: for *any* consumer (relational access paths, matchers) to park
        #: derived structures here and share them across estimator
        #: instances; keys are namespaced tuples, values treated read-only
        self.shared_cache: Dict[tuple, object] = {}
        self._fingerprint: Optional[str] = None
        self.generation = source.generation

    # ------------------------------------------------------------------
    # kernel hooks (zero-copy arena access for repro.kernels)
    # ------------------------------------------------------------------
    def edge_pair_buffers(self, label: int):
        """Raw ``(src, dst)`` int64 buffers behind ``edges_with_label``.

        The zero-copy attachment point for :mod:`repro.kernels` — either
        ``array('q')`` objects (local seal) or read-only memoryviews
        into a shared segment (shm attach); native views alias both
        without copying.  None when the label has no edges.
        """
        src = self._esrc.get(label)
        if src is None:
            return None
        return (src, self._edst[label])

    def _targets_view(self, direction: _Direction):
        """Cached int64 view over one direction's targets arena.

        None on the pure-Python backend, checked before the cache so an
        in-process flip (``force_backend``) never hands a native view to
        the Python twins.
        """
        if _kernels.get_native() is None:
            return None
        key = ("kernels.targets", direction is self._fwd)
        view = self.shared_cache.get(key)
        if view is None:
            view = _kernels.as_int64(direction.targets)
            self.shared_cache[key] = view
        return view

    # ------------------------------------------------------------------
    # sealing
    # ------------------------------------------------------------------
    def seal(self) -> "CompactGraph":
        """A sealed graph is its own seal."""
        return self

    def _reject(self, operation: str):
        raise SealedGraphError(
            f"cannot {operation} on a sealed CompactGraph; build with Graph "
            f"and seal() afterwards"
        )

    def add_vertex(self, labels=()):  # noqa: D102 - sealed
        self._reject("add_vertex")

    def add_vertex_label(self, v, label):  # noqa: D102 - sealed
        self._reject("add_vertex_label")

    def add_edge(self, src, dst, label=UNLABELED):  # noqa: D102 - sealed
        self._reject("add_edge")

    def add_undirected_edge(self, u, v, label=UNLABELED):  # noqa: D102
        self._reject("add_undirected_edge")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    def __len__(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self._n)

    def vertex_labels(self, v: int) -> FrozenSet[int]:
        return self._vlabels[v]

    def edges(self) -> Iterator[Edge]:
        for label in self._elabel_order:
            for src, dst in zip(self._esrc[label], self._edst[label]):
                yield (src, dst, label)

    def has_edge(self, src: int, dst: int, label: int) -> bool:
        if not 0 <= src < self._n:
            return False
        return dst in self.out_neighbor_set(src, label)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int, label: Optional[int] = None):
        if label is None:
            return self._fwd.all_neighbors(v)
        return self._fwd.neighbors(v, label)

    def in_neighbors(self, v: int, label: Optional[int] = None):
        if label is None:
            return self._rev.all_neighbors(v)
        return self._rev.neighbors(v, label)

    def out_label_map(self, v: int) -> Dict[int, IntArrayView]:
        return self._fwd.label_map(v)

    def in_label_map(self, v: int) -> Dict[int, IntArrayView]:
        return self._rev.label_map(v)

    def out_degree(self, v: int) -> int:
        return self._fwd.degree(v)

    def in_degree(self, v: int) -> int:
        return self._rev.degree(v)

    def degree(self, v: int) -> int:
        return self._fwd.degree(v) + self._rev.degree(v)

    def neighborhood(self, v: int) -> set:
        result = set(self._fwd.all_neighbors(v))
        result.update(self._rev.all_neighbors(v))
        return result

    # ------------------------------------------------------------------
    # memoized set views (the sealed substrate's fast-path contract)
    # ------------------------------------------------------------------
    def out_neighbor_set(self, v: int, label: int) -> FrozenSet[int]:
        """Frozenset of ``out_neighbors(v, label)``, cached forever.

        Safe to memoize only because the graph is immutable; the exact
        matcher turns per-candidate ``has_edge`` probes into single C
        membership checks against these.
        """
        key = (v, label)
        cached = self._out_set_cache.get(key)
        if cached is None:
            row = self._fwd.patch_row(v)
            if row is not None:
                cached = frozenset(row.get(label, ()))
            else:
                start, stop = self._fwd.segment(v, label)
                cached = frozenset(self._fwd.targets[start:stop])
            self._out_set_cache[key] = cached
        return cached

    def in_neighbor_set(self, v: int, label: int) -> FrozenSet[int]:
        """Frozenset of ``in_neighbors(v, label)``, cached forever."""
        key = (v, label)
        cached = self._in_set_cache.get(key)
        if cached is None:
            row = self._rev.patch_row(v)
            if row is not None:
                cached = frozenset(row.get(label, ()))
            else:
                start, stop = self._rev.segment(v, label)
                cached = frozenset(self._rev.targets[start:stop])
            self._in_set_cache[key] = cached
        return cached

    def label_member_set(self, label: int) -> FrozenSet[int]:
        """Frozenset of ``vertices_with_label(label)``, cached forever."""
        cached = self._vlabel_set_cache.get(label)
        if cached is None:
            cached = frozenset(self._vindex_arrays.get(label, _EMPTY))
            self._vlabel_set_cache[label] = cached
        return cached

    def label_members(self, labels: FrozenSet[int]) -> Tuple[int, ...]:
        """``vertices_with_labels`` as a cached tuple (empty labels = all)."""
        cached = self._vlabels_members_cache.get(labels)
        if cached is None:
            cached = tuple(self.vertices_with_labels(labels))
            self._vlabels_members_cache[labels] = cached
        return cached

    def labels_member_set(self, labels) -> FrozenSet[int]:
        """Vertices carrying *all* of ``labels``, as a cached frozenset.

        ``v in labels_member_set(L)`` is equivalent to
        ``L <= vertex_labels(v)`` — one C membership test instead of a
        frozenset subset comparison per probe.
        """
        labels = frozenset(labels)
        cached = self._labels_set_cache.get(labels)
        if cached is None:
            if labels:
                sets = [self.label_member_set(label) for label in labels]
                cached = frozenset.intersection(*sets)
            else:
                cached = frozenset(range(self._n))
            self._labels_set_cache[labels] = cached
        return cached

    # ------------------------------------------------------------------
    # adjacency bitsets (the exact matcher's intersection kernel)
    # ------------------------------------------------------------------
    def _segment_bits(self, direction: _Direction, v: int, label: int) -> int:
        row = direction.patch_row(v)
        if row is not None:
            ba = bytearray((self._n + 7) >> 3)
            for t in row.get(label, ()):
                ba[t >> 3] |= 1 << (t & 7)
            return int.from_bytes(ba, "little")
        start, stop = direction.segment(v, label)
        if stop - start >= _kops.SMALL_INPUT * 2:
            view = self._targets_view(direction)
            if view is not None:
                seg = view[start:stop]
                return _kops.pack_bits(seg, self._n, values_arr=seg)
        targets = direction.targets
        ba = bytearray((self._n + 7) >> 3)
        for i in range(start, stop):
            t = targets[i]
            ba[t >> 3] |= 1 << (t & 7)
        return int.from_bytes(ba, "little")

    def out_neighbor_bits(self, v: int, label: int) -> int:
        """``out_neighbors(v, label)`` as an int bitset, cached forever.

        Bit ``t`` is set iff ``(v, t, label)`` is an edge.  Python's big
        ints make ``a & b`` a C-speed word-wise intersection and
        ``bit_count()`` a C-speed popcount, which is what turns the
        matcher's multi-constraint candidate filtering (and the leaf
        product's candidate *counts*) into a handful of opcodes.
        """
        key = (v, label)
        cached = self._out_bits_cache.get(key)
        if cached is None:
            cached = self._segment_bits(self._fwd, v, label)
            self._out_bits_cache[key] = cached
        return cached

    def in_neighbor_bits(self, v: int, label: int) -> int:
        """``in_neighbors(v, label)`` as an int bitset, cached forever."""
        key = (v, label)
        cached = self._in_bits_cache.get(key)
        if cached is None:
            cached = self._segment_bits(self._rev, v, label)
            self._in_bits_cache[key] = cached
        return cached

    def out_neighbors_labeled(self, v: int, label: int, vlabels) -> Tuple[int, ...]:
        """``out_neighbors(v, label)`` restricted to vertices carrying all
        of ``vlabels``, cached forever.

        Filtered adjacency is a pure property of the (immutable) graph,
        so caching it here — instead of inside each matcher instance —
        lets every counter over this graph share one filtered list per
        ``(v, edge label, vertex-label set)``, which is the exact
        matcher's dominant miss cost across a multi-query workload.
        Order matches the unfiltered view, preserving the determinism
        contract.
        """
        key = (True, v, label, vlabels)
        cached = self._filtered_cache.get(key)
        if cached is None:
            cached = self._filtered(self._fwd, v, label, vlabels)
            self._filtered_cache[key] = cached
        return cached

    def _filtered(
        self, direction: _Direction, v: int, label: int, vlabels
    ) -> Tuple[int, ...]:
        """One direction's label-constrained candidate list (kernel path)."""
        member = self.labels_member_set(vlabels)
        neighbors = direction.neighbors(v, label)
        values_arr = None
        if (
            len(neighbors) >= _kops.SMALL_INPUT
            and direction.patch_row(v) is None
        ):
            view = self._targets_view(direction)
            if view is not None:
                start, stop = direction.segment(v, label)
                values_arr = view[start:stop]
        return tuple(
            _kops.filter_members(
                neighbors,
                member,
                _kviews.member_array(self, vlabels),
                values_arr,
            )
        )

    def in_neighbors_labeled(self, v: int, label: int, vlabels) -> Tuple[int, ...]:
        """``in_neighbors(v, label)`` restricted to ``vlabels`` carriers."""
        key = (False, v, label, vlabels)
        cached = self._filtered_cache.get(key)
        if cached is None:
            cached = self._filtered(self._rev, v, label, vlabels)
            self._filtered_cache[key] = cached
        return cached

    def labels_member_bits(self, labels) -> int:
        """``labels_member_set(labels)`` as an int bitset, cached forever."""
        labels = frozenset(labels)
        cached = self._labels_bits_cache.get(labels)
        if cached is None:
            members = self.labels_member_set(labels)
            cached = _kops.pack_bits(
                members,
                self._n,
                values_arr=_kviews.member_array(self, labels),
            )
            self._labels_bits_cache[labels] = cached
        return cached

    def edge_pairs(self, label: int) -> Tuple[Tuple[int, int], ...]:
        """``edges_with_label`` materialized as a cached tuple of pairs.

        Same pairs in the same order as the live view; hot loops that
        repeatedly index into the pair list (relation sampling) skip the
        per-access tuple construction of :class:`PairArrayView`.
        """
        cached = self._edge_pairs_cache.get(label)
        if cached is None:
            src = self._esrc.get(label)
            if src is None:
                cached = ()
            else:
                cached = tuple(zip(src, self._edst[label]))
            self._edge_pairs_cache[label] = cached
        return cached

    # ------------------------------------------------------------------
    # label indexes
    # ------------------------------------------------------------------
    def vertices_with_label(self, label: int) -> IntArrayView:
        data = self._vindex_arrays.get(label)
        if data is None:
            return _EMPTY_VIEW
        return IntArrayView(data)

    def vertices_with_labels(self, labels: FrozenSet[int]):
        if not labels:
            return self.vertices()
        ordered = sorted(
            ((self.vertices_with_label(label), label) for label in labels),
            key=lambda entry: len(entry[0]),
        )
        smallest = ordered[0][0]
        member_sets = [self.label_member_set(label) for _, label in ordered[1:]]
        if not member_sets:
            return list(smallest)
        member_arrs = [
            _kviews.member_array(self, frozenset((label,)))
            for _, label in ordered[1:]
        ]
        return _kops.filter_members_multi(smallest, member_sets, member_arrs)

    def edges_with_label(self, label: int) -> PairArrayView:
        src = self._esrc.get(label)
        if src is None:
            return _EMPTY_PAIRS
        return PairArrayView(src, self._edst[label])

    def edge_label_count(self, label: int) -> int:
        src = self._esrc.get(label)
        return 0 if src is None else len(src)

    def edge_labels(self) -> List[int]:
        return list(self._elabel_order)

    def all_vertex_labels(self) -> List[int]:
        return list(self._vlabel_order)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> GraphStats:
        n = self._n
        max_degree = max((self.degree(v) for v in range(n)), default=0)
        avg_degree = (2.0 * self._m / n) if n else 0.0
        predicate_counts = [len(self._esrc[l]) for l in self._elabel_order]
        nontrivial = [l for l in self._elabel_order if l != UNLABELED]
        return GraphStats(
            num_graphs=self.num_graphs,
            num_vertices=n,
            num_edges=self._m,
            avg_degree=avg_degree,
            max_degree=max_degree,
            num_vertex_labels=len(self._vlabel_order),
            num_edge_labels=len(self._elabel_order) if nontrivial else 0,
            max_triples_per_predicate=max(predicate_counts, default=0),
            min_triples_per_predicate=min(predicate_counts, default=0),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CompactGraph(|V|={self._n}, |E|={self._m}, "
            f"vlabels={len(self._vlabel_order)}, "
            f"elabels={len(self._elabel_order)})"
        )

    # ------------------------------------------------------------------
    # incremental re-seal (the O(delta) alternative to thaw + seal)
    # ------------------------------------------------------------------
    @property
    def is_patched(self) -> bool:
        """True when this graph overlays delta patches on shared arenas."""
        return self._patched

    def thaw(self) -> Graph:
        """Reconstruct the mutable dict-backed graph, orders preserved.

        The exact inverse of sealing: every adjacency dict, index list
        and label order comes back in the iteration order the accessors
        expose, so ``thaw().seal()`` round-trips to an equivalent sealed
        graph (same elements, same orders, same generation).  Cost is a
        full O(n + m) rebuild — ``reseal`` uses it only past the patch
        budget, and streaming callers only to branch a mutable copy.
        """
        graph = Graph(self.num_graphs)
        graph._vlabels = [self.vertex_labels(v) for v in range(self._n)]
        graph._out = [
            {label: list(view) for label, view in self.out_label_map(v).items()}
            for v in range(self._n)
        ]
        graph._in = [
            {label: list(view) for label, view in self.in_label_map(v).items()}
            for v in range(self._n)
        ]
        graph._vindex = {
            label: list(self.vertices_with_label(label))
            for label in self._vlabel_order
        }
        graph._eindex = {
            label: list(self.edges_with_label(label))
            for label in self._elabel_order
        }
        graph._edge_set = {
            (src, dst, label)
            for label, pairs in graph._eindex.items()
            for src, dst in pairs
        }
        graph._num_edges = self._m
        graph.generation = self.generation
        return graph

    def compacted(self) -> "CompactGraph":
        """Rebuild a patched graph into pristine CSR arenas (same content).

        A no-op on unpatched graphs.  The rebuilt graph keeps this
        graph's fingerprint — content is identical, so summary-cache
        identity must not change.
        """
        if not self._patched:
            return self
        new = CompactGraph(self.thaw())
        new._fingerprint = self._fingerprint
        new.last_reseal = {"mode": "compacted", "rows": 0}
        return new

    def _lineage_fingerprint(self, deltas) -> Optional[str]:
        """Fingerprint of ``self`` advanced by ``deltas`` — O(delta).

        Derived from the parent fingerprint plus the delta payloads, so
        stamping it never costs a content walk; None when the parent was
        never fingerprinted (the summary cache will content-hash the
        patched graph lazily, which also works).
        """
        if self._fingerprint is None:
            return None
        from hashlib import blake2b

        digest = blake2b(digest_size=16)
        digest.update(b"reseal:")
        digest.update(str(self._fingerprint).encode())
        for delta in deltas:
            digest.update(repr(delta.to_payload()).encode())
        return digest.hexdigest()

    def reseal(self, deltas, max_patch_fraction: float = 0.25) -> "CompactGraph":
        """A new sealed graph = this graph advanced by a delta slice.

        The fast path never rebuilds the CSR arenas: vertices the slice
        touches get full copy-on-write adjacency rows (the arenas may be
        read-only shared-memory pages, so in-place slack slots are off
        the table), per-label index arrays are copied only for touched
        labels, and everything else keeps aliasing the base buffers.
        Cost is O(delta x degree + touched labels), independent of graph
        size, and query-visible behavior is bit-identical to sealing the
        mutated graph from scratch (``tests/test_incremental.py``).

        Patches accumulate across chained reseals; once touched rows
        exceed ``max_patch_fraction`` of all rows, falls back to a full
        ``thaw + apply + seal`` rebuild (``last_reseal["mode"]`` says
        which path ran).  ``self`` is unchanged and stays queryable at
        its own generation; the result is ``len(deltas)`` generations
        ahead and carries an O(delta) lineage fingerprint.

        Raises :class:`~repro.graph.delta.DeltaError` (before any state
        is visible anywhere) when the slice does not apply cleanly.
        """
        deltas = list(deltas)
        if not deltas:
            return self
        touched = set()
        for delta in deltas:
            if delta.op in (OP_ADD_EDGE, OP_REMOVE_EDGE):
                touched.add(delta.src)
                touched.add(delta.dst)
        carried = (
            len(self._fwd.rows) + len(self._rev.rows)
            if isinstance(self._fwd, _PatchedDirection)
            else 0
        )
        if carried + 2 * len(touched) > max_patch_fraction * max(2 * self._n, 1):
            graph = self.thaw()
            graph.apply(deltas)
            new = CompactGraph(graph)
            new._fingerprint = self._lineage_fingerprint(deltas)
            new.last_reseal = {"mode": "compacted", "rows": len(touched)}
            return new
        return self._reseal_patch(deltas)

    def _reseal_patch(self, deltas) -> "CompactGraph":
        """The copy-on-write fast path of :meth:`reseal`."""
        # -- working state, branched copy-on-write off the current graph --
        if isinstance(self._fwd, _PatchedDirection):
            fwd_rows = dict(self._fwd.rows)
            rev_rows = dict(self._rev.rows)
            fwd_base_n = self._fwd.base_n
            rev_base_n = self._rev.base_n
        else:
            fwd_rows = {}
            rev_rows = {}
            fwd_base_n = rev_base_n = self._n
        edited_fwd: set = set()
        edited_rev: set = set()

        if isinstance(self._vlabels, _OverlayVLabels):
            vl_base = self._vlabels.base
            vl_over = dict(self._vlabels.over)
            vl_extra = list(self._vlabels.extra)
        else:
            vl_base = self._vlabels
            vl_over = {}
            vl_extra = []
        base_vl_n = len(vl_base)

        def _split(mapping):
            if isinstance(mapping, _OverlayMap):
                return mapping._base, dict(mapping._over)
            return mapping, {}

        vindex_base, vindex_over = _split(self._vindex_arrays)
        esrc_base, esrc_over = _split(self._esrc)
        edst_base, edst_over = _split(self._edst)
        # labels whose override arrays are private to THIS reseal; a
        # parent's override must be copied before the first mutation so
        # the parent generation stays queryable
        edited_vlabels: set = set()
        edited_elabels: set = set()
        vlabel_order = list(self._vlabel_order)
        elabel_order = list(self._elabel_order)
        n = self._n
        m = self._m

        def edit_row(rows, edited, direction, base_n, v):
            if v in edited:
                return rows[v]
            row = rows.get(v)
            if row is not None:
                row = {label: list(t) for label, t in row.items()}
            elif v >= base_n:
                row = {}
            else:
                row = {
                    label: list(view)
                    for label, view in direction.label_map(v).items()
                }
            rows[v] = row
            edited.add(v)
            return row

        def edit_vindex(label):
            if label not in edited_vlabels:
                current = vindex_over.get(label)
                if current is None:
                    current = vindex_base.get(label)
                vindex_over[label] = (
                    array("q", current) if current is not None else array("q")
                )
                edited_vlabels.add(label)
            return vindex_over[label]

        def edit_pairs(label):
            if label not in edited_elabels:
                src = esrc_over.get(label)
                dst = edst_over.get(label)
                if src is None and label in elabel_order:
                    src = esrc_base.get(label)
                    dst = edst_base.get(label)
                esrc_over[label] = (
                    array("q", src) if src is not None else array("q")
                )
                edst_over[label] = (
                    array("q", dst) if dst is not None else array("q")
                )
                edited_elabels.add(label)
            return esrc_over[label], edst_over[label]

        for delta in deltas:
            op = delta.op
            if op == OP_ADD_EDGE:
                s, d, label = delta.src, delta.dst, delta.label
                if not (0 <= s < n and 0 <= d < n):
                    raise DeltaError(
                        f"add_edge({s}, {d}, {label}): vertex out of range"
                    )
                frow = edit_row(fwd_rows, edited_fwd, self._fwd, fwd_base_n, s)
                dsts = frow.get(label)
                if dsts is None:
                    frow[label] = dsts = []
                elif d in dsts:
                    raise DeltaError(
                        f"add_edge({s}, {d}, {label}): edge already present"
                    )
                dsts.append(d)
                rrow = edit_row(rev_rows, edited_rev, self._rev, rev_base_n, d)
                srcs = rrow.get(label)
                if srcs is None:
                    rrow[label] = srcs = []
                srcs.append(s)
                src_arr, dst_arr = edit_pairs(label)
                src_arr.append(s)
                dst_arr.append(d)
                if label not in elabel_order:
                    elabel_order.append(label)
                m += 1
            elif op == OP_REMOVE_EDGE:
                s, d, label = delta.src, delta.dst, delta.label
                frow = (
                    edit_row(fwd_rows, edited_fwd, self._fwd, fwd_base_n, s)
                    if 0 <= s < n
                    else None
                )
                dsts = frow.get(label) if frow is not None else None
                if dsts is None or d not in dsts:
                    raise DeltaError(
                        f"remove_edge({s}, {d}, {label}): no such edge"
                    )
                dsts.remove(d)
                if not dsts:
                    del frow[label]
                rrow = edit_row(rev_rows, edited_rev, self._rev, rev_base_n, d)
                srcs = rrow[label]
                srcs.remove(s)
                if not srcs:
                    del rrow[label]
                src_arr, dst_arr = edit_pairs(label)
                for i in range(len(src_arr)):
                    if src_arr[i] == s and dst_arr[i] == d:
                        del src_arr[i]
                        del dst_arr[i]
                        break
                if not src_arr:
                    elabel_order.remove(label)
                m -= 1
            elif op == OP_ADD_VERTEX:
                if delta.src >= 0 and delta.src != n:
                    raise DeltaError(
                        f"add_vertex assigned id {n}, journal recorded "
                        f"{delta.src} (slice from a different base?)"
                    )
                labels = frozenset(delta.labels)
                vl_extra.append(labels)
                for label in labels:
                    edit_vindex(label).append(n)
                    if label not in vlabel_order:
                        vlabel_order.append(label)
                n += 1
            else:  # OP_ADD_VERTEX_LABEL
                v, label = delta.src, delta.label
                if not 0 <= v < n:
                    raise DeltaError(
                        f"add_vertex_label({v}, {label}): no such vertex"
                    )
                if v >= base_vl_n:
                    current = vl_extra[v - base_vl_n]
                else:
                    current = vl_over.get(v)
                    if current is None:
                        current = vl_base[v]
                if label in current:
                    raise DeltaError(
                        f"add_vertex_label({v}, {label}): label already "
                        f"attached"
                    )
                updated = current | {label}
                if v >= base_vl_n:
                    vl_extra[v - base_vl_n] = updated
                else:
                    vl_over[v] = updated
                edit_vindex(label).append(v)
                if label not in vlabel_order:
                    vlabel_order.append(label)

        # -- freeze and assemble the new sealed graph --
        for v in edited_fwd:
            fwd_rows[v] = {lbl: tuple(t) for lbl, t in fwd_rows[v].items()}
        for v in edited_rev:
            rev_rows[v] = {lbl: tuple(t) for lbl, t in rev_rows[v].items()}

        new = CompactGraph.__new__(CompactGraph)
        new.num_graphs = self.num_graphs
        new._n = n
        new._m = m
        new._vlabels = (
            _OverlayVLabels(vl_base, vl_over, vl_extra)
            if (vl_over or vl_extra)
            else self._vlabels
        )
        new._fwd = _PatchedDirection(self._fwd, fwd_rows, fwd_base_n)
        new._rev = _PatchedDirection(self._rev, rev_rows, rev_base_n)
        new._vlabel_order = tuple(vlabel_order)
        new._elabel_order = tuple(elabel_order)
        new._vindex_arrays = _OverlayMap(
            vindex_base, vindex_over, lambda: new._vlabel_order
        )
        new._esrc = _OverlayMap(esrc_base, esrc_over, lambda: new._elabel_order)
        new._edst = _OverlayMap(edst_base, edst_over, lambda: new._elabel_order)
        new._out_set_cache = {}
        new._in_set_cache = {}
        new._vlabel_set_cache = {}
        new._vlabels_members_cache = {}
        new._labels_set_cache = {}
        new._edge_pairs_cache = {}
        new._out_bits_cache = {}
        new._in_bits_cache = {}
        new._labels_bits_cache = {}
        new._filtered_cache = {}
        new.shared_cache = {}
        # keep the shared segment mapped while the overlay aliases it
        new._shm_view = self._shm_view
        new._fingerprint = self._lineage_fingerprint(deltas)
        new.generation = self.generation + len(deltas)
        new._patched = True
        new.last_reseal = {
            "mode": "patched",
            "rows": len(edited_fwd) + len(edited_rev),
            "carried_rows": len(fwd_rows) + len(rev_rows),
        }
        return new

    # ------------------------------------------------------------------
    # shared memory (zero-copy publication to worker processes)
    # ------------------------------------------------------------------
    def to_shm(self):
        """Publish every array buffer into one shared-memory segment.

        Returns ``(handle, ref)``: the creator-side
        :class:`~repro.shm.SealedArena` handle (``handle.release()``
        unlinks the segment; orderly exits and orphan reaping back it up)
        and a tiny picklable :class:`~repro.shm.ShmRef` that any process
        on this host turns back into a graph with :meth:`from_shm` —
        attaching maps the same physical pages read-only instead of
        copying them, so attach cost is independent of graph size.
        """
        from ..shm import ShmArena, ShmRef

        if self._patched:
            # a patched graph aliases buffers it does not own (possibly
            # pages of the segment being replaced); publish a compacted
            # rebuild so the new segment is self-contained
            return self.compacted().to_shm()
        arena = ShmArena()
        for tag, direction in (("f", self._fwd), ("r", self._rev)):
            arena.add_ints((tag, "lab_off"), direction.lab_off)
            arena.add_ints((tag, "lab"), direction.lab)
            arena.add_ints((tag, "seg_off"), direction.seg_off)
            arena.add_ints((tag, "targets"), direction.targets)
            arena.add_ints((tag, "sorted"), direction.sorted_targets)
        for label in self._vlabel_order:
            arena.add_ints(("vl", label), self._vindex_arrays[label])
        for label in self._elabel_order:
            arena.add_ints(("es", label), self._esrc[label])
            arena.add_ints(("ed", label), self._edst[label])
        # vertex label sets, dictionary-encoded: a per-vertex index into
        # the (small) table of unique sets, decoded lazily on attach
        table: List[Tuple[int, ...]] = []
        index_of: Dict[FrozenSet[int], int] = {}
        set_index = array("q")
        for labels in self._vlabels:
            i = index_of.get(labels)
            if i is None:
                i = index_of[labels] = len(table)
                table.append(tuple(sorted(labels)))
            set_index.append(i)
        arena.add_ints(("v", "sets"), set_index)
        handle, manifest = arena.seal()
        manifest["graph"] = {
            "n": self._n,
            "m": self._m,
            "num_graphs": self.num_graphs,
            "vlabel_order": self._vlabel_order,
            "elabel_order": self._elabel_order,
            "vsets": tuple(table),
            "fingerprint": self._fingerprint,
            "generation": self.generation,
        }
        return handle, ShmRef("graph", manifest)

    @classmethod
    def from_shm(cls, ref) -> "CompactGraph":
        """Attach a graph published by :meth:`to_shm` — zero copies.

        Every array field becomes a read-only ``memoryview`` cast over
        the shared segment; all accessors work identically (and return
        identical elements in identical order), so estimates and matcher
        counts are bit-identical to the sealed original.  Per-process
        memoization caches start empty, exactly as after unpickling.
        """
        from ..shm import ArenaView, ShmRef

        manifest = ref.manifest if isinstance(ref, ShmRef) else ref
        view = ArenaView(manifest)
        meta = manifest["graph"]
        self = cls.__new__(cls)
        self.num_graphs = meta["num_graphs"]
        self._n = meta["n"]
        self._m = meta["m"]
        self._vlabels = _SharedVLabels(view.ints(("v", "sets")), meta["vsets"])
        self._fwd = _Direction._from_buffers(
            view.ints(("f", "lab_off")), view.ints(("f", "lab")),
            view.ints(("f", "seg_off")), view.ints(("f", "targets")),
            view.ints(("f", "sorted")),
        )
        self._rev = _Direction._from_buffers(
            view.ints(("r", "lab_off")), view.ints(("r", "lab")),
            view.ints(("r", "seg_off")), view.ints(("r", "targets")),
            view.ints(("r", "sorted")),
        )
        self._vlabel_order = tuple(meta["vlabel_order"])
        self._vindex_arrays = _LazyShmMap(view, "vl", self._vlabel_order)
        self._elabel_order = tuple(meta["elabel_order"])
        self._esrc = _LazyShmMap(view, "es", self._elabel_order)
        self._edst = _LazyShmMap(view, "ed", self._elabel_order)
        self._out_set_cache = {}
        self._in_set_cache = {}
        self._vlabel_set_cache = {}
        self._vlabels_members_cache = {}
        self._labels_set_cache = {}
        self._edge_pairs_cache = {}
        self._out_bits_cache = {}
        self._in_bits_cache = {}
        self._labels_bits_cache = {}
        self._filtered_cache = {}
        self.shared_cache = {}
        self._fingerprint = meta["fingerprint"]
        self.generation = meta.get("generation", 0)
        self._shm_view = view
        return self

    # ------------------------------------------------------------------
    # pickling (the memoization caches are per-process; drop them)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = {
            k: v
            for k, v in self.__dict__.items()
            if k
            not in (
                "_out_set_cache",
                "_in_set_cache",
                "_vlabel_set_cache",
                "_vlabels_members_cache",
                "_labels_set_cache",
                "_edge_pairs_cache",
                "_out_bits_cache",
                "_in_bits_cache",
                "_labels_bits_cache",
                "_filtered_cache",
                "shared_cache",
                "_shm_view",
            )
        }
        # an shm-attached graph holds memoryviews into the segment, which
        # cannot cross a pickle boundary: materialize private copies (the
        # _Direction fields handle their own slots the same way)
        if not isinstance(state["_vlabels"], list):
            state["_vlabels"] = list(state["_vlabels"])
        for field in ("_vindex_arrays", "_esrc", "_edst"):
            mapping = state[field]
            if any(isinstance(v, memoryview) for v in mapping.values()):
                state[field] = {
                    label: array("q", data) if isinstance(data, memoryview)
                    else data
                    for label, data in mapping.items()
                }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._out_set_cache = {}
        self._in_set_cache = {}
        self._vlabel_set_cache = {}
        self._vlabels_members_cache = {}
        self._labels_set_cache = {}
        self._edge_pairs_cache = {}
        self._out_bits_cache = {}
        self._in_bits_cache = {}
        self._labels_bits_cache = {}
        self._filtered_cache = {}
        self.shared_cache = {}
        self._shm_view = None
