"""Descriptor marshalling for the native sealed-matcher search kernel.

:func:`build_native_matcher` flattens a
:class:`~repro.matching.homomorphism.HomomorphismCounter`'s frozen plan
tables into the int64 descriptor rows ``gc_match`` consumes — CSR arena
pointers, per-plan constraint triples, label masks, static candidate
lists, per-depth separator rows — and returns a callable that runs the
whole backtracking search in C.  The kernel replicates the Python
search node for node (same candidate orders, same count-memo keying and
insertion cap, same ``steps`` accounting), so counts, step counters and
completeness flags are bit-identical; see the python-vs-c differential
suite in ``tests/test_native_kernels.py``.

Only the plan shapes the C kernel replicates exactly are eligible:
bitset-mode counters over a raw-CSR sealed graph with no per-edge
candidate restrictions, no vertex filters, no self loops (plan extras)
and at most 32 query vertices.  Anything else returns None and the
caller stays on the Python loop, whose inner batch ops still dispatch
natively.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from typing import Optional

from .native import NativeLib, _PinnedBuffer

_i64p = ctypes.POINTER(ctypes.c_int64)
_u8p = ctypes.POINTER(ctypes.c_ubyte)

#: the C kernel's inline memo-key capacity: depth + up to 32 separators
MAX_QUERY_VERTICES = 32


def _arr_ptr(arr: array) -> _i64p:
    addr, _ = arr.buffer_info()
    return ctypes.cast(addr, _i64p)


def _buffer_ptr(buf, keep: list) -> _i64p:
    """int64* over an array('q') or a (shm) memoryview, zero-copy."""
    if isinstance(buf, array):
        keep.append(buf)
        addr, _ = buf.buffer_info()
        return ctypes.cast(addr, _i64p)
    pin = _PinnedBuffer(buf)
    keep.append(pin)
    return ctypes.cast(pin.addr, _i64p)


def _label_mask(graph, lib: NativeLib, ulabels) -> array:
    """Byte-per-vertex membership mask for a vertex-label set, cached."""
    key = ("native.mask", ulabels)
    mask = graph.shared_cache.get(key)
    if mask is None:
        n = graph.num_vertices
        mask = array("B", bytes(n))
        members = array("q", graph.labels_member_set(ulabels))
        if members:
            lib.gc_build_mask(
                _arr_ptr(members),
                len(members),
                ctypes.cast(mask.buffer_info()[0], ctypes.c_char_p),
            )
        graph.shared_cache[key] = mask
    return mask


def _static_candidates(graph, counter, plan) -> array:
    """Anchor-free candidate list as an int64 array, cached on the graph.

    Mirrors ``_plan_candidates``' static branch exactly: the label-set
    member tuple in its cached order, or all vertices in id order.
    """
    label_set = plan[4]
    u = plan[7]
    if label_set is not None:
        key = ("native.static", frozenset(counter.query.vertex_labels[u]))
        arr = graph.shared_cache.get(key)
        if arr is None:
            arr = array(
                "q", graph.label_members(counter.query.vertex_labels[u])
            )
            graph.shared_cache[key] = arr
        return arr
    key = ("native.iota",)
    arr = graph.shared_cache.get(key)
    if arr is None:
        arr = array("q", range(graph.num_vertices))
        graph.shared_cache[key] = arr
    return arr


class _NativeRunner:
    """A bound ``gc_match`` invocation; holds every descriptor alive."""

    def __init__(self, lib: NativeLib, counter) -> None:
        self._lib = lib
        self._keep: list = []
        graph = counter.graph
        query = counter.query
        order = counter._order
        nq = len(order)
        self._nq = nq
        self._n = graph.num_vertices

        bufs = []
        for direction in (graph._fwd, graph._rev):
            for name in (
                "lab_off",
                "lab",
                "seg_off",
                "targets",
                "sorted_targets",
            ):
                bufs.append(_buffer_ptr(getattr(direction, name), self._keep))
        self._csr_bufs = (_i64p * 10)(*bufs)

        # plans, in registry insertion order (plan[0] is the index)
        plans = list(counter._plan_registry.items())
        plan_rows = array("q")
        cons_flat = array("q")
        masks: list = []
        statics: list = []
        static_lens = array("q")
        for signature, plan in plans:
            u, entries, _extras = signature
            cons_off = len(cons_flat)
            for other, direction, label, _idx in entries:
                # "out" (u --label--> other) candidates come from the
                # anchor's in-adjacency, i.e. the REV CSR; "in" from FWD
                cons_flat.extend((1 if direction == "out" else 0, label, other))
            mask_idx = -1
            if plan[4] is not None:  # label-constrained vertex
                mask = _label_mask(graph, lib, plan[12])
                mask_idx = len(masks)
                masks.append(mask)
            static_idx = -1
            if not plan[1]:  # anchor-free: precomputed static list
                arr = _static_candidates(graph, counter, plan)
                static_idx = len(statics)
                statics.append(arr)
                static_lens.append(len(arr))
            plan_rows.extend((u, len(entries), cons_off, mask_idx, static_idx))
        self._n_plans = len(plans)
        self._plan_flat = plan_rows
        self._cons_flat = cons_flat if cons_flat else array("q", [0])
        self._mask_ptrs = (_u8p * max(1, len(masks)))(
            *[
                ctypes.cast(m.buffer_info()[0], _u8p)
                for m in masks
            ]
        )
        self._keep.extend(masks)
        self._static_ptrs = (_i64p * max(1, len(statics)))(
            *[_arr_ptr(a) for a in statics]
        )
        self._keep.extend(statics)
        self._static_lens = static_lens if static_lens else array("q", [0])

        # per-depth rows + separator arena + leaf-product plan indexes
        depth_rows = array("q")
        sep_flat = array("q")
        leaf_plan = array("q")
        for d in range(nq):
            sep = (
                counter._separators[d]
                if len(counter._separators[d]) < d
                else None
            )
            sep_off = len(sep_flat)
            if sep is not None:
                sep_flat.extend(sep)
                sep_len = len(sep)
            else:
                sep_len = -1
            leaf_ok = 1 if (d > 0 and counter._suffix_independent[d]) else 0
            depth_rows.extend(
                (order[d], counter._depth_plans[d][0], sep_off, sep_len,
                 leaf_ok)
            )
            leaf_plan.append(counter._leaf_plans[d][0])
        self._depth_flat = depth_rows if depth_rows else array("q", [0])
        self._sep_flat = sep_flat if sep_flat else array("q", [0])
        self._leaf_plan = leaf_plan if leaf_plan else array("q", [0])
        self._out = array("q", [0, 0, 0])

    def __call__(
        self, deadline: float, cap: int
    ) -> Optional[tuple]:
        """Run the search; ``(count, steps, complete)`` or None on failure.

        ``deadline`` is the counter's absolute monotonic deadline (the
        kernel re-anchors the remaining budget on its own CLOCK_MONOTONIC);
        infinity means no time budget.
        """
        if deadline == float("inf"):
            remaining = 0.0  # sentinel: no deadline
        else:
            remaining = max(deadline - time.monotonic(), 1e-9)
        rc = self._lib.gc_match(
            self._csr_bufs,
            self._n,
            self._nq,
            _arr_ptr(self._plan_flat) if self._plan_flat else None,
            self._n_plans,
            _arr_ptr(self._cons_flat),
            self._mask_ptrs,
            self._static_ptrs,
            _arr_ptr(self._static_lens),
            _arr_ptr(self._depth_flat),
            _arr_ptr(self._sep_flat),
            _arr_ptr(self._leaf_plan),
            cap,
            remaining,
            _arr_ptr(self._out),
        )
        if rc != 0:
            return None
        return (self._out[0], self._out[1], bool(self._out[2]))


def build_native_matcher(counter, lib: NativeLib):
    """A native runner for this counter, or None when out of scope."""
    graph = counter.graph
    if not getattr(graph, "sealed", False):
        return None
    fwd = getattr(graph, "_fwd", None)
    rev = getattr(graph, "_rev", None)
    if fwd is None or rev is None:
        return None
    if getattr(graph, "_patched", False):
        # a resealed graph's CSR offsets do not cover its patched rows;
        # the Python loop reads through the overlay accessors instead
        return None
    if not counter._bitsets:
        # non-bitset counters use a different (insertion-order) candidate
        # pipeline for multi-constraint nodes; the C kernel replicates
        # the bitset pipeline only
        return None
    if counter.edge_candidates or counter.vertex_filters:
        return None
    if len(counter._order) > MAX_QUERY_VERTICES:
        return None
    for _signature, plan in counter._plan_registry.items():
        if plan[3] or plan[5] is not None:  # extras / vertex filter
            return None
    try:
        return _NativeRunner(lib, counter)
    except (BufferError, ValueError, ctypes.ArgumentError):
        return None
