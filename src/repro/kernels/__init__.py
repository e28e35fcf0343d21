"""Native batch kernels over the sealed CSR substrate.

The sealed :class:`~repro.graph.compact.CompactGraph` stores adjacency,
label indexes and edge-pair arenas as flat ``array('q')`` buffers (or
read-only shared-memory views after :meth:`~CompactGraph.from_shm`).
This package wraps those buffers in **zero-copy** ``int64`` views and
supplies the batch primitives the estimation hot loops are made of:

* sorted-set intersection and order-preserving membership filtering
  (label-constrained candidate generation),
* bitset packing / decoding (the exact matcher's intersection kernel),
* frontier-batched index drawing for the sampling estimators, which
  preserves the per-cell deterministic ``random.Random`` streams.

Every kernel runs on one of two legs, selected by the
``GCARE_KERNELS=c|python`` environment switch: ``c`` (the default, a
lazily cc-compiled shared object, see :mod:`repro.kernels.native`) or
a pure-Python twin that is the **bit-identical** reference and the
fallback wherever no C toolchain is available.  Kernel outputs are
always plain Python ints and lists at cache boundaries — downstream
consumers never observe backend-native scalars.
"""

from .backend import (
    BACKEND_CODES,
    KERNELS_ENV,
    active_backend,
    backend_code,
    fallback_note,
    force_backend,
    get_native,
    native_available,
    refresh_env,
)
from .ops import (
    bits_to_list,
    count_members,
    filter_members,
    filter_members_multi,
    filter_pairs,
    intersect_sorted,
    pack_bits,
)
from .sampling import draw_indices, interleave_pairs
from .views import as_int64, member_array, pair_arrays

__all__ = [
    "BACKEND_CODES",
    "KERNELS_ENV",
    "active_backend",
    "backend_code",
    "as_int64",
    "bits_to_list",
    "count_members",
    "draw_indices",
    "fallback_note",
    "filter_members",
    "filter_members_multi",
    "filter_pairs",
    "force_backend",
    "get_native",
    "interleave_pairs",
    "intersect_sorted",
    "member_array",
    "native_available",
    "pack_bits",
    "pair_arrays",
    "refresh_env",
]
