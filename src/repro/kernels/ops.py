"""Batch set/bitset kernels with bit-identical pure-Python twins.

Every function dispatches on :func:`~repro.kernels.backend.get_native`
at call time and returns plain Python ints/lists either way, so cached
results are interchangeable between backends.  The native paths only
engage above small size thresholds: per-call dispatch overhead (~1 us
for a ctypes call) loses to a C-level ``in`` test on the short
adjacency segments that dominate the matcher, while the batch shapes
(label member sets, bitset arenas, filtered pair lists) win by an order
of magnitude.  The Python twin is the reference the native leg is
differentially tested against, at the same threshold boundaries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .backend import get_native

#: below this many input values the pure-Python twin is used even on the
#: native backend — identical results, better constants on tiny
#: inputs
SMALL_INPUT = 24
#: below this popcount, bitset decoding stays on the bit-twiddling loop
SMALL_BITS = 64


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Ascending intersection of two sorted, duplicate-free sequences."""
    lib = get_native()
    if lib is not None and min(len(a), len(b)) >= SMALL_INPUT:
        from . import native

        return native.intersect_sorted(lib, a, b)
    result: List[int] = []
    append = result.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return result


def filter_members(
    values: Sequence[int],
    member_set,
    member_arr=None,
    values_arr=None,
) -> List[int]:
    """``[v for v in values if v in member_set]`` — order preserved.

    ``member_set`` drives the Python twin; ``member_arr`` is the same
    membership domain as a sorted int64 array for the native path
    (binary-search mask).  ``values_arr`` optionally supplies ``values``
    as an existing backend-native view so no conversion is paid.
    """
    lib = get_native()
    usable = member_arr is not None and len(values) >= SMALL_INPUT
    if lib is not None and usable:
        from . import native

        return native.filter_members(
            lib,
            values_arr if values_arr is not None else values,
            member_set,
            member_arr,
        )
    return [v for v in values if v in member_set]


def count_members(
    values: Sequence[int],
    member_set,
    member_arr=None,
    values_arr=None,
) -> int:
    """Number of ``values`` inside the membership domain."""
    lib = get_native()
    usable = member_arr is not None and len(values) >= SMALL_INPUT
    if lib is not None and usable:
        from . import native

        return native.count_members(
            lib,
            values_arr if values_arr is not None else values,
            member_set,
            member_arr,
        )
    count = 0
    for v in values:
        if v in member_set:
            count += 1
    return count


def filter_members_multi(
    values: Sequence[int],
    member_sets,
    member_arrs=None,
) -> List[int]:
    """Order-preserving filter against *several* membership domains."""
    have_arrs = member_arrs is not None and all(
        arr is not None for arr in member_arrs
    )
    lib = get_native()
    if lib is not None and have_arrs and len(values) >= SMALL_INPUT:
        from . import native

        return native.filter_members_multi(
            lib, values, member_sets, member_arrs
        )
    return [v for v in values if all(v in s for s in member_sets)]


def filter_pairs(
    pairs,
    src_set,
    dst_set,
    arrays=None,
    src_arr=None,
    dst_arr=None,
) -> List[tuple]:
    """Endpoint-filtered pair list: keep ``(s, d)`` with ``s``/``d`` in
    the respective membership domains (None = unconstrained).

    The relational layer's ``sigma_labels(R_l)`` access path.  ``arrays``
    optionally supplies the pair columns as ``(src, dst)`` int64 views;
    ``src_arr``/``dst_arr`` are the membership domains as sorted int64
    arrays.  The native path masks whole columns at once and boxes only
    the (typically much smaller) surviving pairs.
    """
    usable = (
        arrays is not None
        and len(pairs) >= SMALL_INPUT
        and (src_set is None or src_arr is not None)
        and (dst_set is None or dst_arr is not None)
    )
    lib = get_native()
    if lib is not None and usable:
        if src_set is None and dst_set is None:
            return list(pairs)
        from . import native

        return native.filter_pairs(
            lib, pairs, src_set, dst_set, arrays, src_arr, dst_arr
        )
    return [
        (s, d)
        for s, d in pairs
        if (src_set is None or s in src_set)
        and (dst_set is None or d in dst_set)
    ]


def pack_bits(values: Sequence[int], nbits: int, values_arr=None) -> int:
    """Pack vertex ids into a Python big-int bitset (bit ``v`` set).

    The big-int shape is what the matcher intersects with C-speed ``&``
    and ``bit_count()``; packing is the cold-path cost this kernel
    moves to C (one scatter pass instead of a per-id Python loop).
    ``values_arr`` optionally supplies ``values`` as an existing int64
    view.
    """
    lib = get_native()
    if lib is not None and len(values) >= SMALL_INPUT * 2:
        from . import native

        return native.pack_bits(lib, values, nbits, values_arr)
    ba = bytearray((nbits + 7) >> 3)
    for t in values:
        ba[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(ba, "little")


def bits_to_list(bits: int, nbits: Optional[int] = None) -> List[int]:
    """Decode a big-int bitset into the ascending list of set positions."""
    lib = get_native()
    if (
        lib is not None
        and nbits is not None
        and bits
        and bits.bit_count() >= SMALL_BITS
    ):
        from . import native

        return native.bits_to_list(lib, bits, nbits)
    result: List[int] = []
    append = result.append
    while bits:
        low = bits & -bits
        append(low.bit_length() - 1)
        bits ^= low
    return result
