"""Frontier-batched sampling that preserves scalar RNG streams.

G-CARE's reproducibility contract pins every estimate to a per-cell
``random.Random`` seed, and ``randrange`` consumes the underlying
Mersenne-Twister stream via rejection sampling — so a *vectorized* RNG
could never replay the same draw sequence.  The batching here therefore
happens one level up: a whole frontier's indices are drawn through a
single kernel call that performs the exact scalar draw sequence, and
the *post-draw* work (building IMPR's slot tables out of the CSR pair
arenas) is what moves to C.  A frontier of ``k`` draws consumes the
stream exactly like ``k`` scalar ``rng.randrange(n)`` calls — the
seed-stream property test pins this.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .backend import get_native


def draw_indices(rng, n: int, k: int) -> List[int]:
    """``k`` uniform indices in ``[0, n)`` — the scalar draw sequence.

    One kernel call per frontier; element ``i`` equals the value the
    ``i``-th consecutive ``rng.randrange(n)`` call would have produced.
    On the ``c`` backend large frontiers run the exact CPython
    Mersenne-Twister rejection sampler natively and round-trip the
    generator state, so the stream property holds bit-for-bit there too.
    """
    lib = get_native()
    if lib is not None:
        from . import native

        if k >= native.NATIVE_DRAW_MIN:
            drawn = native.draw_indices(lib, rng, n, k)
            if drawn is not None:
                return drawn
    randrange = rng.randrange
    return [randrange(n) for _ in range(k)]


def interleave_pairs(
    pairs: Sequence[Tuple[int, int]],
    arrays=None,
    out: Optional[List[int]] = None,
) -> List[int]:
    """Flatten pairs endpoint-wise: ``[s0, d0, s1, d1, ...]``.

    This is IMPR's slot table shape — slot ``2i`` is the source and slot
    ``2i + 1`` the destination of edge ``i`` — built per label in one
    native interleave instead of a per-edge append loop.  ``out``
    accumulates across labels.
    """
    result = out if out is not None else []
    lib = get_native()
    if lib is not None and arrays is not None and len(pairs) >= 8:
        from . import native

        result.extend(native.interleave_pairs(lib, pairs, arrays))
        return result
    for s, d in pairs:
        result.append(s)
        result.append(d)
    return result
