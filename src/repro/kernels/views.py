"""Zero-copy int64 views over the sealed graph's ``array('q')`` arenas.

``array('q')`` and the read-only shared-memory segments produced by
:meth:`CompactGraph.to_shm` both expose the buffer protocol, so the
native backend aliases them without copying through a pinned-buffer
:class:`~repro.kernels.native.NativeView`, and attaching to a
shared-memory graph never duplicates an arena.  Views are read-only
(the substrate is sealed; nothing may write through them) and cached in
the graph's ``shared_cache``, so every consumer of one graph shares one
view per arena.  On the pure-Python backend every function here returns
None before touching the cache, so an in-process flip
(``force_backend``) never hands a view to the Python twins.
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

from .backend import get_native


def as_int64(buf):
    """A read-only ``int64`` view aliasing ``buf`` (no copy).

    ``buf`` is an ``array('q')`` or a (possibly read-only) memoryview of
    one — the two buffer shapes the sealed substrate stores.  Returns a
    :class:`NativeView` on the c backend and None on pure Python.
    """
    if get_native() is None:
        return None
    from . import native

    if isinstance(buf, array) and buf.typecode == "q":
        return native.NativeView.from_array(buf)
    return native.NativeView.from_buffer(buf)


def _cache_of(graph):
    return getattr(graph, "shared_cache", None)


def member_array(graph, labels):
    """Sorted ``int64`` array of ``graph.labels_member_set(labels)``.

    The sorted-unique shape is what the membership kernels binary-search
    against.  Cached per label set in the graph's shared cache; returns
    None on the pure-Python backend.
    """
    if get_native() is None:
        return None
    labels = frozenset(labels)
    cache = _cache_of(graph)
    key = ("kernels.members", labels)
    if cache is not None:
        arr = cache.get(key)
        if arr is not None:
            return arr
    from . import native

    members = graph.labels_member_set(labels)
    arr = native.NativeView.from_array(array("q", sorted(members)))
    if cache is not None:
        cache[key] = arr
    return arr


def pair_arrays(graph, label: int) -> Optional[Tuple[object, object]]:
    """``(src, dst)`` int64 views over one edge label's pair arenas.

    Zero-copy aliases of the sealed graph's per-label ``(src, dst)``
    arrays, in insertion order — index ``i`` is ``edge_pairs(label)[i]``.
    Returns None on the pure-Python backend or when the graph does not
    expose its pair buffers (dict-backed graphs).
    """
    if get_native() is None:
        return None
    buffers = getattr(graph, "edge_pair_buffers", None)
    if buffers is None:
        return None
    cache = _cache_of(graph)
    key = ("kernels.pairs", label)
    if cache is not None:
        views = cache.get(key)
        if views is not None:
            return views
    raw = buffers(label)
    if raw is None:
        return None
    views = (as_int64(raw[0]), as_int64(raw[1]))
    if cache is not None:
        cache[key] = views
    return views
