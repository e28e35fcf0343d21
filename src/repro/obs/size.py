"""Recursive in-memory sizer for summary structures.

The paper's Table 3 scores techniques on "space" — the memory footprint
of the off-line summary.  :func:`deep_sizeof` measures it with a
non-recursive traversal over containers and object dictionaries,
counting every reachable object once.

The result is an *estimate* (Python object overheads are interpreter
specific, numpy buffers are counted via ``nbytes``) meant for relative
comparison between techniques, which is all the benchmark needs.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable

import numpy as _np


def deep_sizeof(obj: Any) -> int:
    """Total size in bytes of ``obj`` and everything reachable from it.

    Shared objects are counted once (identity-deduplicated), so sizing a
    structure with internal aliasing does not double count.
    """
    seen = set()
    total = 0
    stack = [obj]
    while stack:
        current = stack.pop()
        identity = id(current)
        if identity in seen:
            continue
        seen.add(identity)
        if isinstance(current, _np.ndarray):
            total += int(current.nbytes) + sys.getsizeof(current) - current.nbytes
            continue
        try:
            total += sys.getsizeof(current)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif hasattr(current, "__dict__"):
            stack.append(vars(current))
        elif hasattr(current, "__slots__"):
            for slot in _iter_slots(current):
                if hasattr(current, slot):
                    stack.append(getattr(current, slot))
    return total


def _iter_slots(obj: Any) -> Iterable[str]:
    for cls in type(obj).__mro__:
        slots = getattr(cls, "__slots__", ())
        if isinstance(slots, str):
            yield slots
        else:
            yield from slots
