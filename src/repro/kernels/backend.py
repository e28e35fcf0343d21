"""Kernel backend selection: ``GCARE_KERNELS=c|python``.

Two legs share one dispatch point.  The ``c`` leg is the default: a
small native library compiled lazily from :file:`_native.c` with the
system ``cc`` and loaded via ctypes (see :mod:`repro.kernels.native`).
Without a toolchain — or with a failing compile — dispatch silently
degrades to the pure-Python reference twins and :func:`fallback_note`
explains why.  ``GCARE_KERNELS=python`` forces the reference leg; any
other value (including the retired ``numpy``) resolves like an unset
variable.  The switch is read once at import; :func:`refresh_env`
re-reads it, so tests (and the CLI) can flip modes without re-importing
the package.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

#: environment variable steering kernel dispatch
KERNELS_ENV = "GCARE_KERNELS"

#: numeric codes for the backend gauge/metric (stable across releases;
#: 1 was the retired numpy leg)
BACKEND_CODES = {"python": 0, "c": 2}

#: process-local override installed by :func:`force_backend`; takes
#: precedence over the environment (tests flip backends per block)
_FORCED: Optional[str] = None

#: the environment switch, read once at import (kernel dispatch sits on
#: estimation hot paths; a per-call os.environ lookup is measurable).
#: :func:`refresh_env` re-reads it for tests and CLI entry points.
_ENV_VALUE = ""

#: memoized :func:`active_backend` resolution (+ the loaded native
#: library when it resolves to ``c``).  Dispatch runs per kernel call,
#: so resolution must be a couple of attribute reads — anything that
#: can change the outcome (:func:`refresh_env`, :func:`force_backend`,
#: ``native.reset_for_tests``) invalidates it.
_RESOLVED: Optional[str] = None
_RESOLVED_LIB = None


def _invalidate() -> None:
    global _RESOLVED, _RESOLVED_LIB
    _RESOLVED = None
    _RESOLVED_LIB = None


def refresh_env() -> None:
    """Re-read ``GCARE_KERNELS`` from the environment.

    Needed after mutating ``os.environ`` in-process (tests); spawned
    worker processes inherit the environment and pick the value up at
    import time on their own.
    """
    global _ENV_VALUE
    _ENV_VALUE = os.environ.get(KERNELS_ENV, "").strip().lower()
    _invalidate()


refresh_env()


def native_available() -> bool:
    """True when the native library compiles and loads on this machine."""
    from . import native

    return native.load() is not None


def _requested() -> str:
    if _FORCED is not None:
        return _FORCED
    return _ENV_VALUE


def active_backend() -> str:
    """The backend kernels dispatch on right now: ``c`` or ``python``.

    ``c`` whenever the native library compiles and loads, unless
    ``GCARE_KERNELS=python`` forces the pure-Python fallback.
    """
    global _RESOLVED, _RESOLVED_LIB
    if _RESOLVED is not None:
        return _RESOLVED
    lib = None
    if _requested() != "python":
        from . import native

        lib = native.load()
    _RESOLVED = "c" if lib is not None else "python"
    _RESOLVED_LIB = lib
    return _RESOLVED


def backend_code(name: Optional[str] = None) -> int:
    """Numeric code for a backend name (default: the active one)."""
    return BACKEND_CODES[name if name is not None else active_backend()]


def get_native():
    """The loaded native library when the active backend is ``c``.

    The single dispatch point of every kernel: a non-None return means
    "run natively", None means "run the pure-Python twin".
    """
    if active_backend() != "c":
        return None
    return _RESOLVED_LIB


def fallback_note() -> Optional[str]:
    """One-line explanation when running degraded, else None."""
    choice = _requested()
    if choice == "python":
        return "kernels: pure-Python fallback forced via GCARE_KERNELS=python"
    parts = []
    if choice not in ("", "c"):
        parts.append(
            f"ignoring unknown {KERNELS_ENV}={choice!r} (expected c or python)"
        )
    if not native_available():
        from . import native

        reason = native.fallback_reason() or "native kernels unavailable"
        parts.append(f"{reason}; using the pure-Python fallback")
    if not parts:
        return None
    return "kernels: " + "; ".join(parts)


@contextmanager
def force_backend(name: str):
    """Temporarily pin the backend (``c`` or ``python``).

    Used by the differential tests and the benchmark suite to measure
    both legs in one process.  Forcing ``c`` without a working toolchain
    still degrades — the guard in :func:`active_backend` wins.
    """
    global _FORCED
    if name not in ("c", "python"):
        raise ValueError(f"unknown kernel backend: {name!r}")
    previous = _FORCED
    _FORCED = name
    _invalidate()
    try:
        yield
    finally:
        _FORCED = previous
        _invalidate()
