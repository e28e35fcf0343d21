"""The native (``GCARE_KERNELS=c``) backend's own contract tests.

The python-vs-c differential suites live in ``tests/test_kernels.py``
and ``tests/test_serve.py`` — every backend that can dispatch on this
install, including ``c``, runs through those automatically.  This module
covers what only the native leg has: the compile-and-cache lifecycle of
the shared object (atomic publication under concurrent first use, stale
artifact cleanup, ``GCARE_NATIVE_CACHE`` override for read-only homes),
how the ``GCARE_KERNELS`` switch resolves (``c`` by default, graceful
degradation when the toolchain is missing, unknown values ignored with
a note), the native search kernel engaging on shm-attached arenas, and
the ``kernel.backend`` observability surface.
"""

from __future__ import annotations

import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro import shm as shm_mod
from repro.core.registry import create_estimator
from repro.datasets.example import figure1_graph, figure1_query
from repro.graph.compact import CompactGraph
from repro.kernels import (
    KERNELS_ENV,
    active_backend,
    fallback_note,
    force_backend,
    native_available,
    refresh_env,
)
from repro.kernels import native
from repro.matching.homomorphism import HomomorphismCounter
from repro.obs import traced

needs_native = pytest.mark.needs_native
shm_required = pytest.mark.skipif(
    not shm_mod.shm_supported(), reason="platform has no shared memory"
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def native_env(tmp_path, monkeypatch):
    """A pristine native-loader environment with a private cache dir.

    Clears the load memo before and after, so tweaks to ``GCARE_CC`` /
    ``GCARE_NATIVE_CACHE`` inside a test can't leak into (or out of)
    the session-wide cached load the rest of the suite relies on.
    """
    cache = tmp_path / "native-cache"
    monkeypatch.setenv("GCARE_NATIVE_CACHE", str(cache))
    native.reset_for_tests()
    yield cache
    native.reset_for_tests()


@pytest.fixture
def kernels_env(monkeypatch):
    """Set (or, with None, unset) ``GCARE_KERNELS`` for one test.

    The switch is read once at import, so it is re-read after setting
    it and again once the monkeypatch restores the original value.
    """

    def set_switch(value):
        if value is None:
            monkeypatch.delenv(KERNELS_ENV, raising=False)
        else:
            monkeypatch.setenv(KERNELS_ENV, value)
        refresh_env()

    yield set_switch
    monkeypatch.undo()
    refresh_env()


# ---------------------------------------------------------------------------
# compile cache lifecycle
# ---------------------------------------------------------------------------
@needs_native
def test_cache_dir_override_receives_the_artifact(native_env):
    lib = native.load()
    assert lib is not None
    artifacts = sorted(native_env.glob("gcare_native_*.so"))
    assert len(artifacts) == 1
    assert lib.so_path == artifacts[0]


@needs_native
def test_cached_artifact_is_reused_not_recompiled(native_env):
    assert native.load() is not None
    (so_path,) = native_env.glob("gcare_native_*.so")
    stamp = so_path.stat().st_mtime_ns
    native.reset_for_tests()
    assert native.load() is not None
    assert so_path.stat().st_mtime_ns == stamp


@needs_native
def test_stale_artifacts_are_cleaned_up_on_compile(native_env):
    """A hash-mismatched leftover (old source/compiler) gets unlinked."""
    native_env.mkdir(parents=True)
    stale = native_env / "gcare_native_0000deadbeef0000.so"
    stale.write_bytes(b"not a shared object")
    assert native.load() is not None
    assert not stale.exists()
    assert len(list(native_env.glob("gcare_native_*.so"))) == 1


@needs_native
def test_concurrent_first_compiles_race_safely(tmp_path):
    """Two processes compiling into an empty cache both get a working
    library; the atomic rename means one artifact, never a torn file."""
    cache = tmp_path / "shared-cache"
    env = dict(os.environ)
    env["GCARE_NATIVE_CACHE"] = str(cache)
    env["PYTHONPATH"] = REPO_SRC
    program = (
        "from repro.kernels import native; import sys;"
        "lib = native.load();"
        "sys.exit(0 if lib is not None and lib.gc_abi_version() == "
        f"{native.ABI_VERSION} else 1)"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", program], env=env)
        for _ in range(2)
    ]
    codes = [proc.wait(timeout=300) for proc in procs]
    assert codes == [0, 0]
    assert len(list(cache.glob("gcare_native_*.so"))) == 1
    assert not list(cache.glob("*.tmp"))


# ---------------------------------------------------------------------------
# resolving the switch: c by default, degradation without a toolchain
# ---------------------------------------------------------------------------
@needs_native
def test_unset_switch_resolves_to_c(kernels_env):
    kernels_env(None)
    assert active_backend() == "c"
    assert fallback_note() is None


@needs_native
def test_retired_numpy_value_resolves_like_unset_with_a_note(kernels_env):
    kernels_env("numpy")
    assert active_backend() == "c"
    note = fallback_note()
    assert note is not None and "'numpy'" in note


def test_force_backend_rejects_unknown_names():
    with pytest.raises(ValueError):
        with force_backend("numpy"):
            pass


def test_missing_compiler_resolves_unset_switch_to_python(
    native_env, kernels_env, monkeypatch
):
    monkeypatch.setenv("GCARE_CC", str(native_env / "no-such-cc"))
    kernels_env(None)
    native.reset_for_tests()
    assert active_backend() == "python"
    note = fallback_note()
    assert note is not None and "compile failed" in note
    assert "pure-Python fallback" in note


def test_missing_compiler_degrades_silently(native_env, monkeypatch):
    monkeypatch.setenv("GCARE_CC", str(native_env / "no-such-cc"))
    native.reset_for_tests()
    assert native.load() is None
    assert not native_available()
    assert "compile failed" in (native.fallback_reason() or "")
    with force_backend("c"):
        # the request degrades to the reference leg, never errors
        assert active_backend() == "python"
        note = fallback_note()
        assert note is not None and "fallback" in note
        estimator = create_estimator(
            "cset", figure1_graph().seal(), seed=7, sampling_ratio=0.5
        )
        estimator.prepare()
        degraded = estimator.estimate(figure1_query()).estimate
    estimator = create_estimator(
        "cset", figure1_graph().seal(), seed=7, sampling_ratio=0.5
    )
    estimator.prepare()
    assert degraded == estimator.estimate(figure1_query()).estimate


def test_fallback_reason_names_a_missing_source(native_env, monkeypatch):
    monkeypatch.setattr(
        native, "_SOURCE", native_env / "no-such-source.c"
    )
    native.reset_for_tests()
    assert native.load() is None
    assert "source missing" in (native.fallback_reason() or "")


# ---------------------------------------------------------------------------
# the native search kernel over shm-attached arenas
# ---------------------------------------------------------------------------
@needs_native
@shm_required
def test_native_matcher_engages_zero_copy_on_shm_attached_graph():
    from repro.kernels.native_match import _NativeRunner

    query = figure1_query()
    with force_backend("python"):
        sealed = figure1_graph().seal()
        reference = HomomorphismCounter(sealed, query).count(time_limit=30.0)
    handle, ref = sealed.to_shm()
    try:
        attached = CompactGraph.from_shm(ref)
        with force_backend("c"):
            counter = HomomorphismCounter(attached, query)
            result = counter.count(time_limit=30.0)
            # the kernel really ran over the attached segments
            assert isinstance(counter._native_runner, _NativeRunner)
        assert (result.count, result.complete, result.steps) == (
            reference.count, reference.complete, reference.steps
        )
    finally:
        handle.release()


@needs_native
def test_unsupported_counter_shapes_fall_back_to_python_loop():
    """Vertex filters aren't transliterated; the hook must decline."""
    query = figure1_query()
    with force_backend("c"):
        sealed = figure1_graph().seal()
        filtered = HomomorphismCounter(
            sealed, query, vertex_filters={0: lambda v: True}
        )
        result = filtered.count(time_limit=30.0)
        assert filtered._native_runner is False  # declined, memoized
    with force_backend("python"):
        plain = HomomorphismCounter(
            figure1_graph().seal(), query, vertex_filters={0: lambda v: True}
        ).count(time_limit=30.0)
    assert (result.count, result.steps) == (plain.count, plain.steps)


# ---------------------------------------------------------------------------
# observability: the backend is visible wherever estimates are
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["python", "c"])
def test_backend_gauge_reports_the_active_leg(backend):
    from repro.kernels import BACKEND_CODES

    if backend == "c" and not native_available():
        pytest.skip("c backend requires a working C toolchain")
    with force_backend(backend):
        estimator = create_estimator(
            "cset", figure1_graph().seal(), seed=7, sampling_ratio=0.5
        )
        with traced(estimator) as collector:
            estimator.estimate(figure1_query())
        trace = collector.snapshot()
    assert trace.gauges["kernel.backend"] == BACKEND_CODES[backend]


# ---------------------------------------------------------------------------
# batch-op edge cases only the native ABI can get wrong
# ---------------------------------------------------------------------------
@needs_native
def test_native_view_slicing_and_iteration():
    data = array("q", [5, 1, 4, 1, 5, 9, 2, 6])
    view = native.NativeView.from_array(data)
    assert len(view) == 8
    assert list(view) == data.tolist()
    assert view[2] == 4
    assert view[-1] == 6
    sub = view[2:6]
    assert sub.tolist() == [4, 1, 5, 9]
    assert sub[0] == 4


@needs_native
def test_draw_indices_declines_out_of_contract_rngs():
    import random

    lib = native.load()

    class Seeded(random.Random):
        pass

    # subclasses may override random()/getrandbits(); the kernel only
    # replicates the stock MT19937 stream, so it must decline
    assert native.draw_indices(lib, Seeded(7), 100, 10) is None
    rng = random.Random(7)
    assert native.draw_indices(lib, rng, 0x1_0000_0000, 10) is None


@needs_native
def test_draw_indices_matches_scalar_stream_and_state():
    import random

    lib = native.load()
    for seed in (0, 7, 12345):
        native_rng = random.Random(seed)
        scalar_rng = random.Random(seed)
        drawn = native.draw_indices(lib, native_rng, 1000, 128)
        expected = [scalar_rng.randrange(1000) for _ in range(128)]
        assert drawn == expected
        # the mutated state is bit-identical: future draws agree too
        assert native_rng.getstate() == scalar_rng.getstate()
