"""Differential harness for the CSR kernels (repro.kernels).

The kernel contract is *bit-identical dispatch*: every kernel has a
native (``c``) path and a pure-Python twin, selected by
``GCARE_KERNELS`` / :func:`~repro.kernels.force_backend`, and the two
must be indistinguishable through every consumer.  Four layers pin it:

* **technique differential** — every registered technique (paper set
  plus extensions) estimates on the Figure-1 example and a 10x-scaled
  replica under both backends, on *fresh* seals, and must agree on the
  estimate, the substructure counts, and every observability counter
  (``match.backtrack_steps`` included) bit for bit;
* **matcher differential** — the sealed homomorphism counter's counts
  *and* backtracking step counts match across backends;
* **shared-memory views** — kernels over an shm-attached graph alias
  the segment (no copies on attach) and stay bit-identical with the
  local seal; a traced sweep is identical serial == parallel ==
  resumed under both backends, and across them;
* **property tests** — hypothesis drives the intersection / filter /
  walk kernels over random CSR fragments (duplicates, empty adjacency,
  label boundaries), and the seed-stream test proves a batched
  ``draw_indices`` consumes the RNG exactly like the scalar sequence.
"""

from __future__ import annotations

import os
import random
from array import array

import pytest

from repro import kernels
from repro import shm as shm_mod
from repro.bench.parallel import ParallelEvaluationRunner
from repro.bench.results_log import ResultsLog
from repro.bench.runner import EvaluationRunner, NamedQuery
from repro.core.registry import EXTENSIONS, available_techniques, create_estimator
from repro.datasets.example import (
    EDGE_A,
    EDGE_B,
    LABEL_A,
    figure1_graph,
    figure1_query,
)
from repro.graph.compact import CompactGraph
from repro.graph.digraph import Graph
from repro.kernels import (
    KERNELS_ENV,
    as_int64,
    bits_to_list,
    count_members,
    draw_indices,
    filter_members,
    filter_members_multi,
    filter_pairs,
    force_backend,
    interleave_pairs,
    intersect_sorted,
    member_array,
    pack_bits,
    pair_arrays,
    refresh_env,
)
from repro.kernels.native import NativeView
from repro.matching.homomorphism import count_embeddings
from repro.obs import traced

QUERY = figure1_query()

#: without a toolchain force_backend("c") degrades to python, so
#: comparisons there are vacuous and the cross-backend tests carry
#: ``needs_native``
needs_native = pytest.mark.needs_native

#: every registered technique: the paper's seven plus the extensions —
#: tc/bernoulli exercise the sealed matcher, so their
#: ``match.backtrack_steps`` counters pin the search loop itself
DIFFERENTIAL_TECHNIQUES = tuple(available_techniques()) + tuple(EXTENSIONS)


def scaled_graph(copies: int = 10) -> Graph:
    """``copies`` replicas of the Figure-1 graph, stitched into one
    component with cross-copy edges — the same local structure at 10x
    the vertex/edge count, pushing adjacency segments and pair lists
    past the kernels' small-input thresholds."""
    base = figure1_graph()
    n = base.num_vertices
    graph = Graph()
    for _ in range(copies):
        for v in range(n):
            graph.add_vertex(base.vertex_labels(v))
    for c in range(copies):
        off = c * n
        for src, dst, label in base.edges():
            graph.add_edge(src + off, dst + off, label)
    for c in range(copies):
        off, nxt = c * n, ((c + 1) % copies) * n
        # mirror 0 --a--> 2 and 2 --b--> 4 across copy boundaries
        graph.add_edge(off + 0, nxt + 2, EDGE_A)
        graph.add_edge(nxt + 2, off + 4, EDGE_B)
    return graph


GRAPH_BUILDERS = {
    "example": figure1_graph,
    "scaled10x": scaled_graph,
}


def backends_under_test():
    """Every backend that can actually dispatch on this install.

    The ``c`` leg joins automatically when a toolchain is present, so
    all the property tests below cross every native kernel boundary
    with the exact same inputs as the python twins.
    """
    if kernels.native_available():
        return ("python", "c")
    return ("python",)


def run_traced_estimate(name: str, backend: str, graph):
    """One estimate on a *fresh* seal under ``backend``.

    A fresh seal per backend means no shared cache crosses the backend
    boundary — each path must produce the agreed bits on its own.
    """
    with force_backend(backend):
        sealed = graph.seal()
        estimator = create_estimator(
            name, sealed, seed=7, sampling_ratio=0.5, time_limit=30.0
        )
        with traced(estimator) as collector:
            result = estimator.estimate(QUERY)
        counters = dict(collector.snapshot().counters)
    return result, counters


# ---------------------------------------------------------------------------
# technique differential: c == python, bit for bit
# ---------------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("scale", sorted(GRAPH_BUILDERS))
@pytest.mark.parametrize("name", DIFFERENTIAL_TECHNIQUES)
def test_every_technique_bit_identical_across_backends(name, scale):
    graph = GRAPH_BUILDERS[scale]()
    outcomes = {}
    for backend in backends_under_test():
        result, counters = run_traced_estimate(name, backend, graph)
        outcomes[backend] = {
            "estimate": result.estimate,
            "num_substructures": result.num_substructures,
            "num_subqueries": result.num_subqueries,
            "counters": counters,
        }
    for backend in backends_under_test():
        assert outcomes[backend] == outcomes["python"], backend


@needs_native
@pytest.mark.parametrize("scale", sorted(GRAPH_BUILDERS))
def test_matcher_counts_and_steps_identical_across_backends(scale):
    graph = GRAPH_BUILDERS[scale]()
    dict_result = count_embeddings(graph, QUERY, time_limit=30.0)
    outcomes = {}
    for backend in backends_under_test():
        with force_backend(backend):
            sealed = graph.seal()
            result = count_embeddings(sealed, QUERY, time_limit=30.0)
        outcomes[backend] = (result.count, result.complete, result.steps)
    for backend in backends_under_test():
        assert outcomes[backend] == outcomes["python"], backend
    # and every leg agrees with the dict-backed substrate on the answer
    assert outcomes["python"][0] == dict_result.count


def test_estimates_stable_across_repeated_seals():
    """Two seals of the same digraph agree under the *active* backend —
    the determinism half of the contract, meaningful on every install
    (including the python leg, where it pins the pure-Python twins)."""
    graph = figure1_graph()
    for name in ("wj", "jsub", "impr", "cs"):
        first, first_counters = run_traced_estimate(
            name, kernels.active_backend(), graph
        )
        second, second_counters = run_traced_estimate(
            name, kernels.active_backend(), graph
        )
        assert first.estimate == second.estimate, name
        assert first_counters == second_counters, name


# ---------------------------------------------------------------------------
# shared-memory attachment: zero-copy views, identical bits
# ---------------------------------------------------------------------------
shm_required = pytest.mark.skipif(
    not shm_mod.shm_supported(), reason="platform has no shared memory"
)


@needs_native
@shm_required
def test_shm_attached_views_alias_segments_and_match_local_seal():
    with force_backend("c"):
        sealed = scaled_graph().seal()
        handle, ref = sealed.to_shm()
        try:
            attached = CompactGraph.from_shm(ref)
            # the views alias the attached buffers — no copy on attach,
            # and nothing may write through them
            views = pair_arrays(attached, EDGE_A)
            assert views is not None
            for view, raw in zip(views, attached.edge_pair_buffers(EDGE_A)):
                assert raw.readonly
                assert view.addr == NativeView.from_buffer(raw).addr
                with pytest.raises(TypeError):
                    view[0] = 0
            members = member_array(attached, (LABEL_A,))
            assert members is not None
            assert members.tolist() == sorted(
                attached.labels_member_set((LABEL_A,))
            )
            # pair views decode to exactly the pair list the python
            # twin consumes
            src, dst = views
            assert list(zip(src.tolist(), dst.tolist())) == list(
                attached.edge_pairs(EDGE_A)
            )

            # the matcher and the samplers see identical bits through
            # the attachment
            local = count_embeddings(sealed, QUERY, time_limit=30.0)
            remote = count_embeddings(attached, QUERY, time_limit=30.0)
            assert (local.count, local.steps) == (remote.count, remote.steps)
            for name in ("wj", "jsub", "impr", "cs"):
                results = []
                for graph in (sealed, attached):
                    estimator = create_estimator(
                        name, graph, seed=7, sampling_ratio=0.5, time_limit=30.0
                    )
                    with traced(estimator) as collector:
                        result = estimator.estimate(QUERY)
                    results.append(
                        (result.estimate, dict(collector.snapshot().counters))
                    )
                assert results[0] == results[1], name
        finally:
            handle.release()


def _transport_queries(graph):
    truth = count_embeddings(graph, QUERY, time_limit=30.0).count
    return [NamedQuery("tri", QUERY, truth, {"topology": "tri"})]


def _comparable(record):
    return (
        record.technique,
        record.query_name,
        record.run,
        record.true_cardinality,
        record.estimate,
        record.error,
    )


@needs_native
@shm_required
def test_traced_sweep_identical_across_transport_and_backends(tmp_path):
    """serial == parallel(shm) == resumed under ``--trace``, per backend
    — and the full record streams agree *across* backends."""
    techniques = ["wj", "jsub", "impr"]
    kw = dict(sampling_ratio=0.5, seed=11, time_limit=10)
    per_backend = {}
    for backend in backends_under_test():
        previous = os.environ.get(KERNELS_ENV)
        os.environ[KERNELS_ENV] = backend  # workers inherit this
        refresh_env()
        try:
            graph = figure1_graph().seal()
            queries = _transport_queries(graph)
            serial = EvaluationRunner(
                graph, techniques, trace=True, **kw
            ).run(queries, runs=2)
            parallel = ParallelEvaluationRunner(
                graph, techniques, trace=True, workers=2, use_shm=True, **kw
            ).run(queries, runs=2)
            log_path = tmp_path / f"sweep-{backend}.jsonl"
            with ResultsLog(log_path) as log:
                for record in parallel[: len(parallel) // 2]:
                    log.append(record)
            resumed_runner = ParallelEvaluationRunner(
                graph, techniques, trace=True, workers=2, use_shm=True, **kw
            )
            resumed = resumed_runner.run(
                queries, runs=2, results_log=ResultsLog(log_path)
            )
            assert resumed_runner.last_run_stats["resumed"] == len(parallel) // 2

            reference = [_comparable(r) for r in serial]
            assert [_comparable(r) for r in parallel] == reference
            assert [_comparable(r) for r in resumed] == reference
            for ser, par in zip(serial, parallel):
                assert par.counters == ser.counters, ser.key
            per_backend[backend] = (
                reference,
                [r.counters for r in serial],
            )
        finally:
            if previous is None:
                os.environ.pop(KERNELS_ENV, None)
            else:
                os.environ[KERNELS_ENV] = previous
            refresh_env()
    for backend in backends_under_test():
        assert per_backend[backend] == per_backend["python"], backend


# ---------------------------------------------------------------------------
# view primitives
# ---------------------------------------------------------------------------
@needs_native
def test_as_int64_aliases_the_arena_without_copying():
    arena = array("q", [5, -3, 0, 2**40])
    with force_backend("c"):
        view = as_int64(arena)
    assert view.tolist() == [5, -3, 0, 2**40]
    assert view.addr == arena.buffer_info()[0]
    with pytest.raises(TypeError):
        view[0] = 0
    arena[1] = 77  # the view aliases, so the write shows through
    assert view[1] == 77


def test_views_return_none_on_python_backend():
    sealed = figure1_graph().seal()
    # views cached by the default leg are never served to the python twins
    member_array(sealed, (LABEL_A,))
    pair_arrays(sealed, EDGE_A)
    with force_backend("python"):
        assert as_int64(array("q", [1, 2])) is None
        assert member_array(sealed, (LABEL_A,)) is None
        assert pair_arrays(sealed, EDGE_A) is None


@needs_native
def test_member_and_pair_views_are_cached_per_graph():
    with force_backend("c"):
        sealed = figure1_graph().seal()
        assert member_array(sealed, (LABEL_A,)) is member_array(
            sealed, (LABEL_A,)
        )
        assert pair_arrays(sealed, EDGE_A) is pair_arrays(sealed, EDGE_A)


# ---------------------------------------------------------------------------
# hypothesis properties: random CSR fragments + the seed-stream contract
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

#: vertex-id domain wide enough to cross SMALL_INPUT (24) and
#: SMALL_BITS (64) thresholds, narrow enough to force duplicates
VERTEX = st.integers(min_value=0, max_value=127)

#: sorted duplicate-free adjacency fragments — including empty ones
ADJACENCY = st.lists(VERTEX, max_size=80, unique=True).map(sorted)

#: raw candidate streams (duplicates allowed — frontier shapes)
CANDIDATES = st.lists(VERTEX, max_size=100)

PAIRS = st.lists(st.tuples(VERTEX, VERTEX), max_size=80)


def _member_arr(domain):
    """The sorted membership domain as a native view (None on python)."""
    if kernels.get_native() is None:
        return None
    return NativeView.from_array(array("q", sorted(domain)))


def _pair_cols(pairs):
    """Pair columns as native views (None on python)."""
    if kernels.get_native() is None:
        return None
    return (
        NativeView.from_array(array("q", (s for s, _ in pairs))),
        NativeView.from_array(array("q", (d for _, d in pairs))),
    )


@given(a=ADJACENCY, b=ADJACENCY)
def test_intersect_sorted_matches_set_semantics_on_both_backends(a, b):
    expected = sorted(set(a) & set(b))
    for backend in backends_under_test():
        with force_backend(backend):
            assert intersect_sorted(a, b) == expected
            assert intersect_sorted(b, a) == expected


@given(values=CANDIDATES, domain=st.frozensets(VERTEX, max_size=60))
def test_filter_and_count_members_agree_across_backends(values, domain):
    expected = [v for v in values if v in domain]
    for backend in backends_under_test():
        with force_backend(backend):
            arr = _member_arr(domain)
            assert filter_members(values, domain, arr) == expected
            assert count_members(values, domain, arr) == len(expected)


@given(
    values=CANDIDATES,
    domains=st.lists(st.frozensets(VERTEX, max_size=40), min_size=1, max_size=3),
)
def test_filter_members_multi_agrees_across_backends(values, domains):
    expected = [v for v in values if all(v in d for d in domains)]
    for backend in backends_under_test():
        with force_backend(backend):
            arrs = [_member_arr(d) for d in domains]
            if arrs[0] is None:
                arrs = None
            assert filter_members_multi(values, domains, arrs) == expected


@given(
    pairs=PAIRS,
    src_domain=st.one_of(st.none(), st.frozensets(VERTEX, max_size=50)),
    dst_domain=st.one_of(st.none(), st.frozensets(VERTEX, max_size=50)),
)
def test_filter_pairs_agrees_across_backends(pairs, src_domain, dst_domain):
    expected = [
        (s, d)
        for s, d in pairs
        if (src_domain is None or s in src_domain)
        and (dst_domain is None or d in dst_domain)
    ]
    for backend in backends_under_test():
        with force_backend(backend):
            src_arr = dst_arr = None
            arrays = _pair_cols(pairs)
            if arrays is not None:
                if src_domain is not None:
                    src_arr = _member_arr(src_domain)
                if dst_domain is not None:
                    dst_arr = _member_arr(dst_domain)
            assert (
                filter_pairs(
                    pairs,
                    src_domain,
                    dst_domain,
                    arrays=arrays,
                    src_arr=src_arr,
                    dst_arr=dst_arr,
                )
                == expected
            )


@given(values=st.lists(st.integers(0, 299), unique=True, max_size=150), pad=st.integers(0, 8))
def test_pack_bits_round_trips_across_backends(values, pad):
    nbits = (max(values) + 1 if values else 1) + pad
    packed = {}
    for backend in backends_under_test():
        with force_backend(backend):
            bits = pack_bits(values, nbits)
            assert bits_to_list(bits, nbits) == sorted(values)
            packed[backend] = bits
    assert len(set(packed.values())) == 1


@given(pairs=PAIRS)
def test_interleave_pairs_agrees_across_backends(pairs):
    expected = [x for pair in pairs for x in pair]
    for backend in backends_under_test():
        with force_backend(backend):
            arrays = _pair_cols(pairs)
            assert interleave_pairs(pairs, arrays) == expected
            # the `out` accumulator appends after an existing prefix
            out = [-1, -2]
            result = interleave_pairs(pairs, arrays, out=out)
            assert result is out
            assert out == [-1, -2] + expected


@given(
    n=st.integers(min_value=1, max_value=10_000),
    k=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_draw_indices_consumes_the_scalar_rng_stream(n, k, seed):
    """A batched frontier draw is *exactly* k scalar randrange calls:
    same values, and — the strong form — the generator is left in the
    identical state, so everything sampled afterwards agrees too."""
    batched_rng = random.Random(seed)
    scalar_rng = random.Random(seed)
    batch = draw_indices(batched_rng, n, k)
    scalar = [scalar_rng.randrange(n) for _ in range(k)]
    assert batch == scalar
    assert all(0 <= i < n for i in batch)
    assert batched_rng.getstate() == scalar_rng.getstate()
