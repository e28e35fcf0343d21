"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.datasets.example import figure1_graph, figure1_query
from repro.graph.digraph import Graph
from repro.graph.query import QueryGraph

try:  # property tests are skipped when hypothesis is unavailable
    from hypothesis import settings

    # `--hypothesis-profile=ci` (used by the tier-2 CI job) trades example
    # count for runtime and disables the per-example deadline, which is
    # noisy on shared runners.
    settings.register_profile("ci", max_examples=25, deadline=None)
except ImportError:  # pragma: no cover
    pass

from repro.kernels import native_available

# native_available() compiles the shared object on the very first call
# (a couple of seconds) and memoizes; CI and dev machines with a cached
# .so pay only a load
NATIVE_AVAILABLE = native_available()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "needs_native: test requires the cc-compiled kernel backend "
        "(skipped when no C toolchain is available)",
    )


def pytest_collection_modifyitems(config, items):
    """Skip ``needs_native`` tests when the system has no working C
    toolchain (the default ``c`` kernel leg degrades to Python there)."""
    if NATIVE_AVAILABLE:
        return
    skip_native = pytest.mark.skip(
        reason="requires a C toolchain (the GCARE_KERNELS=c backend)"
    )
    for item in items:
        if item.get_closest_marker("needs_native") is not None:
            item.add_marker(skip_native)


@pytest.fixture
def fig1_graph() -> Graph:
    return figure1_graph()


@pytest.fixture
def fig1_query() -> QueryGraph:
    return figure1_query()


@pytest.fixture
def tiny_graph() -> Graph:
    """A 4-vertex graph with two labels and a cycle, handy for matchers.

    v0(L0) --0--> v1(L1) --0--> v2(L0) --1--> v0 ; v1 --1--> v3(L1)
    """
    graph = Graph()
    graph.add_vertex((0,))
    graph.add_vertex((1,))
    graph.add_vertex((0,))
    graph.add_vertex((1,))
    graph.add_edge(0, 1, 0)
    graph.add_edge(1, 2, 0)
    graph.add_edge(2, 0, 1)
    graph.add_edge(1, 3, 1)
    return graph


def brute_force_count(graph: Graph, query: QueryGraph) -> int:
    """Reference homomorphism counter by exhaustive assignment enumeration.

    Exponential; only usable for tiny graphs/queries, which is exactly what
    the property tests need to cross-check the real matcher.
    """
    count = 0
    vertices = list(graph.vertices())
    for assignment in itertools.product(vertices, repeat=query.num_vertices):
        ok = True
        for u in range(query.num_vertices):
            labels = query.vertex_labels[u]
            if labels and not labels <= graph.vertex_labels(assignment[u]):
                ok = False
                break
        if not ok:
            continue
        for u, v, label in query.edges:
            if not graph.has_edge(assignment[u], assignment[v], label):
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.fixture
def brute_force():
    return brute_force_count
