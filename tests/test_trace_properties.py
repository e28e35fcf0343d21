"""Property-based tests for the trace collector and its invariants.

Two families:

* **collector invariants** — for arbitrary open/close/incr sequences
  (including unbalanced ones), a snapshot is always well-formed: every
  span closed, nesting consistent, children contained in their parents;
* **estimator invariants** — for any technique/seed, the hook spans sum
  to no more than the measured elapsed time, and a run cut short by
  ``EstimationTimeout`` after an arbitrary number of substructures still
  leaves a well-formed partial trace with its counters flushed.

Run under the ``ci`` profile in CI: ``--hypothesis-profile=ci``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.errors import EstimationTimeout
from repro.core.framework import Estimator
from repro.core.registry import EXTENSIONS, available_techniques, create_estimator
from repro.datasets.example import figure1_graph, figure1_query
from repro.obs import HOOK_SPANS, Trace, TraceCollector, traced

# hypothesis draws technique names directly: the paper's seven plus the
# extensions
EVERY_TECHNIQUE = tuple(available_techniques()) + tuple(EXTENSIONS)

GRAPH = figure1_graph()
QUERY = figure1_query()


def assert_wellformed(trace: Trace) -> None:
    for span in trace.spans:
        assert span.closed
        assert span.duration >= 0.0
        if span.parent is not None:
            parent = trace.spans[span.parent]
            assert parent.start <= span.start
            assert span.end <= parent.end
            assert span.depth == parent.depth + 1
        else:
            assert span.depth == 0


# ---------------------------------------------------------------------------
# collector invariants under arbitrary operation sequences
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.sampled_from(["open", "close", "close_root", "incr", "gauge"]),
        max_size=60,
    )
)
def test_snapshot_always_wellformed(ops):
    """However unbalanced the span operations, snapshots are well-formed
    and ``complete`` exactly when nothing was left open."""
    collector = TraceCollector()
    open_indices = []
    for i, op in enumerate(ops):
        if op == "open":
            open_indices.append(collector.start(f"span{i}"))
        elif op == "close" and open_indices:
            collector.finish(open_indices.pop())
        elif op == "close_root" and open_indices:
            # closing a non-top span must unwind everything above it
            collector.finish(open_indices[0])
            open_indices.clear()
        elif op == "incr":
            collector.incr("ops", 1)
        elif op == "gauge":
            collector.gauge("level", float(i))
    trace = collector.snapshot()
    assert_wellformed(trace)
    assert trace.complete == (not open_indices)
    # a snapshot never mutates the collector: open spans stay open
    for index in open_indices:
        assert not collector.spans[index].closed


@given(depth=st.integers(min_value=1, max_value=30))
def test_exception_unwinding_closes_all_children(depth):
    """finish(root) closes the whole stack above it — the try/finally
    pattern in estimate() relies on this when a hook raises mid-nest."""
    collector = TraceCollector()
    root = collector.start("root")
    for i in range(depth):
        collector.start(f"nested{i}")
    collector.finish(root)
    trace = collector.snapshot()
    assert trace.complete
    assert_wellformed(trace)
    assert len(trace.spans) == depth + 1


@given(
    counts=st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.integers(min_value=0, max_value=100), max_size=10),
        max_size=3,
    )
)
def test_counters_accumulate(counts):
    collector = TraceCollector()
    for name, increments in counts.items():
        for n in increments:
            collector.incr(name, n)
    snapshot = collector.snapshot().counters
    for name, increments in counts.items():
        if increments:
            assert snapshot[name] == sum(increments)
        else:
            assert name not in snapshot


# ---------------------------------------------------------------------------
# estimator invariants
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(EVERY_TECHNIQUE),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_span_durations_bounded_by_elapsed(name, seed):
    """Hook spans nest inside the estimate root, and the root's duration
    brackets the result's measured elapsed time."""
    estimator = create_estimator(
        name, GRAPH, seed=seed, sampling_ratio=1.0, time_limit=30.0
    )
    with traced(estimator) as collector:
        result = estimator.estimate(QUERY)
    trace = collector.snapshot()
    assert_wellformed(trace)
    root = trace.span("estimate")
    online = [s for s in trace.spans if s.parent is not None]
    assert sum(s.duration for s in online) <= root.duration + 1e-6
    # the online hook spans are disjoint and lie inside estimate()'s own
    # clock window, so their total is bounded by the reported elapsed
    assert sum(s.duration for s in online) <= result.elapsed + 1e-6
    phases = trace.phase_seconds()
    online_phases = {k: v for k, v in phases.items() if k != "prepare"}
    assert sum(online_phases.values()) <= result.elapsed + 1e-6


class AbortingEstimator(Estimator):
    """Emits ``total`` substructures, timing out after ``fail_at``."""

    name = "aborting"
    display_name = "Aborting"

    def __init__(self, graph, total, fail_at, **kwargs):
        super().__init__(graph, **kwargs)
        self.total = total
        self.fail_at = fail_at

    def decompose_query(self, query):
        return [query]

    def get_substructures(self, query, subquery):
        for i in range(self.total):
            yield i

    def est_card(self, query, subquery, substructure):
        if substructure == self.fail_at:
            raise EstimationTimeout("budget exhausted mid-loop")
        return 1.0

    def agg_card(self, card_vec):
        return float(sum(card_vec))

    def record_counters(self, obs):
        obs.incr("aborting.emitted", min(self.fail_at + 1, self.total))


@settings(deadline=None)
@given(
    total=st.integers(min_value=1, max_value=40),
    fail_at=st.integers(min_value=0, max_value=50),
)
def test_timeout_leaves_wellformed_partial_trace(total, fail_at):
    """EstimationTimeout anywhere in the substructure loop: every span
    closed (no dangling opens), counters flushed, phases computable."""
    estimator = AbortingEstimator(GRAPH, total=total, fail_at=fail_at)
    timed_out = fail_at < total
    with traced(estimator) as collector:
        if timed_out:
            with pytest.raises(EstimationTimeout):
                estimator.estimate(QUERY)
        else:
            estimator.estimate(QUERY)
    trace = collector.snapshot()
    assert trace.complete  # estimate()'s finally closed everything
    assert_wellformed(trace)
    # the spans reached before the abort exist exactly once
    assert len(trace.spans_named("estimate")) == 1
    assert len(trace.spans_named("decompose_query")) == 1
    assert len(trace.spans_named("get_substructures")) == 1
    # agg/selectivity never ran on a timeout
    expected_late = 0 if timed_out else 1
    assert len(trace.spans_named("agg_card")) == expected_late
    assert len(trace.spans_named("selectivity")) == expected_late
    # counters flushed from the finally block, even mid-loop
    completed = min(fail_at, total) if timed_out else total
    assert trace.counters["est.substructures"] == completed
    assert trace.counters["aborting.emitted"] == min(fail_at + 1, total)
    phases = trace.phase_seconds()
    assert all(v >= 0.0 for v in phases.values())
    assert "substructures" in phases
