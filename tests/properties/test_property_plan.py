"""Property suite for the array-native plan build.

:func:`~repro.core.parallel.build_sweep_plan` lowers a sweep from the
compiled index's flat contact CSR with a window mask and vectorized
arrivals.  It must produce exactly the plan the per-edge loop it
replaced produces (``reference_sweep_plan`` in ``tests/plan_helpers``):
on graphs mixing every structured presence form, black-box predicates
and callable latencies; on windows narrower than the compiled one (and
empty ones); and on an index patched in place by
:meth:`~repro.core.index.CompiledTVG.apply_deltas`, which must also
equal the plan of a fresh compile.
"""

from hypothesis import given, settings, strategies as st
from plan_helpers import reference_sweep_plan

from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency, function_latency
from repro.core.parallel import build_sweep_plan
from repro.core.presence import (
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph

SPAN = 16

DETERMINISTIC = settings(deadline=None, derandomize=True, print_blob=True)

semantics_strategy = st.one_of(
    st.just(NO_WAIT),
    st.just(WAIT),
    st.integers(0, 3).map(bounded_wait),
)


@st.composite
def presences(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        period = draw(st.integers(2, 5))
        pattern = draw(
            st.sets(st.integers(0, period - 1), min_size=1, max_size=period)
        )
        return periodic_presence(pattern, period)
    if kind == 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, SPAN - 1), st.integers(1, 4)),
                min_size=1,
                max_size=3,
            )
        )
        return interval_presence([(a, a + w) for a, w in pairs])
    if kind == 2:
        period = draw(st.integers(2, 4))
        return periodic_presence([0], period).shifted(draw(st.integers(-2, 3)))
    period = draw(st.integers(2, 5))
    residue = draw(st.integers(0, period - 1))
    return function_presence(lambda t, p=period, r=residue: t % p == r, "blackbox")


@st.composite
def latencies(draw):
    if draw(st.booleans()):
        return constant_latency(draw(st.integers(1, 3)))
    step = draw(st.integers(2, 4))
    return function_latency(lambda t, s=step: 1 + t % s, "varying")


@st.composite
def tvgs(draw):
    n = draw(st.integers(1, 6))
    graph = TimeVaryingGraph(lifetime=Lifetime(0, SPAN), name="random")
    graph.add_nodes(range(n))
    for _ in range(draw(st.integers(0, 10))):
        graph.add_edge(
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            presence=draw(presences()),
            latency=draw(latencies()),
        )
    return graph


@st.composite
def windows(draw):
    """``(start, horizon)`` inside ``[0, SPAN)``, empty ones included."""
    start = draw(st.integers(0, SPAN - 1))
    return start, draw(st.integers(max(0, start - 2), SPAN))


def _compiled_wide(graph):
    """An engine whose index already covers the whole lifetime, so
    every later plan reads a window narrower than the compiled one."""
    engine = TemporalEngine(graph)
    engine.index_for(0, SPAN)
    return engine


class TestPlanEqualsReference:
    @given(tvgs(), semantics_strategy, windows())
    @settings(DETERMINISTIC, max_examples=120)
    def test_fresh_index(self, graph, semantics, window):
        start, horizon = window
        nodes, plan = build_sweep_plan(
            _compiled_wide(graph), start, semantics, horizon
        )
        ref_nodes, reference = reference_sweep_plan(
            _compiled_wide(graph), start, semantics, horizon
        )
        assert nodes == ref_nodes
        assert plan == reference

    @given(
        tvgs(),
        semantics_strategy,
        windows(),
        st.lists(st.tuples(st.integers(0, 9), presences()), min_size=1, max_size=4),
    )
    @settings(DETERMINISTIC, max_examples=80)
    def test_patched_index_equals_fresh_compile(
        self, graph, semantics, window, swaps
    ):
        start, horizon = window
        engine = _compiled_wide(graph)
        build_sweep_plan(engine, start, semantics, horizon)
        index = engine.compiled
        keys = [edge.key for edge in graph.edges]
        for slot, presence in swaps:
            if keys:
                graph.set_presence(keys[slot % len(keys)], presence)
        nodes, patched = build_sweep_plan(engine, start, semantics, horizon)
        assert engine.compiled is index, "presence swaps patch, never rebuild"
        _nodes, reference = reference_sweep_plan(
            _compiled_wide(graph), start, semantics, horizon
        )
        _nodes, fresh = build_sweep_plan(
            _compiled_wide(graph), start, semantics, horizon
        )
        assert patched == reference == fresh
