"""Property suite for the array-native plan build.

:func:`~repro.core.parallel.build_sweep_plan` lowers a sweep from the
compiled index's flat contact CSR with a window mask and vectorized
arrivals.  It must produce exactly the plan the per-edge loop it
replaced produces (``reference_sweep_plan`` in ``tests/plan_helpers``):
on graphs mixing every structured presence form, black-box predicates
and callable latencies; on windows narrower than the compiled one (and
empty ones) and equal to it, where the plan holds the index's own
``edge_ptr``, ``dates`` and ``arrivals``; and on an index patched in
place by :meth:`~repro.core.index.CompiledTVG.apply_deltas`, which must
also equal the plan of a fresh compile, with black-box predicates still
firing at most once per (edge, date).  A plan built before a presence
swap keeps its content: the patch writes new arrays (keeping
``edge_ptr`` when every touched edge keeps its number of dates) and
writes only the index's own ``edge_list`` and ``opaque`` in place.  The
index's ``arrivals`` equal a per-contact ``arrival`` call, and nothing
but a plan build computes them.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st
from plan_helpers import reference_sweep_plan

from repro.core import parallel
from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency, function_latency
from repro.core.parallel import PLAN_MEMO_SIZE, build_sweep_plan
from repro.core.presence import (
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
from repro.core.tvg import DELTA_HISTORY, TimeVaryingGraph

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
    return function_presence(Counted(period, residue), "blackbox")


class Counted:
    """A black-box schedule, ``t % period == residue``, that counts its
    calls per (predicate, date) in :attr:`calls`."""

    calls: Counter = Counter()

    def __init__(self, period: int, residue: int) -> None:
        self.period, self.residue = period, residue

    def __call__(self, t: int) -> bool:
        Counted.calls[id(self), t] += 1
        return t % self.period == self.residue


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
    @given(tvgs(), semantics_strategy, windows(), st.booleans())
    @settings(DETERMINISTIC, max_examples=160)
    def test_fresh_index(self, graph, semantics, window, exact):
        """On an index compiled wide, or (``exact``) over the plan's own
        window: there the plan holds the index's ``edge_ptr``, ``dates``
        and ``arrivals`` unless black-box dates are spliced in."""
        start, horizon = window
        engine = (
            TemporalEngine(graph, window=window) if exact else _compiled_wide(graph)
        )
        nodes, plan = build_sweep_plan(engine, start, semantics, horizon)
        ref_nodes, reference = reference_sweep_plan(
            _compiled_wide(graph), start, semantics, horizon
        )
        assert nodes == ref_nodes
        assert plan == reference
        index = engine.compiled
        whole = (index.window.start, index.window.end) == window
        shares = whole and not index.opaque.any()
        assert (plan.edge_ptr is index.edge_ptr) == shares
        assert (plan.dep is index.dates) == shares
        assert (plan.arr is index.arrivals) == shares

    @given(
        tvgs(),
        semantics_strategy,
        windows(),
        st.lists(st.tuples(st.integers(0, 9), presences()), min_size=1, max_size=5),
        st.one_of(st.none(), presences()),
        st.booleans(),
    )
    @settings(DETERMINISTIC, max_examples=120)
    def test_patched_index_equals_fresh_compile(
        self, graph, semantics, window, swaps, again, grow
    ):
        """Presence swaps patch the index, also when the first swapped
        edge is swapped ``again`` and when a wider query rebuilt the
        index in between (``grow``); the plan built before them keeps
        its content and fingerprint, every shared array stays
        read-only, and a chain whose edges keep their number of dates
        keeps ``edge_ptr``."""
        start, horizon = window
        Counted.calls.clear()
        engine = _compiled_wide(graph)
        _nodes, before = build_sweep_plan(engine, start, semantics, horizon)
        kept = replace(before, **{a: getattr(before, a).copy() for a in before.ARRAYS})
        fingerprint = before.fingerprint
        index = engine.compiled
        edge_ptr = index.edge_ptr
        keys = [edge.key for edge in graph.edges]
        if again is not None:
            swaps = [*swaps, (swaps[0][0], again)]
        touched = set()
        for slot, presence in swaps:
            if keys:
                graph.set_presence(keys[slot % len(keys)], presence)
                touched.add(slot % len(keys))
        engine.index_for(0, 2 * SPAN if grow else SPAN)
        assert not any(getattr(index, n).flags.writeable for n in index.SHARED)
        if not grow:
            fresh_ptr = _compiled_wide(graph).compiled.edge_ptr
            lengths_kept = all(
                edge_ptr[i + 1] - edge_ptr[i] == fresh_ptr[i + 1] - fresh_ptr[i]
                for i in touched
            )
            assert (index.edge_ptr is edge_ptr) == lengths_kept
        assert before == kept
        nodes, patched = build_sweep_plan(engine, start, semantics, horizon)
        assert before == kept
        assert replace(before).fingerprint == fingerprint == kept.fingerprint
        assert (engine.compiled is index) != grow, "presence swaps patch, never rebuild"
        assert max(Counted.calls.values(), default=0) <= 1
        _nodes, reference = reference_sweep_plan(
            _compiled_wide(graph), start, semantics, horizon
        )
        _nodes, fresh = build_sweep_plan(
            _compiled_wide(graph), start, semantics, horizon
        )
        assert patched == reference == fresh
        assert patched.fingerprint == fresh.fingerprint

    def test_patch_writes_the_index_own_lists_in_place(self):
        """A swap lands in the index's ``edge_list`` and ``opaque`` in
        place, so the successor kernel moves along the swapped edge;
        the arrays a plan may hold are read-only from the compile on,
        before any plan exists."""
        graph = _line_graph()
        engine = TemporalEngine(graph)
        index = engine.index_for(0, SPAN)
        assert not any(getattr(index, name).flags.writeable for name in index.SHARED)
        edge_list, opaque = index.edge_list, index.opaque
        for presence, flag, departures in (
            (function_presence(lambda t: t % 3 == 1, "thirds"), True, [1, 4]),
            (interval_presence([(2, 4)]), False, [2, 3]),
        ):
            graph.set_presence("bc", presence)
            moves = engine.successors("b", 0, WAIT, 6)
            assert engine.compiled is index
            assert index.edge_list is edge_list and index.opaque is opaque
            assert edge_list[1] is graph.edge("bc")
            assert opaque.tolist() == [False, flag, False]
            assert [(edge, dep) for edge, dep, _arr in moves] == [
                (graph.edge("bc"), dep) for dep in departures
            ]
            assert not any(getattr(index, n).flags.writeable for n in index.SHARED)

    @given(
        tvgs(),
        st.lists(st.tuples(st.integers(0, 9), presences()), max_size=5),
        st.booleans(),
    )
    @settings(DETERMINISTIC, max_examples=120)
    def test_index_arrivals_equal_each_contact_arrival(self, graph, swaps, built):
        """``arrivals`` holds ``arrival(ei, d)`` for every contact after
        a compile, and after a chain of swaps that change edges' numbers
        of dates and turn black-box edges structured and back, whether
        the array was ``built`` before the chain (so the patch writes
        it) or not (so it is built from the patched dates)."""
        engine = _compiled_wide(graph)
        index = engine.compiled
        _assert_arrivals(index)
        if not built:
            engine = _compiled_wide(graph)
            index = engine.compiled
        keys = [edge.key for edge in graph.edges]
        for slot, presence in swaps:
            if keys:
                graph.set_presence(keys[slot % len(keys)], presence)
        assert engine.index_for(0, SPAN) is index
        _assert_arrivals(index)
        assert not index.arrivals.flags.writeable

    def test_swaps_of_equal_length_write_the_arrivals(self):
        """Swaps between schedules with as many dates keep ``edge_ptr``
        and write the new arrival dates, callable latencies included,
        into a copy of ``arrivals``; the plan built before keeps the old
        array, and the next one holds the new."""
        graph = _line_graph()
        graph.add_edge(
            "b", "d", presence=periodic_presence([0], 2),
            latency=function_latency(lambda t: 1 + t % 3), key="bd",
        )
        engine = TemporalEngine(graph)
        _nodes, before = build_sweep_plan(engine, 0, WAIT, SPAN)
        index = engine.compiled
        edge_ptr, arrivals = index.edge_ptr, index.arrivals
        for key in ("bc", "bd"):
            graph.set_presence(key, periodic_presence([1], 2))
        _nodes, after = build_sweep_plan(engine, 0, WAIT, SPAN)
        assert engine.compiled is index and index.edge_ptr is edge_ptr
        assert before.arr is arrivals and after.arr is index.arrivals
        _assert_arrivals(index)
        assert after == reference_sweep_plan(_compiled_wide(graph), 0, WAIT, SPAN)[1]

    def test_successors_alone_never_build_arrivals(self):
        """An engine that only answers ``successors`` calls a callable
        latency once per move it returns, none to build ``arrivals``;
        the first plan build then calls it once per contact."""
        calls = []

        def zeta(t):
            calls.append(t)
            return 1 + t % 3

        graph = _line_graph()
        graph.add_edge("b", "d", latency=function_latency(zeta), key="bd")
        engine = TemporalEngine(graph)
        moves = [
            move
            for node in graph.nodes
            for ready in range(SPAN)
            for move in engine.successors(node, ready, WAIT, SPAN)
        ]
        along = [dep for edge, dep, _arr in moves if edge.key == "bd"]
        assert along and sorted(calls) == sorted(along)
        calls.clear()
        build_sweep_plan(engine, 0, WAIT, SPAN)
        assert calls == list(range(SPAN))  # "bd" is always present

    @pytest.mark.parametrize(
        "change", ["add_edge", "remove_edge", "other query", "memo full", "history"]
    )
    def test_any_other_chain_builds_in_full(self, change):
        """Structural mutations, a memo that dropped or evicted the
        query's previous plan and a chain past the delta history each
        build the plan once, in full, equal to a fresh engine's."""
        graph = _line_graph()
        engine = TemporalEngine(graph)
        build_sweep_plan(engine, 0, WAIT, SPAN)
        if change == "memo full":
            for horizon in range(1, PLAN_MEMO_SIZE + 1):
                build_sweep_plan(engine, 0, WAIT, horizon)
        graph.set_presence("bc", interval_presence([(1, 5)]))
        if change == "add_edge":
            graph.add_edge("d", "a", key="da")
        elif change == "remove_edge":
            graph.remove_edge("cd")
        elif change == "other query":
            build_sweep_plan(engine, 0, NO_WAIT, SPAN)
        elif change == "history":
            for i in range(DELTA_HISTORY):
                graph.set_presence("ab", periodic_presence([i % 2], 2))
        with _counting_full_builds() as full_builds:
            _nodes, plan = build_sweep_plan(engine, 0, WAIT, SPAN)
        assert full_builds == [(0, SPAN)]
        assert plan == build_sweep_plan(TemporalEngine(graph), 0, WAIT, SPAN)[1]


def _assert_arrivals(index):
    """``index.arrivals`` is aligned with ``dates``, entry for entry the
    ``arrival`` of its contact."""
    assert len(index.arrivals) == len(index.dates)
    for ei in range(len(index.edge_list)):
        lo, hi = index.edge_ptr[ei], index.edge_ptr[ei + 1]
        assert index.arrivals[lo:hi].tolist() == [
            index.arrival(ei, d) for d in index.dates[lo:hi].tolist()
        ]


def _line_graph():
    graph = TimeVaryingGraph(lifetime=Lifetime(0, SPAN), name="line")
    for u, v in ("ab", "bc", "cd"):
        graph.add_edge(u, v, presence=periodic_presence([0], 2), key=u + v)
    return graph


@contextmanager
def _counting_full_builds():
    """The ``(start, horizon)`` of every plan built in full inside."""
    real = parallel._window_rows
    builds = []

    def counted(index, start_time, horizon):
        builds.append((start_time, horizon))
        return real(index, start_time, horizon)

    with patch.object(parallel, "_window_rows", counted):
        yield builds
