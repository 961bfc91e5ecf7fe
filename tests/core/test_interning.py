"""Interned schedules and the integer check at the schedule factories.

``periodic_presence`` and ``constant_latency`` return one shared,
immutable object per schedule, from weak-valued tables, so a graph of
forty thousand edges on eight schedules holds eight presences and one
latency.  These tests pin the table's keying, its weak lifetime, and
that sharing changes no answer: version bumps, index patches, the
black-box cache's identity test and ``Edge`` copies behave as before.
The factories, the presence constructors, ``shifted`` and ``dilated``
also refuse non-integer residues, periods, dates, shifts and factors,
which the index used to truncate into a different schedule.
"""

import dataclasses
import gc
import json
import pickle

import numpy as np
import pytest

from repro.core import latency as latency_module
from repro.core import presence as presence_module
from repro.core.edges import Edge
from repro.core.engine import TemporalEngine
from repro.core.index import _lower_edges
from repro.core.intervals import Interval, IntervalSet
from repro.core.latency import ConstantLatency, constant_latency
from repro.core.parallel import build_sweep_plan
from repro.core.presence import (
    IntervalPresence,
    PeriodicPresence,
    always,
    at_times,
    function_presence,
    interval_presence,
    pattern_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT
from repro.core.serialize import encode_presence
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph
from repro.errors import TimeDomainError


class TestPeriodicInterning:
    def test_same_object_for_any_spelling_of_the_residues(self):
        p = periodic_presence([1, 3], 4)
        assert periodic_presence([3, 1], 4) is p
        assert periodic_presence([1, 3, 3, 1], 4) is p
        assert periodic_presence([5, 7], 4) is p
        assert periodic_presence([-3, -1], 4) is p
        assert periodic_presence((r for r in (3, 1)), 4) is p
        assert periodic_presence(frozenset({1, 3}), 4) is p

    def test_numpy_ints_are_stored_as_plain_ints(self):
        p = periodic_presence(np.array([3, 1], dtype=np.int64), np.int64(4))
        assert p is periodic_presence([1, 3], 4)
        q = periodic_presence([np.int32(6)], np.int16(7))
        assert type(q.period) is int
        assert all(type(r) is int for r in q.pattern)
        assert all(type(r) is int for r in q._sorted)
        assert json.dumps(encode_presence(q)) == (
            '{"kind": "periodic", "pattern": [6], "period": 7}'
        )

    def test_different_periods_or_residues_differ(self):
        assert periodic_presence([1], 4) is not periodic_presence([1], 8)
        assert periodic_presence([1], 4) is not periodic_presence([2], 4)
        assert periodic_presence([], 4) is not periodic_presence([], 5)

    def test_sorted_residues_are_a_tuple(self):
        p = periodic_presence([2, 0], 3)
        assert p._sorted == (0, 2)
        assert isinstance(p._sorted, tuple)
        assert PeriodicPresence([2, 0], 3)._sorted == (0, 2)

    def test_entries_leave_the_table_once_unreferenced(self):
        key = ((4, 9), 11)
        p = periodic_presence([9, 4], 11)
        assert presence_module._PERIODIC[key] is p
        del p
        gc.collect()
        assert key not in presence_module._PERIODIC
        assert periodic_presence([4, 9], 11)._sorted == (4, 9)

    def test_direct_construction_is_not_interned(self):
        p = periodic_presence([1], 4)
        assert PeriodicPresence([1], 4) is not p

    def test_pattern_presence_goes_through_the_factory(self):
        assert pattern_presence("#..#") is periodic_presence([0, 3], 4)

    def test_bad_period_still_refused(self):
        with pytest.raises(TimeDomainError):
            periodic_presence([0], 0)
        with pytest.raises(TimeDomainError):
            periodic_presence([0], -4)


class TestConstantLatencyInterning:
    def test_one_object_per_value(self):
        assert constant_latency(3) is constant_latency(3)
        assert constant_latency() is constant_latency(1)
        assert constant_latency(3) is not constant_latency(4)

    def test_equal_but_not_int_values_are_refused_not_matched(self):
        unit = constant_latency(1)
        for value in (1.0, True, np.int64(1)):
            with pytest.raises(TimeDomainError):
                constant_latency(value)
        assert constant_latency(1) is unit

    def test_weak_table(self):
        latency = constant_latency(987)
        assert latency_module._CONSTANT[987] is latency
        del latency
        gc.collect()
        assert 987 not in latency_module._CONSTANT

    def test_edge_defaults_share_the_unit_latency(self):
        graph = TimeVaryingGraph()
        first = graph.add_edge("a", "b")
        second = graph.add_edge("b", "c")
        assert first.latency is second.latency is constant_latency(1)
        assert Edge("x", "y").latency is constant_latency(1)
        assert isinstance(first.latency, ConstantLatency)


class TestFractionalSchedulesRefused:
    """A float residue, period or date used to be accepted and then
    truncated by the index's int64 lowering: ``periodic_presence([1],
    8.5)`` compiled to dates 1, 9, 17, ... where it is true at 1, 18,
    35."""

    @pytest.mark.parametrize("build", [
        lambda: periodic_presence([1.5], 8),
        lambda: periodic_presence([1], 8.5),
        lambda: periodic_presence([1], 8.0),
        lambda: interval_presence([(1.5, 3)]),
        lambda: interval_presence([(1, 3.0)]),
        lambda: at_times([1.5]),
        lambda: at_times([2, "3"]),
    ])
    def test_factories_refuse_non_integers(self, build):
        with pytest.raises(TimeDomainError, match="must be an integer"):
            build()

    @pytest.mark.parametrize("build", [
        # Compiled to 1, 9, 17, 25, 33 on [0, 40); true at 1, 18, 35.
        lambda: PeriodicPresence([1], 8.5),
        # Compiled to 1, 9, 17; never true.
        lambda: PeriodicPresence([1.5], 8),
        # Compiled to 1, 2; true only at 2.
        lambda: IntervalPresence(IntervalSet([Interval(1.5, 3)])),
        # Both compiled to 1, 5, 9, ...; neither is ever true.
        lambda: periodic_presence([1], 4).shifted(0.5),
        lambda: periodic_presence([1], 4).dilated(1.5),
    ])
    def test_direct_construction_refuses_non_integers(self, build):
        with pytest.raises(TimeDomainError, match="must be an integer"):
            build()

    def test_integer_schedules_lower_to_the_interpretive_support(self):
        window = Interval(-5, 40)
        presences = [
            periodic_presence([1], 8),
            periodic_presence([np.int64(3), 5], np.int64(7)),
            periodic_presence([0, 2], 3).shifted(-2),
            interval_presence([(np.int64(1), 3), (10, np.int32(12))]),
            at_times([np.int64(4), 7, -3]),
            PeriodicPresence([np.int64(2)], np.int32(5)),
            IntervalPresence(IntervalSet([Interval(np.int64(3), 6)])),
            periodic_presence([1], 4).shifted(np.int64(2)).dilated(np.int16(3)),
        ]
        edges = [
            Edge(0, 1, key=f"e{i}", presence=p) for i, p in enumerate(presences)
        ]
        ptr, dates, opaque = _lower_edges(edges, window)
        assert not opaque.any()
        for i, presence in enumerate(presences):
            expected = list(presence.support(window).times())
            assert dates[ptr[i]:ptr[i + 1]].tolist() == expected
            assert expected == [t for t in window.times() if presence(t)]


def periodic_graph():
    graph = TimeVaryingGraph(lifetime=Lifetime(0, 16), name="interned")
    graph.add_nodes("abcd")
    for i, (u, v) in enumerate(("ab", "bc", "cd", "da", "ac")):
        graph.add_edge(u, v, presence=periodic_presence([i % 3], 3), key=u + v)
    return graph


class TestSharingChangesNoAnswer:
    def test_set_presence_to_the_same_object_bumps_and_patches_exactly(self):
        graph = periodic_graph()
        engine = TemporalEngine(graph)
        engine.arrival_offsets(0, WAIT, horizon=16)
        index = engine.compiled
        same = periodic_presence([1], 3)
        assert graph.edge("bc").presence is same
        version = graph.version
        graph.set_presence("bc", same)
        assert graph.version == version + 1
        assert graph.deltas_since(version)[0].kind == "set_presence"
        for semantics in (WAIT, NO_WAIT):
            nodes, offsets = engine.arrival_offsets(0, semantics, horizon=16)
            fresh_engine = TemporalEngine(graph)
            fresh_nodes, fresh = fresh_engine.arrival_offsets(0, semantics, horizon=16)
            assert nodes == fresh_nodes
            assert np.array_equal(offsets, fresh)
            assert build_sweep_plan(engine, 0, semantics, 16)[1] == build_sweep_plan(
                fresh_engine, 0, semantics, 16
            )[1]
        assert engine.compiled is index  # patched, not rebuilt
        assert index.version == graph.version

    def test_equal_but_new_function_presence_drops_cache_segments(self):
        calls = []

        def predicate(t):
            calls.append(t)
            return t % 2 == 0

        graph = TimeVaryingGraph(lifetime=Lifetime(0, 8))
        graph.add_edge("a", "b", presence=function_presence(predicate), key="ab")
        engine = TemporalEngine(graph)
        engine.arrival_offsets(0, WAIT, horizon=8)
        cache = engine._contact_cache
        assert len(cache) == 1 and sorted(set(calls)) == list(range(8))
        graph.set_presence("ab", function_presence(predicate))  # equal, new object
        assert cache.scanned_window(graph.edge("ab")) is None
        assert len(cache) == 0
        calls.clear()
        engine.arrival_offsets(0, WAIT, horizon=8)
        assert sorted(set(calls)) == list(range(8))  # scanned again

    def test_edges_on_one_schedule_compare_equal(self):
        first = Edge("a", "b", key="k", presence=periodic_presence([1], 4))
        second = Edge("a", "b", key="k", presence=periodic_presence([5], 4))
        assert first == second and hash(first) == hash(second)
        assert first != dataclasses.replace(second, presence=always())


class TestSlottedEdge:
    def test_no_instance_dict(self):
        edge = Edge("a", "b", key="k")
        assert not hasattr(edge, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            edge.key = "other"

    def test_replace_pickle_and_graph_copy(self):
        graph = periodic_graph()
        edge = graph.edge("ab")
        moved = dataclasses.replace(edge, target="c", key="ac2")
        assert (moved.source, moved.target, moved.presence) == ("a", "c", edge.presence)
        assert edge.shifted(2).presence(2) == edge.presence(0)
        clone = pickle.loads(pickle.dumps(edge))
        assert (clone.source, clone.target, clone.key) == ("a", "b", "ab")
        assert clone.presence._sorted == edge.presence._sorted
        copied = graph.copy()
        assert copied.edges == graph.edges
        assert all(a is b for a, b in zip(copied.edges, graph.edges))
        assert copied.edge("ab").presence is graph.edge("ab").presence
