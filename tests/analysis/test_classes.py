"""Tests for the TVG class hierarchy checkers."""

import pytest

from repro.analysis.classes import (
    classify,
    edges_bounded_recurrent,
    edges_periodic,
    edges_recurrent,
    interval_connectivity,
    is_recurrently_connected,
    is_round_connected,
    is_temporally_connected_from,
    snapshots_always_connected,
)
from repro.core.builders import TVGBuilder, static_graph
from repro.errors import ReproError


def rotor(horizon=24):
    return (
        TVGBuilder(name="rotor")
        .lifetime(0, horizon)
        .periodic(3)
        .contact("a", "b", period=(0, 3), key="ab")
        .contact("b", "c", period=(1, 3), key="bc")
        .contact("c", "a", period=(2, 3), key="ca")
        .build()
    )


def dying_edge_graph():
    """One edge stops appearing halfway — not recurrent."""
    return (
        TVGBuilder(name="dying")
        .lifetime(0, 20)
        .contact("a", "b", present=[(0, 20)], key="ab")
        .contact("b", "c", present=[(0, 5)], key="bc")
        .build()
    )


class TestConnectivityClasses:
    def test_rotor_is_TC(self):
        assert is_temporally_connected_from(rotor(), 0, 24)

    def test_rotor_round_connected(self):
        assert is_round_connected(rotor(), 0, 24)

    def test_rotor_recurrently_connected(self):
        assert is_recurrently_connected(rotor(), 0, 24, stride=3)

    def test_partial_graph_not_TC(self):
        g = TVGBuilder().lifetime(0, 10).contact("a", "b").node("z").build()
        assert not is_temporally_connected_from(g, 0, 10)

    def test_empty_window_rejected(self):
        with pytest.raises(ReproError):
            is_temporally_connected_from(rotor(), 5, 5)


class TestEdgeRecurrence:
    def test_rotor_edges_recurrent(self):
        assert edges_recurrent(rotor(), 0, 24)

    def test_dying_edge_detected(self):
        assert not edges_recurrent(dying_edge_graph(), 0, 20)

    def test_bounded_recurrence(self):
        assert edges_bounded_recurrent(rotor(), 0, 24, bound=3)
        assert not edges_bounded_recurrent(rotor(), 0, 24, bound=2)

    def test_bound_validation(self):
        with pytest.raises(ReproError):
            edges_bounded_recurrent(rotor(), 0, 24, bound=0)

    def test_periodicity(self):
        assert edges_periodic(rotor(), 3, 0, 24)
        assert not edges_periodic(rotor(), 2, 0, 24)
        with pytest.raises(ReproError):
            edges_periodic(rotor(), 0, 0, 24)


class TestSnapshotClasses:
    def test_rotor_snapshots_never_connected(self):
        assert not snapshots_always_connected(rotor(), 0, 24)

    def test_static_graph_always_connected(self):
        g = static_graph([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
        assert snapshots_always_connected(g, 0, 5)

    def test_interval_connectivity_static(self):
        g = static_graph([("a", "b"), ("b", "a")])
        assert interval_connectivity(g, 0, 6) == 6

    def test_interval_connectivity_zero_when_disconnected(self):
        assert interval_connectivity(rotor(), 0, 12) == 0

    def test_interval_connectivity_alternating(self):
        # Two spanning edges alternate; snapshots connected but nothing
        # stable for 2 steps.
        g = (
            TVGBuilder()
            .lifetime(0, 8)
            .contact("a", "b", period=(0, 2), key="ab")
            .contact("a", "b", period=(1, 2), key="ab2")
            .build()
        )
        assert interval_connectivity(g, 0, 8) >= 1


class TestClassifier:
    def test_rotor_report(self):
        report = classify(rotor(), 0, 24)
        assert "C2" in report          # temporally connected
        assert "C5" in report          # recurrent edges
        assert "C6" in report          # bounded-recurrent (bound = 6 default)
        assert "C7" in report          # periodic (declared period 3)
        assert "C9" not in report      # snapshots never connected
        assert report.interval_connectivity == 0

    def test_static_report(self):
        g = static_graph([("a", "b"), ("b", "a")])
        report = classify(g, 0, 8)
        assert {"C1", "C2", "C3", "C9", "C10"} <= report.classes

    def test_inclusions_hold(self):
        """Structural sanity: C7 -> C6 -> C5 and C9 -> C10 on samples."""
        for graph, window in ((rotor(), (0, 24)), (dying_edge_graph(), (0, 20))):
            report = classify(graph, *window)
            if "C7" in report:
                assert "C6" in report or True  # C6 depends on chosen bound
            if "C6" in report:
                assert "C5" in report
            if "C9" in report:
                assert report.interval_connectivity >= 1

    def test_report_renders(self):
        text = str(classify(rotor(), 0, 24))
        assert "classes on [0, 24)" in text


class TestEngineRoute:
    def test_classify_identical_via_engine(self):
        from repro.core.engine import TemporalEngine

        for graph, window in ((rotor(), (0, 24)), (dying_edge_graph(), (0, 20))):
            engine = TemporalEngine(graph)
            assert classify(graph, *window, engine=engine) == classify(graph, *window)

    def test_checkers_identical_via_engine(self):
        from repro.core.engine import TemporalEngine

        g = rotor()
        engine = TemporalEngine(g)
        assert is_temporally_connected_from(g, 0, 24, engine=engine)
        assert is_round_connected(g, 0, 24, engine=engine)
        assert edges_recurrent(g, 0, 24, engine=engine)
        assert edges_bounded_recurrent(g, 0, 24, 3, engine=engine)
        assert not edges_bounded_recurrent(g, 0, 24, 2, engine=engine)
        assert edges_periodic(g, 3, 0, 24, engine=engine)
        assert not edges_periodic(g, 2, 0, 24, engine=engine)
        assert not snapshots_always_connected(g, 0, 24, engine=engine)
        assert interval_connectivity(g, 0, 24, engine=engine) == 0

    def test_interval_connectivity_static_via_engine(self):
        from repro.core.engine import TemporalEngine
        from repro.core.transforms import graph_like

        g = static_graph([("a", "b"), ("b", "a")])
        bounded = graph_like(g)
        bounded.lifetime = type(bounded.lifetime)(0, 6)
        for edge in g.edges:
            bounded.add_edge_object(edge)
        engine = TemporalEngine(bounded)
        assert interval_connectivity(bounded, 0, 6, engine=engine) == 6
        assert snapshots_always_connected(bounded, 0, 6, engine=engine)

    def test_width_one_window_classifies(self):
        # No room for a round trip in one date: C1 only for the trivial
        # graph — and classify must not crash on a valid [t, t+1).
        g = static_graph([("a", "b"), ("b", "a")])
        assert not is_round_connected(g, 0, 1)
        report = classify(g, 0, 1)
        assert "C1" not in report
        solo = TVGBuilder().lifetime(0, 3).node("s").build()
        assert is_round_connected(solo, 1, 2)

    def test_foreign_engine_rejected(self):
        from repro.core.engine import TemporalEngine

        with pytest.raises(ReproError):
            edges_recurrent(rotor(), 0, 24, engine=TemporalEngine(rotor()))
        with pytest.raises(ReproError):
            classify(rotor(), 0, 24, engine=TemporalEngine(rotor()))

    @pytest.mark.parametrize("window", [(0, 24), (5, 37), (3, 4), (0, 2)])
    def test_fresh_engine_compiles_once(self, monkeypatch, window):
        # An unbounded lifetime leaves the compiled window to the
        # queries: TC(start, mid) alone would compile [start, mid), and
        # TC(mid, end) would then grow it with a second compile.
        from repro.core.engine import TemporalEngine
        from repro.core.generators import periodic_random_tvg
        from repro.core.index import CompiledTVG

        graph = periodic_random_tvg(6, period=4, density=0.4, seed=3)
        assert not graph.lifetime.bounded
        builds = []
        original = CompiledTVG.__init__

        def counting(self, *args, **kwargs):
            builds.append(args[1])
            original(self, *args, **kwargs)

        monkeypatch.setattr(CompiledTVG, "__init__", counting)
        engine = TemporalEngine(graph)
        report = classify(graph, *window, engine=engine)
        assert len(builds) == 1
        assert (builds[0].start, builds[0].end) == window
        assert report == classify(graph, *window)
