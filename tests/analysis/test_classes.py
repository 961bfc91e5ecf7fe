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


def periodic_graph(density):
    from repro.core.generators import periodic_random_tvg

    return periodic_random_tvg(8, period=4, density=density, seed=3)


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

    @pytest.mark.parametrize("with_engine", [False, True])
    @pytest.mark.parametrize("stride", [0, -1])
    def test_non_positive_stride_rejected(self, stride, with_engine):
        # An empty sample range would make C3 vacuously true: an
        # edgeless graph would pass.
        from repro.core.engine import TemporalEngine

        g = TVGBuilder().lifetime(0, 10).node("a").node("b").node("c").build()
        engine = TemporalEngine(g) if with_engine else None
        with pytest.raises(ReproError, match="stride must be positive"):
            is_recurrently_connected(g, 0, 10, stride=stride, engine=engine)


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
        # queries: C3's TC(last sample, end) alone would compile
        # [last sample, end), and TC(start, mid) would then grow it
        # with a second compile.
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

    @pytest.mark.parametrize(
        "graph",
        [
            *(periodic_graph(density) for density in (0.05, 0.2, 0.6)),
            # TC(0, 16) holds, TC(16, 32) does not: the four-sweep path.
            TVGBuilder(name="late-silence")
            .lifetime(0, 32)
            .contact("a", "b", present=[(0, 32)], key="ab")
            .contact("b", "a", present=[(0, 10)], key="ba")
            .build(),
        ],
        ids=["sparse", "periodic", "dense", "late-silence"],
    )
    def test_fresh_engine_sweeps_at_most_four_times(self, monkeypatch, graph):
        # C3 is one sweep from its last sample, C1 at most two, and C2
        # sweeps only when neither C1 nor C3 implies it.
        from repro.core import sweep_kernel
        from repro.core.engine import TemporalEngine

        sweeps = []
        original = sweep_kernel.sweep_block

        def counting(plan, sources):
            sweeps.append((plan.start_time, plan.horizon))
            return original(plan, sources)

        monkeypatch.setattr(sweep_kernel, "sweep_block", counting)
        report = classify(graph, 0, 32, engine=TemporalEngine(graph))
        assert 2 <= len(sweeps) <= 4
        assert report == classify(graph, 0, 32)


class TestIndexSpaceConnectivity:
    """The engine path of C9/C10 labels components in index space
    (:func:`_component_labels`), all dates at once, where the oracle
    builds one networkx graph per date."""

    def test_component_labels(self):
        import numpy as np

        from repro.analysis.classes import _component_labels

        # Two paths given tail first, an isolated vertex, a self-loop.
        u = np.array([5, 4, 3, 1, 6, 7])
        v = np.array([4, 3, 0, 2, 6, 1])
        labels = _component_labels(8, u, v)
        assert labels.tolist() == [0, 1, 1, 0, 0, 0, 6, 1]
        assert _component_labels(1, u[:0], v[:0]).tolist() == [0]
        assert _component_labels(0, u[:0], v[:0]).tolist() == []
        assert _component_labels(3, u[:0], v[:0]).tolist() == [0, 1, 2]

    @staticmethod
    def both_ways(graph, start, end):
        from repro.core.engine import TemporalEngine

        engine = TemporalEngine(graph)
        return (
            (
                snapshots_always_connected(graph, start, end),
                interval_connectivity(graph, start, end),
                classify(graph, start, end),
            ),
            (
                snapshots_always_connected(graph, start, end, engine=engine),
                interval_connectivity(graph, start, end, engine=engine),
                classify(graph, start, end, engine=engine),
            ),
        )

    def test_one_disconnected_snapshot(self):
        # A path a-b-c always present, except b-c is missing at date 3.
        g = (
            TVGBuilder()
            .lifetime(0, 8)
            .edge("a", "b", key="ab")
            .edge("c", "b", present=[(0, 3), (4, 8)], key="cb")
            .build()
        )
        oracle, engine = self.both_ways(g, 0, 8)
        assert oracle == engine
        assert engine[:2] == (False, 0)
        assert "C9" not in engine[2] and "C10" not in engine[2]
        # The window without date 3 is stable throughout.
        oracle, engine = self.both_ways(g, 4, 8)
        assert oracle == engine and engine[:2] == (True, 4)

    def test_isolated_node_disconnects_every_snapshot(self):
        g = static_graph([("a", "b"), ("b", "a")])
        g.add_node("z")
        from repro.core.transforms import graph_like

        bounded = graph_like(g)
        bounded.lifetime = type(bounded.lifetime)(0, 5)
        bounded.add_nodes(g.nodes)
        for edge in g.edges:
            bounded.add_edge_object(edge)
        oracle, engine = self.both_ways(bounded, 0, 5)
        assert oracle == engine and engine[:2] == (False, 0)

    def test_single_node(self):
        solo = TVGBuilder().lifetime(0, 6).node("s").build()
        oracle, engine = self.both_ways(solo, 0, 6)
        assert oracle == engine
        assert engine[:2] == (True, 6)
        assert {"C9", "C10"} <= engine[2].classes

    def test_stability_is_per_directed_pair(self):
        # a->b at even dates, b->a at odd ones: every snapshot connected,
        # but no directed pair is stable over two dates.
        g = (
            TVGBuilder()
            .lifetime(0, 6)
            .edge("a", "b", period=(0, 2), key="ab")
            .edge("b", "a", period=(1, 2), key="ba")
            .build()
        )
        oracle, engine = self.both_ways(g, 0, 6)
        assert oracle == engine and engine[:2] == (True, 1)

    def test_parallel_edges_make_one_pair(self):
        # Two parallel a->b edges that together cover [0, 6).
        g = (
            TVGBuilder()
            .lifetime(0, 6)
            .edge("a", "b", present=[(0, 4)], key="ab")
            .edge("a", "b", present=[(3, 6)], key="ab2")
            .build()
        )
        oracle, engine = self.both_ways(g, 0, 6)
        assert oracle == engine and engine[:2] == (True, 6)
