"""Tests for time-series analyses."""

import numpy as np
import pytest

from repro.analysis.evolution import (
    component_curve,
    density_curve,
    reachability_growth,
    value_of_waiting,
)
from repro.core.builders import TVGBuilder, static_graph
from repro.core.semantics import NO_WAIT, WAIT
from repro.core.sweep_kernel import UNREACHED
from repro.errors import ReproError


def rotor():
    return (
        TVGBuilder(name="rotor")
        .lifetime(0, 12)
        .contact("a", "b", period=(0, 3), key="ab")
        .contact("b", "c", period=(1, 3), key="bc")
        .contact("c", "a", period=(2, 3), key="ca")
        .build()
    )


class TestCurves:
    def test_density_rotor(self):
        curve = density_curve(rotor(), 0, 6)
        # one of three contacts (two directed edges of six) up each date
        assert all(value == pytest.approx(1 / 3) for _t, value in curve)

    def test_density_empty_graph(self):
        g = TVGBuilder().lifetime(0, 3).node("a").build()
        assert density_curve(g, 0, 3) == [(0, 0.0), (1, 0.0), (2, 0.0)]

    def test_component_curve(self):
        curve = component_curve(rotor(), 0, 3)
        # one contact up -> two components (pair + isolated node)
        assert [c for _t, c in curve] == [2, 2, 2]

    def test_window_validation(self):
        with pytest.raises(ReproError):
            density_curve(rotor(), 4, 4)


class TestReachabilityGrowth:
    def test_monotone_and_saturating(self):
        curve = reachability_growth(rotor(), 0, 12, WAIT)
        values = [v for _t, v in curve]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_nowait_below_wait(self):
        wait = reachability_growth(rotor(), 0, 12, WAIT)
        nowait = reachability_growth(rotor(), 0, 12, NO_WAIT)
        for (_t, w), (_t2, n) in zip(wait, nowait):
            assert n <= w

    def test_static_graph_saturates_fast(self):
        g = static_graph([("a", "b"), ("b", "a")])
        curve = reachability_growth(g, 0, 5, NO_WAIT)
        assert curve[-1][1] == 1.0
        assert curve[0][1] == 0.0  # nothing has arrived at t=0 yet

    def test_single_node(self):
        g = TVGBuilder().lifetime(0, 3).node("solo").build()
        assert reachability_growth(g, 0, 3, WAIT) == [
            (0, 1.0), (1, 1.0), (2, 1.0)
        ]


class TestValueOfWaiting:
    def test_rotor_value_positive(self):
        value = value_of_waiting(rotor(), 0, 12)
        assert value.area > 0
        assert value.wait_saturation_time is not None
        assert value.final_gap >= 0

    def test_static_graph_value_zero(self):
        g = static_graph([("a", "b"), ("b", "a")])
        from repro.core.transforms import graph_like

        bounded = graph_like(g)
        bounded.lifetime = type(bounded.lifetime)(0, 6)
        for edge in g.edges:
            bounded.add_edge_object(edge)
        value = value_of_waiting(bounded, 0, 6)
        assert value.area == pytest.approx(0.0)
        assert value.final_gap == pytest.approx(0.0)


class TestEngineRoute:
    def test_growth_via_engine_matches_interpretive(self):
        from repro.core.engine import TemporalEngine

        g = rotor()
        engine = TemporalEngine(g)
        for semantics in (WAIT, NO_WAIT):
            assert reachability_growth(
                g, 0, 12, semantics, engine=engine
            ) == reachability_growth(g, 0, 12, semantics)

    def test_value_of_waiting_via_engine(self):
        from repro.core.engine import TemporalEngine

        g = rotor()
        engine = TemporalEngine(g)
        assert value_of_waiting(g, 0, 12, engine=engine) == value_of_waiting(g, 0, 12)

    def test_single_node_with_engine(self):
        from repro.core.builders import TVGBuilder
        from repro.core.engine import TemporalEngine

        g = TVGBuilder().lifetime(0, 3).node("solo").build()
        assert reachability_growth(g, 0, 3, WAIT, engine=TemporalEngine(g)) == [
            (0, 1.0), (1, 1.0), (2, 1.0)
        ]

    def test_foreign_engine_rejected(self):
        from repro.core.engine import TemporalEngine

        with pytest.raises(ReproError):
            reachability_growth(rotor(), 0, 12, WAIT, engine=TemporalEngine(rotor()))


class TestGrowthDerive:
    """The counting derive against the kept sort-based one."""

    @staticmethod
    def check(matrix, start, end):
        from lowering_helpers import reference_growth_curve

        from repro.analysis.evolution import growth_curve_from_arrivals

        arrival = np.asarray(matrix, dtype=np.int64)
        assert growth_curve_from_arrivals(arrival, start, end) == (
            reference_growth_curve(arrival, start, end)
        )

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_matrices(self, n):
        rng = np.random.default_rng(n)
        for start, end in ((0, 5), (-3, 2), (4, 5)):
            matrix = rng.integers(start, end + 2, (n, n))
            np.fill_diagonal(matrix, start)
            self.check(matrix, start, end)

    def test_every_pair_unreached(self):
        for n in (2, 3, 5):
            matrix = np.full((n, n), UNREACHED)
            self.check(matrix, 0, 6)
            np.fill_diagonal(matrix, 0)
            self.check(matrix, 0, 6)

    def test_arrivals_at_and_beyond_end(self):
        matrix = [[0, 4, 5, 6], [9, 0, 5, UNREACHED], [4, 4, 0, 2**40], [1, 5, 4, 0]]
        self.check(matrix, 0, 5)
        self.check(matrix, 0, 6)

    def test_negative_start(self):
        matrix = [[-7, -6, -1, 3], [-5, -7, UNREACHED, -2], [0, 1, -7, -7], [-3, -4, 2, -7]]
        for end in (-6, -2, 0, 4, 9):
            self.check(matrix, -7, end)

    def test_diagonal_removed_by_position_not_value(self):
        # A hand-built matrix whose diagonal is not ``start``: early,
        # late, unreached — and off-diagonal entries equal to it.
        matrix = [[-9, 2, 3], [3, 4, UNREACHED], [1, 3, UNREACHED]]
        for start, end in ((0, 6), (2, 5), (-10, 1)):
            self.check(matrix, start, end)
        self.check([[7, -3], [-3, 2]], 0, 8)

    def test_offsets_count_like_their_dates(self):
        """The compact form: offsets from ``start`` in each unsigned
        dtype, the dtype's max unreached, count like their dates."""
        from lowering_helpers import reference_growth_curve

        from repro.analysis.evolution import growth_curve_from_arrivals
        from repro.core.sweep_kernel import offsets_to_dates

        rng = np.random.default_rng(23)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
            for _ in range(50):
                n = int(rng.integers(0, 6))
                start = int(rng.integers(-20, 20))
                end = start + int(rng.integers(1, 12))
                offsets = rng.integers(0, end - start + 3, (n, n)).astype(dtype)
                offsets[rng.random((n, n)) < 0.3] = np.iinfo(dtype).max
                np.fill_diagonal(offsets, 0)
                dates = offsets_to_dates(offsets, start)
                assert growth_curve_from_arrivals(offsets, start, end) == (
                    reference_growth_curve(dates, start, end)
                )

    def test_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(0, 7))
            start = int(rng.integers(-20, 20))
            end = start + int(rng.integers(1, 12))
            matrix = rng.integers(start - 3, end + 3, (n, n))
            matrix[rng.random((n, n)) < 0.3] = UNREACHED
            self.check(matrix, start, end)


class TestWindowWiderThanItsOffsets:
    """Contacts only in the first 100 dates of a [0, 300) window: the
    offsets fit uint8 while ``end - start`` is 300, so an unclipped
    count would take every unreached pair (offset 255) as joined."""

    @staticmethod
    def graph():
        from repro.core.presence import interval_presence
        from repro.core.time_domain import Lifetime
        from repro.core.tvg import TimeVaryingGraph

        graph = TimeVaryingGraph(lifetime=Lifetime(0, 300), name="early")
        graph.add_nodes(range(5))
        for source, target, when in ((0, 1, 3), (1, 2, 40), (3, 0, 90), (2, 4, 10)):
            graph.add_edge(
                source, target, presence=interval_presence([(when, when + 2)])
            )
        return graph

    @pytest.mark.parametrize("semantics", [WAIT, NO_WAIT])
    def test_growth_equals_the_interpretive_curve(self, semantics):
        from repro.core.engine import TemporalEngine
        from repro.service.service import TVGService

        graph = self.graph()
        engine = TemporalEngine(graph)
        _nodes, offsets = engine.arrival_offsets(0, semantics, horizon=300)
        assert offsets.dtype == np.uint8
        assert (offsets == 255).any()  # some pairs stay unreached
        expected = reachability_growth(graph, 0, 300, semantics)
        assert expected[-1][1] < 1.0
        assert reachability_growth(graph, 0, 300, semantics, engine=engine) == expected
        assert TVGService(graph).growth(0, 300, semantics) == expected
