"""Tests for the compiled contact-sequence index and the temporal engine."""

import numpy as np
import pytest

from repro.core.engine import TemporalEngine
from repro.core.index import CompiledTVG, is_structured
from repro.core.intervals import Interval
from repro.core.latency import function_latency
from repro.core.presence import (
    always,
    at_times,
    function_presence,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
from repro.core.traversal import (
    earliest_arrivals,
    foremost_journey,
    reachable_states,
    successors,
)
from repro.core.tvg import TimeVaryingGraph


def build_graph():
    g = TimeVaryingGraph(lifetime=Lifetime(0, 12), name="mixed")
    g.add_edge("a", "b", presence=periodic_presence([0, 1], 4), key="ab")
    g.add_edge("b", "c", presence=interval_presence([(3, 5), (8, 10)]), key="bc")
    g.add_edge("c", "d", presence=always(), key="cd")
    g.add_edge("d", "a", presence=never(), key="da")
    g.add_edge(
        "a", "d", presence=function_presence(lambda t: t % 5 == 2, "mod5"), key="ad"
    )
    g.add_edge("b", "d", presence=periodic_presence([1], 3).shifted(1), key="bd")
    return g


class TestLowering:
    def test_structured_detection(self):
        assert is_structured(always())
        assert is_structured(never())
        assert is_structured(at_times([1, 5]))
        assert is_structured(periodic_presence([0], 3))
        assert is_structured(periodic_presence([0], 3).shifted(2))
        assert is_structured(periodic_presence([0], 3).dilated(2))
        assert is_structured(at_times([1]) | periodic_presence([0], 2))
        assert not is_structured(function_presence(lambda t: True))
        assert not is_structured(at_times([1]) | function_presence(lambda t: True))

    def test_contacts_match_presence_truth(self):
        g = build_graph()
        index = CompiledTVG(g, Interval(0, 12))
        for i, edge in enumerate(index.edge_list):
            truth = [t for t in range(12) if edge.present_at(t)]
            if index.contacts[i] is None:
                continue  # black-box edges are checked via queries below
            assert index.contacts[i].tolist() == truth, edge.key

    def test_blackbox_edge_not_compiled(self):
        g = build_graph()
        index = CompiledTVG(g, Interval(0, 12))
        by_key = {e.key: i for i, e in enumerate(index.edge_list)}
        assert index.contacts[by_key["ad"]] is None
        assert index.compiled_edge_count == len(index.edge_list) - 1
        # fallback queries still answer exactly
        assert index.next_present(by_key["ad"], 0, 12) == 2
        assert index.departures(by_key["ad"], 0, 12) == [2, 7]
        assert index.present_at(by_key["ad"], 7)
        assert not index.present_at(by_key["ad"], 3)

    def test_kernel_queries(self):
        g = build_graph()
        index = CompiledTVG(g, Interval(0, 12))
        by_key = {e.key: i for i, e in enumerate(index.edge_list)}
        ab = by_key["ab"]
        assert index.next_present(ab, 0, 12) == 0
        assert index.next_present(ab, 2, 12) == 4
        assert index.next_present(ab, 10, 12) is None
        assert index.departures(ab, 0, 6) == [0, 1, 4, 5]
        assert index.departures(ab, 6, 6) == []
        assert index.present_at(ab, 5) and not index.present_at(ab, 2)

    def test_csr_adjacency_matches_graph(self):
        g = build_graph()
        index = CompiledTVG(g, Interval(0, 12))
        assert index.out_ptr[0] == 0 and index.out_ptr[-1] == len(index.edge_list)
        for node in g.nodes:
            j = index.node_index[node]
            keys = [
                index.edge_list[ei].key
                for ei in index.out_edge_idx[index.out_ptr[j] : index.out_ptr[j + 1]]
            ]
            assert keys == [e.key for e in g.out_edges(node)]
            assert list(index.out_edge_indices(j)) == list(
                index.out_edge_idx[index.out_ptr[j] : index.out_ptr[j + 1]]
            )

    def test_varying_latency_not_constant_folded(self):
        g = TimeVaryingGraph(lifetime=Lifetime(0, 8))
        g.add_edge("a", "b", latency=function_latency(lambda t: t + 1), key="ab")
        index = CompiledTVG(g, Interval(0, 8))
        assert int(index.const_latency[0]) == -1
        assert index.arrival(0, 3) == 7


class TestInvalidation:
    def test_stale_flag(self):
        g = build_graph()
        index = CompiledTVG(g, Interval(0, 12))
        assert not index.stale
        g.add_edge("d", "b", key="db")
        assert index.stale

    def test_engine_recompiles_on_mutation(self):
        g = build_graph()
        engine = TemporalEngine(g)
        before = reachable_states(g, [("a", 0)], WAIT, engine=engine)
        g.add_edge("d", "e", key="de")  # 'e' only reachable after the mutation
        after = reachable_states(g, [("a", 0)], WAIT, engine=engine)
        legacy = reachable_states(g, [("a", 0)], WAIT)
        assert after == legacy
        assert "e" in {node for node, _t in after}
        assert before != after

    def test_engine_recompiles_on_edge_removal(self):
        g = build_graph()
        engine = TemporalEngine(g)
        reachable_states(g, [("a", 0)], WAIT, engine=engine)
        g.remove_edge("ab")
        assert reachable_states(g, [("a", 0)], WAIT, engine=engine) == reachable_states(
            g, [("a", 0)], WAIT
        )

    def test_window_grows_on_demand(self):
        g = TimeVaryingGraph()  # unbounded lifetime
        g.add_edge("a", "b", presence=periodic_presence([0], 7), key="ab")
        engine = TemporalEngine(g)
        first = earliest_arrivals(g, "a", 0, WAIT, horizon=5, engine=engine)
        assert first == {"a": 0, "b": 1}
        wide = earliest_arrivals(g, "a", 2, WAIT, horizon=20, engine=engine)
        assert wide == {"a": 2, "b": 8}
        assert engine.compiled.covers(0, 20)


class TestEngineAgainstOracle:
    @pytest.mark.parametrize("semantics", [NO_WAIT, WAIT, bounded_wait(2)])
    def test_mixed_graph_agreement(self, semantics):
        g = build_graph()
        engine = TemporalEngine(g)
        for source in g.nodes:
            assert reachable_states(
                g, [(source, 0)], semantics, engine=engine
            ) == reachable_states(g, [(source, 0)], semantics)
            assert earliest_arrivals(
                g, source, 0, semantics, engine=engine
            ) == earliest_arrivals(g, source, 0, semantics)

    def test_successors_order_matches(self):
        g = build_graph()
        engine = TemporalEngine(g)
        for source in g.nodes:
            for ready in range(4):
                compiled = list(successors(g, source, ready, WAIT, engine=engine))
                interpretive = list(successors(g, source, ready, WAIT))
                assert compiled == interpretive

    def test_foremost_journey_identical(self):
        g = build_graph()
        engine = TemporalEngine(g)
        for semantics in (NO_WAIT, WAIT, bounded_wait(1)):
            via_engine = foremost_journey(g, "a", "d", 0, semantics, engine=engine)
            legacy = foremost_journey(g, "a", "d", 0, semantics)
            if legacy is None:
                assert via_engine is None
            else:
                assert via_engine.hops == legacy.hops

    def test_engine_rejects_foreign_graph(self):
        from repro.errors import TimeDomainError

        g, other = build_graph(), build_graph()
        engine = TemporalEngine(other)
        with pytest.raises(TimeDomainError):
            reachable_states(g, [("a", 0)], WAIT, engine=engine)
        with pytest.raises(TimeDomainError):
            list(successors(g, "a", 0, WAIT, engine=engine))

    def test_reachability_matrix_rejects_foreign_engine(self):
        from repro.analysis.reachability import reachability_matrix
        from repro.errors import ReproError

        g, other = build_graph(), build_graph()
        with pytest.raises(ReproError):
            reachability_matrix(g, 0, WAIT, engine=TemporalEngine(other))


class TestSimulatorFastPath:
    def test_out_edges_at_matches_graph(self):
        g = build_graph()
        engine = TemporalEngine(g)
        for node in g.nodes:
            for t in range(12):
                assert engine.out_edges_at(node, t) == list(g.out_edges_at(node, t))

    def test_broadcast_identical_with_engine(self):
        from repro.core.generators import edge_markovian_tvg
        from repro.dynamics.protocols.broadcast import simulate_broadcast

        g = edge_markovian_tvg(10, horizon=30, birth=0.1, death=0.4, seed=5)
        for buffering in (False, True):
            plain = simulate_broadcast(g, 0, buffering)
            fast = simulate_broadcast(g, 0, buffering, engine=TemporalEngine(g))
            assert plain == fast

    def test_simulator_rejects_foreign_engine(self):
        from repro.dynamics.network import Simulator
        from repro.dynamics.nodes import Protocol
        from repro.errors import SimulationError

        g, other = build_graph(), build_graph()
        with pytest.raises(SimulationError):
            Simulator(g, lambda node: Protocol(), engine=TemporalEngine(other))


class TestArrivalMatrix:
    @pytest.mark.parametrize("semantics", [NO_WAIT, WAIT, bounded_wait(2)])
    def test_rows_match_single_source_searches(self, semantics):
        from repro.core.engine import UNREACHED

        g = build_graph()
        engine = TemporalEngine(g)
        nodes, matrix = engine.arrival_matrix(0, semantics)
        for i, source in enumerate(nodes):
            oracle = earliest_arrivals(g, source, 0, semantics)
            row = {
                nodes[j]: int(matrix[i, j])
                for j in range(len(nodes))
                if matrix[i, j] != UNREACHED
            }
            assert row == oracle, (source, semantics)

    def test_diagonal_is_start_time(self):
        g = build_graph()
        nodes, matrix = TemporalEngine(g).arrival_matrix(3, WAIT)
        for i in range(len(nodes)):
            assert matrix[i, i] == 3

    def test_matrix_and_ratio_derive_from_arrivals(self):
        import numpy as np

        from repro.analysis.reachability import reachability_matrix, reachability_ratio
        from repro.core.engine import UNREACHED

        g = build_graph()
        engine = TemporalEngine(g)
        nodes, arrival = engine.arrival_matrix(0, WAIT)
        _same, boolean = reachability_matrix(g, 0, WAIT, engine=engine)
        assert np.array_equal(boolean, arrival != UNREACHED)
        n = len(nodes)
        reached = sum(
            arrival[i, j] != UNREACHED for i in range(n) for j in range(n) if i != j
        )
        assert reachability_ratio(g, 0, WAIT, engine=engine) == reached / (n * (n - 1))

    def test_arrivals_past_horizon_are_kept(self):
        # b->c departs at 3 (the last date < horizon) with unit latency:
        # the arrival at 4 == horizon is still recorded, matching the
        # interpretive convention (departures bounded, arrivals not).
        from repro.core.engine import UNREACHED

        g = build_graph()
        nodes, matrix = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=4)
        idx = {node: k for k, node in enumerate(nodes)}
        oracle = earliest_arrivals(g, "a", 0, WAIT, horizon=4)
        assert oracle["c"] == 4  # lands exactly on the horizon
        row = {
            n: int(matrix[idx["a"], idx[n]])
            for n in nodes
            if matrix[idx["a"], idx[n]] != UNREACHED
        }
        assert row == oracle
        # d's only out-edge never fires: the whole row is unreachable.
        assert all(
            int(matrix[idx["d"], idx[n]]) == UNREACHED for n in "abc"
        )


class TestGeometricWindowRegrowth:
    """Regression for the exact-fit regrowth bug: per-date lookups on an
    unbounded-lifetime graph used to recompile the whole index every
    round (O(rounds x compile)).  Growth is geometric now, so a rolling
    query sequence costs O(log rounds) rebuilds."""

    ROUNDS = 100

    def _counting_engine(self, monkeypatch, graph):
        import repro.core.engine as engine_module

        builds: list[Interval] = []
        real = engine_module.CompiledTVG

        def counting(tvg, window, cache=None):
            builds.append(window)
            return real(tvg, window, cache)

        monkeypatch.setattr(engine_module, "CompiledTVG", counting)
        return TemporalEngine(graph), builds

    def _unbounded_graph(self):
        g = TimeVaryingGraph(name="unbounded")
        g.add_edge("a", "b", presence=periodic_presence([0], 2), key="ab")
        g.add_edge("b", "a", presence=periodic_presence([1], 2), key="ba")
        return g

    def test_rolling_lookups_rebuild_logarithmically(self, monkeypatch):
        """The simulator's per-round fast path: out_edges_at over an
        ever-advancing date must not recompile per round."""
        g = self._unbounded_graph()
        engine, builds = self._counting_engine(monkeypatch, g)
        for t in range(self.ROUNDS):
            engine.out_edges_at("a", t)
        # Exact-fit regrowth would build ~ROUNDS indexes; geometric
        # doubling needs at most log2(ROUNDS) + a seed build.
        assert len(builds) <= self.ROUNDS.bit_length() + 2
        # And the answers stay right: presence is residue-0 periodic.
        assert engine.out_edges_at("a", self.ROUNDS) == [g.edge("ab")]
        assert engine.out_edges_at("a", self.ROUNDS + 1) == []

    def test_descending_lookups_rebuild_logarithmically(self, monkeypatch):
        """Leftward growth must be geometric too: a replay walking
        *backwards* through time would otherwise regrow exact-fit once
        per date (the ascending bug, mirrored)."""
        g = self._unbounded_graph()
        engine, builds = self._counting_engine(monkeypatch, g)
        for t in range(self.ROUNDS, 0, -1):
            engine.out_edges_at("a", t)
        assert len(builds) <= self.ROUNDS.bit_length() + 2
        assert engine.out_edges_at("a", 2) == [g.edge("ab")]
        assert engine.out_edges_at("a", 3) == []

    def test_simulator_run_rebuild_count(self, monkeypatch):
        """A full 100-round Simulator run through the engine compiles
        O(log rounds) indexes (the warm-up covers the window up front)."""
        from repro.dynamics.network import Simulator
        from repro.dynamics.nodes import Protocol

        g = self._unbounded_graph()
        engine, builds = self._counting_engine(monkeypatch, g)
        report = Simulator(
            g, lambda node: Protocol(), start=0, end=self.ROUNDS, engine=engine
        ).run()
        assert report.end == self.ROUNDS
        assert len(builds) <= self.ROUNDS.bit_length() + 2

    def test_growth_rebuilds_preserve_contacts(self, monkeypatch):
        """Geometric growth must not change what the index answers."""
        g = self._unbounded_graph()
        engine, _builds = self._counting_engine(monkeypatch, g)
        for t in range(0, 50, 7):
            assert engine.successors("a", t, WAIT, horizon=t + 10) == list(
                successors(g, "a", t, WAIT, horizon=t + 10)
            )

    def test_staleness_rebuild_keeps_the_window(self, monkeypatch):
        """Mutation-triggered rebuilds must NOT inflate the window —
        doubling belongs to growth only, else a mutating service would
        balloon its compiled span."""
        g = self._unbounded_graph()
        engine, builds = self._counting_engine(monkeypatch, g)
        engine.index_for(0, 16)
        for round_ in range(5):
            g.add_edge("a", "b", key=f"extra{round_}")
            engine.index_for(0, 16)
        spans = [(w.start, w.end) for w in builds]
        assert spans == [(0, 16)] * 6
