"""Tests for the TimeVaryingGraph container."""

import pytest

from repro.core.latency import constant_latency
from repro.core.presence import at_times, periodic_presence
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph
from repro.errors import ReproError, TimeDomainError


@pytest.fixture()
def graph():
    g = TimeVaryingGraph(lifetime=Lifetime(0, 10), name="t")
    g.add_edge("a", "b", label="x", presence=at_times([0, 3]), key="ab")
    g.add_edge("b", "c", label="y", presence=at_times([1]), key="bc")
    g.add_edge("a", "c", label="x", presence=at_times([5]), key="ac")
    return g


class TestStructure:
    def test_nodes_from_edges(self, graph):
        assert set(graph.nodes) == {"a", "b", "c"}
        assert graph.node_count == 3

    def test_add_node_idempotent(self, graph):
        graph.add_node("a")
        assert graph.node_count == 3

    def test_edges(self, graph):
        assert graph.edge_count == 3
        assert graph.edge("ab").target == "b"

    def test_unknown_edge(self, graph):
        with pytest.raises(ReproError):
            graph.edge("zz")

    def test_duplicate_key_rejected(self, graph):
        with pytest.raises(ReproError):
            graph.add_edge("a", "b", key="ab")

    def test_auto_keys_unique(self):
        g = TimeVaryingGraph()
        e1 = g.add_edge("a", "b")
        e2 = g.add_edge("a", "b")
        assert e1.key != e2.key

    def test_auto_key_skips_explicit_keys(self):
        """A key-less edge takes the next free ``e{k}``, first try."""
        g = TimeVaryingGraph()
        g.add_edge("a", "b", key="e0")
        g.add_edge("b", "c", key="e1")
        assert g.add_edge("c", "a").key == "e2"
        assert g.add_edge("a", "c").key == "e3"

    def test_out_in_edges(self, graph):
        assert {e.key for e in graph.out_edges("a")} == {"ab", "ac"}
        assert {e.key for e in graph.in_edges("c")} == {"bc", "ac"}

    def test_unknown_node_queries(self, graph):
        with pytest.raises(ReproError):
            graph.out_edges("zz")

    def test_edges_between_parallel(self):
        g = TimeVaryingGraph()
        g.add_edge("a", "b", label="x", key="one")
        g.add_edge("a", "b", label="y", key="two")
        assert {e.key for e in g.edges_between("a", "b")} == {"one", "two"}

    def test_edges_between_unknown_target(self, graph):
        with pytest.raises(ReproError):
            graph.edges_between("a", "zz")

    def test_edges_between_unknown_source(self, graph):
        with pytest.raises(ReproError):
            graph.edges_between("zz", "a")

    def test_remove_edge(self, graph):
        graph.remove_edge("ab")
        assert not graph.has_edge("ab")
        assert {e.key for e in graph.out_edges("a")} == {"ac"}

    def test_remove_edge_keeps_order(self, graph):
        graph.add_edge("a", "d", key="ad")
        graph.remove_edge("ac")
        assert [e.key for e in graph.out_edges("a")] == ["ab", "ad"]

    def test_remove_missing_edge(self, graph):
        with pytest.raises(ReproError):
            graph.remove_edge("zz")

    def test_version_counts_mutations(self, graph):
        before = graph.version
        graph.add_node("fresh")
        assert graph.version == before + 1
        graph.add_edge("fresh", "a", key="fa")
        assert graph.version > before + 1
        at_edge = graph.version
        graph.remove_edge("fa")
        assert graph.version == at_edge + 1
        # read-only queries must not bump the counter
        graph.out_edges("a")
        graph.edges_between("a", "b")
        assert graph.version == at_edge + 1

    def test_alphabet(self, graph):
        assert graph.alphabet == {"x", "y"}

    def test_contact_adds_both_directions(self):
        g = TimeVaryingGraph()
        forward, backward = g.add_contact("u", "v", presence=at_times([2]))
        assert forward.source == "u" and backward.source == "v"
        assert backward.present_at(2)


class TestTimeQueries:
    def test_edges_at(self, graph):
        assert {e.key for e in graph.edges_at(0)} == {"ab"}
        assert {e.key for e in graph.edges_at(1)} == {"bc"}
        assert {e.key for e in graph.edges_at(5)} == {"ac"}

    def test_edges_at_outside_lifetime(self, graph):
        with pytest.raises(TimeDomainError):
            list(graph.edges_at(10))

    def test_out_edges_at(self, graph):
        assert {e.key for e in graph.out_edges_at("a", 3)} == {"ab"}
        assert not set(graph.out_edges_at("a", 1))

    def test_degree_at(self, graph):
        assert graph.degree_at("a", 0) == 1
        assert graph.degree_at("a", 1) == 0


class TestPeriodAndCopy:
    def test_period_validation(self):
        with pytest.raises(TimeDomainError):
            TimeVaryingGraph(period=0)

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add_edge("c", "a", key="new")
        assert not graph.has_edge("new")
        assert clone.edge_count == graph.edge_count + 1

    def test_copy_preserves_metadata(self):
        g = TimeVaryingGraph(lifetime=Lifetime(2, 8), period=3, name="orig")
        clone = g.copy(name="clone")
        assert clone.lifetime == Lifetime(2, 8)
        assert clone.period == 3
        assert clone.name == "clone"

    def test_periodic_graph_round_trip(self):
        g = TimeVaryingGraph(period=4)
        g.add_edge("a", "b", presence=periodic_presence([1], 4), latency=constant_latency(2))
        assert next(g.edges_at(1)).key
        assert list(g.edges_at(5))
