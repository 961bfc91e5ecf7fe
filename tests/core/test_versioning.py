"""Audit of the version counter across every mutating method.

``TimeVaryingGraph.version`` is the single invalidation signal for
every derived structure — the compiled index, the engine's
:class:`~repro.core.index.LazyContactCache`, and the service's
:class:`~repro.service.cache.QueryCache` all key on it.  A mutator that
forgets to bump it silently serves stale answers from all three, so
this suite pins the exact bump count of each mutation, checks that
failed mutations and read-only calls never bump, and freezes the public
method surface so a newly added mutator cannot dodge the audit.
"""

import inspect
from dataclasses import replace

import pytest

from repro.core.presence import never, periodic_presence
from repro.core.tvg import TimeVaryingGraph
from repro.devtools import discover_mutators
from repro.errors import ReproError


@pytest.fixture()
def graph():
    g = TimeVaryingGraph(name="audited")
    g.add_nodes(["a", "b", "c"])
    g.add_edge("a", "b", key="ab")
    g.add_edge("b", "c", key="bc")
    return g


class TestEachMutatorBumpsExactlyOnce:
    """One structural change (endpoints pre-existing) = one bump."""

    def test_add_node_new(self, graph):
        before = graph.version
        graph.add_node("d")
        assert graph.version == before + 1

    def test_add_node_idempotent_is_not_a_mutation(self, graph):
        before = graph.version
        graph.add_node("a")
        assert graph.version == before

    def test_add_nodes_bumps_once_per_new_node(self, graph):
        before = graph.version
        graph.add_nodes(["a", "d", "e"])  # one existing, two new
        assert graph.version == before + 2

    def test_add_edge_between_existing_nodes(self, graph):
        before = graph.version
        graph.add_edge("a", "c", key="ac")
        assert graph.version == before + 1

    def test_add_edge_object(self, graph):
        before = graph.version
        graph.add_edge_object(graph.edge("ab").reversed())
        assert graph.version == before + 1

    def test_add_contact_is_two_edges_two_bumps(self, graph):
        before = graph.version
        graph.add_contact("a", "c", key="contact")
        assert graph.version == before + 2

    def test_remove_edge(self, graph):
        before = graph.version
        graph.remove_edge("ab")
        assert graph.version == before + 1

    def test_set_presence(self, graph):
        before = graph.version
        graph.set_presence("ab", periodic_presence([0], 2))
        assert graph.version == before + 1

    def test_set_presence_bumps_once_not_twice(self, graph):
        """The in-place swap must be cheaper to invalidate than the
        remove + re-add it replaces (which costs two bumps)."""
        twin = graph.copy()
        v_swap, v_readd = graph.version, twin.version
        graph.set_presence("ab", never())
        edge = twin.remove_edge("ab")
        twin.add_edge_object(edge.with_presence(never()))
        assert graph.version - v_swap == 1
        assert twin.version - v_readd == 2

    def test_set_presence_preserves_everything_but_the_schedule(self, graph):
        old = graph.edge("ab")
        new = graph.set_presence("ab", never())
        assert graph.edge("ab") is new
        assert (new.source, new.target, new.key, new.label) == (
            old.source, old.target, old.key, old.label,
        )
        assert new.latency is old.latency
        assert not new.present_at(0)
        assert graph.out_edges("a")[0] is new
        assert graph.in_edges("b")[0] is new

    def test_version_is_monotone_over_a_mixed_history(self, graph):
        seen = [graph.version]
        graph.add_node("z")
        seen.append(graph.version)
        graph.add_edge("z", "a", key="za")
        seen.append(graph.version)
        graph.set_presence("za", periodic_presence([1], 3))
        seen.append(graph.version)
        graph.remove_edge("za")
        seen.append(graph.version)
        assert seen == sorted(set(seen)), "version must strictly increase"


class TestFailedMutationsDoNotBump:
    def test_duplicate_edge_key(self, graph):
        before = graph.version
        with pytest.raises(ReproError):
            graph.add_edge("a", "c", key="ab")
        assert graph.version == before

    def test_duplicate_edge_key_on_new_endpoints(self, graph):
        """A refused edge adds neither of its new endpoints."""
        before = (graph.version, graph.nodes, graph.edges)
        with pytest.raises(ReproError, match="duplicate edge key 'ab'"):
            graph.add_edge("x", "y", key="ab")
        assert (graph.version, graph.nodes, graph.edges) == before

    def test_duplicate_edge_object_on_new_endpoints(self, graph):
        """``add_edge_object`` refuses a taken key in the same order:
        before either new endpoint goes in."""
        taken = replace(graph.edge("ab"), source="x", target="y")
        before = (graph.version, graph.nodes, graph.edges)
        with pytest.raises(ReproError, match="duplicate edge key 'ab'"):
            graph.add_edge_object(taken)
        assert (graph.version, graph.nodes, graph.edges) == before

    def test_contact_whose_reverse_key_is_taken(self, graph):
        """Both keys of a contact are checked before either edge goes
        in, so a taken reverse key adds nothing at all."""
        graph.add_edge("a", "c", key="x~rev")
        before = (graph.version, graph.nodes, graph.edges)
        with pytest.raises(ReproError, match="duplicate edge key 'x~rev'"):
            graph.add_contact("b", "d", key="x")
        assert (graph.version, graph.nodes, graph.edges) == before

    def test_remove_unknown_edge(self, graph):
        before = graph.version
        with pytest.raises(ReproError):
            graph.remove_edge("nope")
        assert graph.version == before

    def test_set_presence_unknown_edge(self, graph):
        before = graph.version
        with pytest.raises(ReproError):
            graph.set_presence("nope", never())
        assert graph.version == before


class TestReadsDoNotBump:
    def test_reads_and_copies_leave_version_alone(self, graph):
        before = graph.version
        graph.nodes, graph.edges, graph.alphabet
        graph.edge("ab"), graph.has_edge("ab"), graph.has_node("a")
        graph.out_edges("a"), graph.in_edges("b"), graph.edges_between("a", "b")
        list(graph.edges_at(0)), list(graph.out_edges_at("a", 0))
        graph.degree_at("a", 0)
        graph.copy()
        repr(graph)
        assert graph.version == before


class TestAuditIsComplete:
    #: Every public method/property of TimeVaryingGraph, partitioned by
    #: whether it may bump the version.  A new method must be added to
    #: one of these sets — and, if mutating, to the bump tests above —
    #: before this audit passes again.
    MUTATORS = {
        "add_node", "add_nodes", "add_edge", "add_edge_object",
        "add_contact", "set_presence", "remove_edge",
    }
    READERS = {
        "version", "nodes", "node_count", "has_node", "edges",
        "edge_count", "edge", "has_edge", "out_edges", "in_edges",
        "edges_between", "edges_at", "out_edges_at", "degree_at",
        "alphabet", "copy", "deltas_since",
    }

    def test_static_rule_and_audit_agree_on_the_mutator_list(self):
        """The static RL002 pass and this audit share one mutator list.

        ``discover_mutators`` re-derives the list from the AST (public
        methods that transitively write ``_nodes``/``_edges``/``_out``/
        ``_in``), so a newly added mutator fails here until it is
        audited above — and a method the audit lists as a mutator must
        actually write state, or the linter's view has drifted.
        """
        source = inspect.getsource(TimeVaryingGraph)
        assert discover_mutators(source) == self.MUTATORS, (
            "static mutator discovery and the audit list disagree: "
            "update MUTATORS (with a bump test) or fix the rule"
        )
        public = {
            name
            for name in dir(TimeVaryingGraph)
            if not name.startswith("_")
        }
        assert public - self.MUTATORS == self.READERS, (
            "every public non-mutating method must be listed in READERS"
        )
