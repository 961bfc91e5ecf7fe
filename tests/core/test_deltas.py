"""Tests for the graph's mutation-delta log.

Every mutator must record one :class:`MutationDelta` per version bump
(versions stay consecutive), ``deltas_since`` must hand back a complete
chain or admit defeat with None — never a silently truncated one — and
the recorded endpoints must survive edge removal, because the
incremental sweep needs the tail of every dirty edge after the edge
itself is gone.
"""

import pytest

from repro.core.engine import TemporalEngine
from repro.core.presence import interval_presence, periodic_presence
from repro.core.semantics import WAIT
from repro.core.tvg import DELTA_HISTORY, MutationDelta, TimeVaryingGraph


def small_graph():
    g = TimeVaryingGraph()
    g.add_nodes("abc")
    g.add_edge("a", "b", presence=interval_presence([(0, 4)]), key="ab")
    g.add_edge("b", "c", presence=periodic_presence([1], 3), key="bc")
    return g


class TestRecording:
    def test_every_mutator_records_its_kind(self):
        g = TimeVaryingGraph()
        v = g.version
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", key="ab")
        g.set_presence("ab", interval_presence([(1, 3)]))
        g.remove_edge("ab")
        kinds = [d.kind for d in g.deltas_since(v)]
        assert kinds == [
            "add_node", "add_node", "add_edge", "set_presence", "remove_edge"
        ]

    def test_versions_are_consecutive_and_match_the_graph(self):
        g = small_graph()
        v = 0
        deltas = g.deltas_since(v)
        assert [d.version for d in deltas] == list(range(1, g.version + 1))

    def test_add_edge_with_new_endpoints_records_node_deltas_too(self):
        g = small_graph()
        v = g.version
        g.add_edge("c", "z", key="cz")  # z is new
        kinds = [d.kind for d in g.deltas_since(v)]
        assert kinds == ["add_node", "add_edge"]

    def test_removed_edge_keeps_its_endpoints(self):
        g = small_graph()
        v = g.version
        g.remove_edge("ab")
        (delta,) = g.deltas_since(v)
        assert delta == MutationDelta(g.version, "remove_edge", "ab", "a", "b")

    def test_set_presence_records_endpoints(self):
        g = small_graph()
        v = g.version
        g.set_presence("bc", interval_presence([(0, 2)]))
        (delta,) = g.deltas_since(v)
        assert (delta.kind, delta.edge_key) == ("set_presence", "bc")
        assert (delta.source, delta.target) == ("b", "c")


class TestDeltasSince:
    def test_current_version_yields_empty_chain(self):
        g = small_graph()
        assert g.deltas_since(g.version) == ()

    def test_future_version_is_unknowable(self):
        g = small_graph()
        assert g.deltas_since(g.version + 1) is None

    def test_chain_is_everything_after_the_snapshot(self):
        g = small_graph()
        v = g.version
        g.set_presence("ab", interval_presence([(1, 2)]))
        g.remove_edge("bc")
        deltas = g.deltas_since(v)
        assert [d.kind for d in deltas] == ["set_presence", "remove_edge"]
        # An older snapshot sees a longer suffix of the same log.
        assert g.deltas_since(v - 1)[1:] == deltas

    def test_truncated_history_is_unknowable_not_partial(self):
        g = TimeVaryingGraph()
        g.add_edge("a", "b", key="ab")
        v = g.version
        for i in range(DELTA_HISTORY + 5):
            g.set_presence("ab", interval_presence([(i % 7, i % 7 + 1)]))
        assert g.deltas_since(v) is None  # the deque dropped the head
        # A recent-enough snapshot still gets a complete chain.
        recent = g.version - 3
        assert len(g.deltas_since(recent)) == 3

    def test_oldest_retained_delta_is_still_reachable(self):
        g = TimeVaryingGraph()
        g.add_edge("a", "b", key="ab")
        for i in range(DELTA_HISTORY + 5):
            g.set_presence("ab", interval_presence([(i % 7, i % 7 + 1)]))
        # The snapshot exactly one before the oldest retained delta is
        # the earliest answerable one.
        oldest = g.version - DELTA_HISTORY
        assert len(g.deltas_since(oldest)) == DELTA_HISTORY
        assert g.deltas_since(oldest - 1) is None


def filtered_chain(graph, version):
    """The reference ``deltas_since``: the whole log filtered by
    version, after checking its oldest entry."""
    if version > graph.version:
        return None
    if version == graph.version:
        return ()
    log = graph._deltas
    if not log or log[0].version > version + 1:
        return None
    return tuple(d for d in log if d.version > version)


class TestChainFromTheLogTail:
    @pytest.mark.parametrize(
        "mutations",
        [0, 1, 5, *(DELTA_HISTORY + k for k in (-4, -3, -2, 7))],
    )
    def test_equals_the_filtering_reference(self, mutations):
        """At the current version (``()``), from the future and past the
        history (None), on both sides of the oldest retained delta, with
        the log short of, at and past its ``maxlen`` (the graph's first
        three deltas build it, so ``DELTA_HISTORY - 3`` swaps fill the
        log exactly)."""
        g = TimeVaryingGraph()
        g.add_edge("a", "b", key="ab")
        for i in range(mutations):
            g.set_presence("ab", interval_presence([(i % 7, i % 7 + 1)]))
        oldest = g.version - min(g.version, DELTA_HISTORY)
        for version in {
            -1, 0, 1, oldest - 1, oldest, oldest + 1,
            g.version - 1, g.version, g.version + 1, g.version + 5,
        }:
            assert g.deltas_since(version) == filtered_chain(g, version), version
        assert g.deltas_since(g.version) == ()
        assert g.deltas_since(g.version + 1) is None
        assert len(g.deltas_since(oldest)) == g.version - oldest
        assert g.deltas_since(oldest - 1) is None


class TestIndexPatching:
    def test_presence_only_chain_patches_in_place(self):
        g = small_graph()
        engine = TemporalEngine(g)
        engine.arrival_matrix(0, WAIT, 8)
        index = engine.compiled
        g.set_presence("ab", interval_presence([(2, 5)]))
        assert index.stale
        engine.arrival_matrix(0, WAIT, 8)
        assert engine.compiled is index, "presence swap should patch, not rebuild"
        assert not index.stale

    def test_patched_contacts_match_a_fresh_compile(self):
        g = small_graph()
        engine = TemporalEngine(g)
        engine.arrival_matrix(0, WAIT, 8)
        g.set_presence("ab", periodic_presence([0, 2], 4))
        g.set_presence("bc", interval_presence([(1, 6)]))
        _nodes, patched = engine.arrival_matrix(0, WAIT, 8)
        fresh = TemporalEngine(g)
        _nodes2, scratch = fresh.arrival_matrix(0, WAIT, 8)
        assert (patched == scratch).all()

    def test_structural_chain_forces_rebuild(self):
        g = small_graph()
        engine = TemporalEngine(g)
        engine.arrival_matrix(0, WAIT, 8)
        index = engine.compiled
        g.add_edge("c", "a", key="ca")
        engine.arrival_matrix(0, WAIT, 8)
        assert engine.compiled is not index, "add_edge cannot be patched"

    def test_apply_deltas_rejects_unknowable_chain(self):
        g = small_graph()
        engine = TemporalEngine(g)
        engine.arrival_matrix(0, WAIT, 8)
        assert engine.compiled.apply_deltas(None) is False

    @pytest.mark.parametrize("kind_mutation", [
        lambda g: g.add_edge("c", "a", key="ca"),
        lambda g: g.remove_edge("ab"),
        lambda g: g.add_node("z"),
    ])
    def test_apply_deltas_rejects_structural_kinds(self, kind_mutation):
        g = small_graph()
        engine = TemporalEngine(g)
        engine.arrival_matrix(0, WAIT, 8)
        index = engine.compiled
        v = index.version
        kind_mutation(g)
        assert index.apply_deltas(g.deltas_since(v)) is False
        assert index.stale  # version untouched on rejection
