"""Property suite for the array compile of the contact index.

:class:`~repro.core.index.CompiledTVG` lowers every structured leaf —
and any shift or dilation of one — as arithmetic progressions expanded
in whole arrays, and reads its adjacency off one stable argsort.  It
must produce exactly the arrays of the per-edge lowering it replaced
(``reference_compile`` in ``tests/lowering_helpers``: one
``presence.support`` call per edge, adjacency from ``graph.out_edges``)
on graphs mixing every presence form, black-box predicates included;
on negative dates, windows of width 0 and 1, windows narrower than a
period, and values past the array bound (which lower per edge); after
an :meth:`~repro.core.index.CompiledTVG.apply_deltas` chain that
changes presence kinds; and after remove/re-add churn.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from lowering_helpers import index_mismatches, reference_compile

from repro.core.index import CompiledTVG
from repro.core.intervals import Interval
from repro.core.latency import constant_latency, function_latency
from repro.core.presence import (
    always,
    function_presence,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.tvg import TimeVaryingGraph

DETERMINISTIC = settings(
    deadline=None, derandomize=True, print_blob=True, max_examples=300
)

#: Magnitudes past the compile's array bound (2**60), so the edges or
#: windows that reach them take the per-edge path.
HUGE = 2**61


def _leaves():
    periodic = st.integers(1, 7).flatmap(
        lambda p: st.sets(st.integers(0, p - 1), max_size=p).map(
            lambda pattern: periodic_presence(pattern, p)
        )
    )
    intervals = st.lists(
        st.tuples(st.integers(-30, 30), st.integers(1, 6)), min_size=1, max_size=4
    ).map(lambda pairs: interval_presence([(a, a + w) for a, w in pairs]))
    blackbox = st.tuples(st.integers(2, 5), st.integers(0, 4)).map(
        lambda pr: function_presence(
            lambda t, p=pr[0], r=pr[1]: t % p == r % p, "blackbox"
        )
    )
    return st.one_of(
        st.just(always()),
        st.just(never()),
        periodic,
        periodic,
        intervals,
        blackbox,
        st.just(periodic_presence([0, 3], HUGE + 5)),
    )


#: Leaves under shifts, dilations (some past the bound), unions and
#: intersections, nested.  Built once: drawing a freshly built
#: recursive strategy re-validates it every time.
PRESENCES = st.recursive(
    _leaves(),
    lambda inner: st.one_of(
        st.tuples(inner, st.integers(-12, 12)).map(lambda x: x[0].shifted(x[1])),
        st.tuples(inner, st.integers(1, 4)).map(lambda x: x[0].dilated(x[1])),
        st.tuples(inner, st.sampled_from([HUGE, -HUGE])).map(
            lambda x: x[0].shifted(x[1])
        ),
        st.tuples(inner, inner).map(lambda x: x[0] | x[1]),
        st.tuples(inner, inner).map(lambda x: x[0] & x[1]),
    ),
    max_leaves=4,
)

LATENCIES = st.one_of(
    st.integers(1, 3).map(constant_latency),
    st.just(function_latency(lambda t: 1 + t % 2, "varying")),
)


@st.composite
def windows(draw):
    base = draw(st.sampled_from([0, 0, 0, 2**60 - 8, -(2**60) - 8]))
    start = base + draw(st.integers(-25, 25))
    return Interval(start, start + draw(st.sampled_from([0, 1, 2, 3, 5, 9, 40, -2])))


@st.composite
def tvgs(draw):
    n = draw(st.integers(1, 5))
    graph = TimeVaryingGraph(name="compile")
    graph.add_nodes(range(n))
    for k in range(draw(st.integers(0, 10))):
        graph.add_edge(
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            key=f"k{k}",
            presence=draw(PRESENCES),
            latency=draw(LATENCIES),
        )
    return graph


def assert_matches_reference(index, graph, window):
    assert index_mismatches(index, reference_compile(graph, window)) == []
    assert tuple(index.edge_list) == graph.edges
    for j, node in enumerate(graph.nodes):
        assert [index.edge_list[i].key for i in index.out_edge_indices(j)] == [
            edge.key for edge in graph.out_edges(node)
        ]


@DETERMINISTIC
@given(graph=tvgs(), window=windows())
def test_compile_equals_per_edge_lowering(graph, window):
    assert_matches_reference(CompiledTVG(graph, window), graph, window)


@pytest.mark.parametrize("start", range(-8, 9))
def test_residues_rotate_to_every_window_start(start):
    # Every window start against several residues: the expansion lists
    # them from the first at or after the start, wrapping round.
    graph = TimeVaryingGraph(name="rotation")
    graph.add_edge(0, 1, presence=periodic_presence([0, 2, 5], 7))
    graph.add_edge(1, 0, presence=periodic_presence([1, 3], 4).dilated(2).shifted(-3))
    for width in range(17):
        window = Interval(start, start + width)
        assert_matches_reference(CompiledTVG(graph, window), graph, window)


@DETERMINISTIC
@given(
    graph=tvgs(),
    window=windows(),
    swaps=st.lists(st.tuples(st.integers(0, 20), PRESENCES), min_size=1, max_size=5),
)
def test_patched_index_equals_a_fresh_compile(graph, window, swaps):
    if graph.edge_count == 0:
        return
    index = CompiledTVG(graph, window)
    before = index.dates
    kept = before.copy()
    for which, presence in swaps:
        graph.set_presence(graph.edges[which % graph.edge_count].key, presence)
    assert index.apply_deltas(graph.deltas_since(index.version))
    assert index.version == graph.version
    assert_matches_reference(index, graph, window)
    assert np.array_equal(before, kept)  # splicing never writes the old arrays


@DETERMINISTIC
@given(
    graph=tvgs(),
    window=windows(),
    churn=st.lists(
        st.tuples(st.booleans(), st.integers(0, 20), st.integers(0, 4), PRESENCES),
        max_size=8,
    ),
)
def test_adjacency_follows_out_edges_after_churn(graph, window, churn):
    nodes = graph.nodes
    for fresh, which, target, presence in churn:
        edges = graph.edges
        if edges and not fresh:
            gone = graph.remove_edge(edges[which % len(edges)].key)
            graph.add_edge(gone.source, gone.target, key=gone.key, presence=presence)
        else:
            graph.add_edge(
                nodes[which % len(nodes)], nodes[target % len(nodes)], presence=presence
            )
    assert_matches_reference(CompiledTVG(graph, window), graph, window)
