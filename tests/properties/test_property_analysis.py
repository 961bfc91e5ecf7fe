"""Differential oracle suite for the engine-backed analysis layer.

PR 1's property suite proved the compiled *kernel* equivalent to the
interpretive one; this suite proves the *analysis layer* built on top of
the batched arrival sweep equivalent to the interpretive path it
replaced: growth curves, connectivity classification, and foremost
broadcast trees must be identical on random TVGs under NO_WAIT, WAIT,
and bounded-wait semantics.  The random graphs mix every structured
presence form plus black-box predicates, so the engine paths here also
exercise :class:`~repro.core.index.LazyContactCache` (black-box contacts
memoized lazily) against the predicate-calling oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.classes import (
    ClassReport,
    classify,
    edges_bounded_recurrent,
    edges_periodic,
    edges_recurrent,
    interval_connectivity,
    is_recurrently_connected,
    is_round_connected,
    is_temporally_connected_from,
)
from repro.analysis.evolution import reachability_growth, value_of_waiting
from repro.analysis.spanners import foremost_broadcast_tree
from repro.core.engine import UNREACHED, TemporalEngine
from repro.core.latency import constant_latency
from repro.core.presence import (
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
from repro.core.traversal import earliest_arrivals
from repro.core.tvg import TimeVaryingGraph

HORIZON = 12

DETERMINISTIC = settings(deadline=None, derandomize=True, print_blob=True)

semantics_strategy = st.one_of(
    st.just(NO_WAIT),
    st.just(WAIT),
    st.integers(0, 3).map(bounded_wait),
)


@st.composite
def presences(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        period = draw(st.integers(2, 5))
        pattern = draw(
            st.sets(st.integers(0, period - 1), min_size=1, max_size=period)
        )
        return periodic_presence(pattern, period)
    if kind == 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, HORIZON - 1), st.integers(1, 4)),
                min_size=1,
                max_size=3,
            )
        )
        return interval_presence([(a, a + w) for a, w in pairs])
    if kind == 2:
        period = draw(st.integers(2, 4))
        shift = draw(st.integers(-2, 3))
        return periodic_presence([0], period).shifted(shift)
    if kind == 3:
        left = periodic_presence([draw(st.integers(0, 2))], 3)
        right = interval_presence([(draw(st.integers(0, 6)), draw(st.integers(7, 11)))])
        return left | right if draw(st.booleans()) else left & right
    # Black-box: an opaque callable routed through the LazyContactCache.
    period = draw(st.integers(2, 5))
    residue = draw(st.integers(0, period - 1))
    return function_presence(lambda t, p=period, r=residue: t % p == r, "blackbox")


@st.composite
def tvgs(draw, max_nodes=5, max_edges=8):
    n = draw(st.integers(2, max_nodes))
    graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="random")
    graph.add_nodes(range(n))
    edge_count = draw(st.integers(1, max_edges))
    for _ in range(edge_count):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        graph.add_edge(
            u,
            v,
            presence=draw(presences()),
            latency=constant_latency(draw(st.integers(1, 3))),
        )
    return graph


#: Few nodes, many edges: TC holds often enough that its loss at later
#: start dates shows.
dense_tvgs = tvgs(max_nodes=4, max_edges=16)


@st.composite
def windows(draw):
    """A window inside the lifetime, widths 1 and 2 drawn as often as
    all the wider ones together."""
    width = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, HORIZON)))
    start = draw(st.integers(0, HORIZON - width))
    return start, start + width


def sampled_recurrence(graph, start, end, stride):
    """C3 as the conjunction over its sampled start dates, interpretive."""
    return all(
        is_temporally_connected_from(graph, t, end)
        for t in range(start, max(start + 1, end - 1), stride)
    )


def reference_classify(graph, start, end):
    """classify with C1, C2 and the sampled C3 each evaluated on its
    own, in that order, interpretively."""
    tags = set()
    if is_round_connected(graph, start, end):
        tags.add("C1")
    if is_temporally_connected_from(graph, start, end):
        tags.add("C2")
    if sampled_recurrence(graph, start, end, max(1, (end - start) // 8)):
        tags.add("C3")
    if edges_recurrent(graph, start, end):
        tags.add("C5")
    if edges_bounded_recurrent(graph, start, end, max(1, (end - start) // 4)):
        tags.add("C6")
    if graph.period is not None and edges_periodic(graph, graph.period, start, end):
        tags.add("C7")
    t_interval = interval_connectivity(graph, start, end)
    if t_interval >= 1:
        tags |= {"C9", "C10"}
    return ClassReport((start, end), frozenset(tags), t_interval)


class TestArrivalMatrixAgainstOracle:
    @given(tvgs(), semantics_strategy, st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=40)
    def test_rows_are_earliest_arrivals(self, graph, semantics, start):
        """Each sweep row equals one interpretive earliest-arrival search."""
        engine = TemporalEngine(graph)
        nodes, matrix = engine.arrival_matrix(start, semantics, horizon=HORIZON)
        for i, source in enumerate(nodes):
            oracle = earliest_arrivals(graph, source, start, semantics)
            row = {
                nodes[j]: int(matrix[i, j])
                for j in range(len(nodes))
                if matrix[i, j] != UNREACHED
            }
            assert row == oracle


class TestGrowthAgainstOracle:
    @given(tvgs(), semantics_strategy)
    @settings(DETERMINISTIC, max_examples=40)
    def test_growth_curves_agree(self, graph, semantics):
        engine = TemporalEngine(graph)
        oracle = reachability_growth(graph, 0, HORIZON, semantics)
        compiled = reachability_growth(graph, 0, HORIZON, semantics, engine=engine)
        assert compiled == oracle

    @given(tvgs(), st.integers(1, 5))
    @settings(DETERMINISTIC, max_examples=20)
    def test_value_of_waiting_agrees(self, graph, start):
        engine = TemporalEngine(graph)
        oracle = value_of_waiting(graph, start, HORIZON)
        compiled = value_of_waiting(graph, start, HORIZON, engine=engine)
        assert compiled == oracle


class TestClassificationAgainstOracle:
    @given(tvgs())
    @settings(DETERMINISTIC, max_examples=25)
    def test_classify_agrees(self, graph):
        engine = TemporalEngine(graph)
        oracle = classify(graph, 0, HORIZON)
        compiled = classify(graph, 0, HORIZON, engine=engine)
        assert compiled == oracle

    @given(tvgs(), st.integers(0, 4))
    @settings(DETERMINISTIC, max_examples=25)
    def test_connectivity_predicates_agree(self, graph, start):
        engine = TemporalEngine(graph)
        assert is_temporally_connected_from(
            graph, start, HORIZON, engine=engine
        ) == is_temporally_connected_from(graph, start, HORIZON)
        assert is_round_connected(
            graph, start, HORIZON, engine=engine
        ) == is_round_connected(graph, start, HORIZON)
        assert is_recurrently_connected(
            graph, start, HORIZON, stride=2, engine=engine
        ) == is_recurrently_connected(graph, start, HORIZON, stride=2)


class TestRecurrenceByMonotonicity:
    """Under unbounded waiting TC from ``t'`` implies TC from every
    ``t <= t'`` (same horizon), so C3 is one check from the last sample
    and classify needs C2's own sweep only without C1 or C3."""

    @given(dense_tvgs, windows(), st.booleans())
    @settings(DETERMINISTIC, max_examples=40)
    def test_tc_is_monotone_in_the_start_date(self, graph, window, with_engine):
        start, end = window
        engine = TemporalEngine(graph) if with_engine else None
        verdicts = [
            is_temporally_connected_from(graph, t, end, engine=engine)
            for t in range(start, end)
        ]
        assert verdicts == sorted(verdicts, reverse=True)

    @given(dense_tvgs, windows(), st.integers(1, 4), st.booleans())
    @settings(DETERMINISTIC, max_examples=150)
    def test_one_check_equals_the_sampled_conjunction(
        self, graph, window, stride, with_engine
    ):
        start, end = window
        engine = TemporalEngine(graph) if with_engine else None
        assert is_recurrently_connected(
            graph, start, end, stride=stride, engine=engine
        ) == sampled_recurrence(graph, start, end, stride)

    @given(dense_tvgs, windows())
    @settings(DETERMINISTIC, max_examples=60)
    def test_classify_equals_independent_checkers(self, graph, window):
        expected = reference_classify(graph, *window)
        assert classify(graph, *window) == expected
        assert classify(graph, *window, engine=TemporalEngine(graph)) == expected


class TestBroadcastTreeAgainstOracle:
    @given(tvgs(), semantics_strategy, st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=40)
    def test_trees_identical(self, graph, semantics, start):
        """Same informed times AND the same entry hops, node for node."""
        engine = TemporalEngine(graph)
        for source in graph.nodes:
            oracle = foremost_broadcast_tree(graph, source, start, semantics)
            compiled = foremost_broadcast_tree(
                graph, source, start, semantics, engine=engine
            )
            assert compiled.informed_at == oracle.informed_at
            assert compiled.entry_hop == oracle.entry_hop


class TestRepeatedQueriesThroughOneEngine:
    @given(tvgs())
    @settings(DETERMINISTIC, max_examples=15)
    def test_growth_then_classify_then_tree_stay_exact(self, graph):
        """One engine serving the whole analysis layer back-to-back (the
        LazyContactCache is shared across all of it) never drifts from
        the oracle."""
        engine = TemporalEngine(graph)
        for _ in range(2):  # second round hits fully-warmed caches
            assert reachability_growth(
                graph, 0, HORIZON, WAIT, engine=engine
            ) == reachability_growth(graph, 0, HORIZON, WAIT)
            assert classify(graph, 0, HORIZON, engine=engine) == classify(
                graph, 0, HORIZON
            )
            tree = foremost_broadcast_tree(graph, graph.nodes[0], 0, WAIT,
                                           engine=engine)
            oracle = foremost_broadcast_tree(graph, graph.nodes[0], 0, WAIT)
            assert tree.informed_at == oracle.informed_at
