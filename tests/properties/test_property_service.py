"""Stateful differential harness for the query service.

The earlier property suites proved the compiled kernel and the analysis
layer equivalent to the interpretive path on *fixed* graphs.  This
harness attacks the part neither could: the version/invalidation
machinery of :class:`~repro.service.service.TVGService` under
*adversarial schedules* — Hypothesis interleaves arbitrary mutations
(edge add/remove, presence swap, structured and black-box schedules)
with queries (``reach``, ``arrival``, ``growth``, ``classify``) under
NO_WAIT, WAIT, and bounded-wait semantics, and every single service
answer must equal a fresh interpretive-path computation on a *shadow
copy* of the graph that mirrors the mutations independently.

Any bug in version bumping, cache purging, engine recompilation, or
:class:`~repro.core.index.LazyContactCache` flushing shows up as a
divergence between the cached service answer and the shadow oracle,
and Hypothesis shrinks the schedule that exposes it.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.analysis.classes import classify
from repro.analysis.evolution import reachability_growth
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
from repro.errors import ServiceError
from repro.service.service import TVGService

NODES = ("a", "b", "c", "d", "e")
HORIZON = 10

semantics_strategy = st.one_of(
    st.just(NO_WAIT),
    st.just(WAIT),
    st.integers(1, 2).map(bounded_wait),
)

endpoints_strategy = st.permutations(NODES).map(lambda order: tuple(order[:2]))


class _ResiduePredicate:
    """A deterministic black-box schedule (forces the lazy-cache path)."""

    def __init__(self, period: int, residue: int) -> None:
        self.period = period
        self.residue = residue

    def __call__(self, time: int) -> bool:
        return time % self.period == self.residue

    def __repr__(self) -> str:
        return f"_ResiduePredicate(t % {self.period} == {self.residue})"


@st.composite
def presences(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        period = draw(st.integers(2, 5))
        pattern = draw(st.sets(st.integers(0, period - 1), min_size=1, max_size=period))
        return periodic_presence(pattern, period)
    if kind == 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, HORIZON - 1), st.integers(1, 4)),
                min_size=1,
                max_size=2,
            )
        )
        return interval_presence((a, a + width) for a, width in pairs)
    period = draw(st.integers(2, 4))
    residue = draw(st.integers(0, period - 1))
    return function_presence(_ResiduePredicate(period, residue), "blackbox")


@st.composite
def windows(draw):
    start = draw(st.integers(0, HORIZON - 2))
    end = draw(st.integers(start + 1, HORIZON))
    return start, end


class ServiceDifferentialMachine(RuleBasedStateMachine):
    """Mutations and queries interleave; the shadow oracle must agree."""

    def __init__(self) -> None:
        super().__init__()
        self.service = TVGService(self._fresh_graph("served"), cache_size=32)
        self.shadow = self._fresh_graph("shadow")
        self.keys: list[str] = []
        self.counter = 0
        # Background tasks in flight: task id -> (submit-time version,
        # the shadow's answer at submit time).  Snapshot isolation means
        # later mutations must never change what a task returns.
        self.pending_tasks: dict[str, tuple[int, list]] = {}

    def teardown(self) -> None:
        self.service.close()

    @staticmethod
    def _fresh_graph(name: str) -> TimeVaryingGraph:
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name=name)
        graph.add_nodes(NODES)
        return graph

    # -- mutations (applied to service AND shadow, independently) --------------

    @rule(endpoints=endpoints_strategy, presence=presences(), latency=st.integers(1, 3))
    def add_edge(self, endpoints, presence, latency):
        source, target = endpoints
        key = f"k{self.counter}"
        self.counter += 1
        returned = self.service.add_edge(
            source, target, presence=presence, latency=constant_latency(latency),
            key=key,
        )
        assert returned == key
        self.shadow.add_edge(
            source, target, presence=presence, latency=constant_latency(latency),
            key=key,
        )
        self.keys.append(key)

    @precondition(lambda self: self.keys)
    @rule(data=st.data())
    def remove_edge(self, data):
        key = self.keys.pop(data.draw(st.integers(0, len(self.keys) - 1), "key index"))
        self.service.remove_edge(key)
        self.shadow.remove_edge(key)

    @precondition(lambda self: self.keys)
    @rule(data=st.data(), presence=presences())
    def set_presence(self, data, presence):
        key = self.keys[data.draw(st.integers(0, len(self.keys) - 1), "key index")]
        self.service.set_presence(key, presence)
        self.shadow.set_presence(key, presence)

    # -- queries (service answer vs fresh interpretive shadow computation) -----

    @rule(
        endpoints=endpoints_strategy,
        start=st.integers(0, HORIZON - 1),
        semantics=semantics_strategy,
    )
    def query_arrival_and_reach(self, endpoints, start, semantics):
        source, target = endpoints
        expected = earliest_arrivals(
            self.shadow, source, start, semantics, horizon=HORIZON
        ).get(target)
        assert (
            self.service.arrival(source, target, start, HORIZON, semantics)
            == expected
        )
        assert self.service.reach(source, target, start, HORIZON, semantics) == (
            expected is not None
        )

    @rule(window=windows(), semantics=semantics_strategy)
    def query_growth(self, window, semantics):
        start, end = window
        assert self.service.growth(start, end, semantics) == reachability_growth(
            self.shadow, start, end, semantics
        )

    @rule(window=windows())
    def query_classify(self, window):
        start, end = window
        report = classify(self.shadow, start, end)
        assert self.service.classify(start, end) == {
            "classes": sorted(report.classes),
            "interval_connectivity": report.interval_connectivity,
        }

    @rule(window=windows(), semantics=semantics_strategy)
    def repeated_query_is_served_from_cache(self, window, semantics):
        """Two identical back-to-back queries: the second must hit the
        cache and still answer identically."""
        start, end = window
        first = self.service.growth(start, end, semantics)
        hits_before = self.service.cache.hits
        assert self.service.growth(start, end, semantics) == first
        assert self.service.cache.hits == hits_before + 1

    # -- background tasks (snapshot isolation under mutation churn) ------------

    @rule(window=windows(), semantics=semantics_strategy)
    def submit_background_growth(self, window, semantics):
        """Submit a growth query for background execution, capturing the
        shadow's answer *now* — whatever mutations interleave before the
        task is collected, the snapshot answer must equal this."""
        start, end = window
        expected = [
            [t, r] for t, r in reachability_growth(
                self.shadow, start, end, semantics
            )
        ]
        submitted = self.service.submit(
            "growth",
            lambda snapshot: [
                [t, r] for t, r in snapshot.growth(start, end, semantics)
            ],
        )
        assert submitted["version"] == self.service.graph.version
        self.pending_tasks[submitted["task"]] = (
            submitted["version"], expected,
        )

    @precondition(lambda self: self.pending_tasks)
    @rule(data=st.data())
    def collect_background_task(self, data):
        """Join one in-flight task: its result must be the submit-time
        shadow answer, and its staleness flag must reflect whether the
        graph moved on since."""
        task_ids = sorted(self.pending_tasks)
        task_id = task_ids[data.draw(st.integers(0, len(task_ids) - 1), "task")]
        version, expected = self.pending_tasks.pop(task_id)
        assert self.service.task_wait(task_id, timeout=10)
        status = self.service.task_status(task_id)
        assert status["state"] == "done", status
        assert status["version"] == version
        assert status["stale"] == (version != self.service.graph.version)
        assert self.service.task_result(task_id) == expected

    @precondition(lambda self: self.pending_tasks)
    @rule(data=st.data())
    def cancel_background_task(self, data):
        """Cancel one in-flight task: afterwards it is terminal, and its
        result is either the snapshot answer (it finished first) or a
        structured cancellation error — never anything else."""
        task_ids = sorted(self.pending_tasks)
        task_id = task_ids[data.draw(st.integers(0, len(task_ids) - 1), "task")]
        version, expected = self.pending_tasks.pop(task_id)
        status = self.service.task_cancel(task_id)
        assert status["state"] in ("cancelled", "done")
        assert self.service.task_wait(task_id, timeout=10)
        final = self.service.task_status(task_id)
        assert final["state"] == status["state"]
        if final["state"] == "done":
            assert self.service.task_result(task_id) == expected
        else:
            try:
                self.service.task_result(task_id)
            except ServiceError as exc:
                assert "cancelled" in str(exc)
            else:  # pragma: no cover — the assertion documents the bug
                raise AssertionError("cancelled task yielded a result")

    # -- structural invariants -------------------------------------------------

    @invariant()
    def graphs_mirror_each_other(self):
        assert {e.key for e in self.service.graph.edges} == {
            e.key for e in self.shadow.edges
        }
        assert set(self.keys) == {e.key for e in self.shadow.edges}

    @invariant()
    def cache_holds_only_current_or_retained_entries(self):
        """No stale entry survives a mutation: the service keeps its
        incremental seeds itself, so every cache entry is at the current
        version."""
        version = self.service.graph.version
        assert all(v == version for v, _query in self.service.cache._entries)


ServiceDifferentialMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    print_blob=True,
)

TestServiceDifferential = ServiceDifferentialMachine.TestCase


class TestArrivalFromALaterStart:
    """The seeds hold offsets from the window's start, so the service
    must add the start back: one explicit case with ``start > 0``."""

    def test_arrival_answers_start_plus_offset(self):
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="later")
        graph.add_nodes("abcd")
        graph.add_edge("a", "b", presence=interval_presence([(5, 6)]), key="ab")
        graph.add_edge(
            "b", "c", presence=interval_presence([(7, 8)]),
            latency=constant_latency(2), key="bc",
        )
        service = TVGService(graph)
        start = 4
        assert service.arrival("a", "b", start, HORIZON, WAIT) == 6
        assert service.arrival("a", "c", start, HORIZON, WAIT) == 9
        assert service.arrival("a", "a", start, HORIZON, WAIT) == start
        assert service.arrival("a", "d", start, HORIZON, WAIT) is None
        assert service.arrival("c", "a", start, HORIZON, WAIT) is None
        for source in graph.nodes:
            oracle = earliest_arrivals(graph, source, start, WAIT, HORIZON)
            for target in graph.nodes:
                assert service.arrival(source, target, start, HORIZON, WAIT) == (
                    oracle.get(target)
                )
