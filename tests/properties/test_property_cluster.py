"""Property suite for the distributed arrival sweep.

Two layers of proof on top of PR 4's in-process sharding equivalence:

* **wire exactness** — :func:`~repro.service.wire.plan_to_spec` /
  :func:`~repro.service.wire.plan_from_spec` round-trip arbitrary
  :class:`~repro.core.parallel.SweepPlan`s *bit-exactly* (empty edge
  sets, empty plans, ``UNREACHED``-magnitude dates, every ``max_wait``
  regime), including through an actual JSON encode/decode — and a block
  sweep over the round-tripped plan equals the sweep over the original,
  so nothing about the answer can depend on which side of the wire the
  plan sits on;

* **fault-injected equivalence** — a Hypothesis *stateful* harness
  drives a real :class:`~repro.service.cluster.ClusterExecutor` over
  real loopback workers, one of which is a ``FaultyWorker``
  (``tests/faulty_worker.py``) whose failure mode
  (kill/hang/corrupt/misshape/stale-plan-version/plan-evicted/
  steal-crash) the schedule rotates mid-run, while mutations (edge
  add/remove, presence swaps, black-box schedules) interleave with
  all-pairs queries under NO_WAIT/WAIT/bounded-wait — some queries
  racing a fleet-membership flip (:meth:`ClusterExecutor.set_workers`
  from a timer thread) against their own sweep.  Every matrix entry
  must equal a fresh interpretive computation on a shadow copy of the
  graph, and every schedule is guaranteed at least one injected worker
  failure (teardown forces a sweep against a dead-worker-only fleet if
  the stealing healthy workers absorbed every block first).
"""

import json
import threading

import numpy as np
import pytest
from faulty_worker import FaultyWorker
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule
from plan_helpers import make_plan

from repro.core.engine import UNREACHED, TemporalEngine
from repro.core.latency import constant_latency
from repro.core.parallel import build_sweep_plan, sweep_block
from repro.core.presence import (
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
from repro.core.traversal import earliest_arrivals
from repro.core.tvg import TimeVaryingGraph
from repro.service.cluster import ClusterExecutor, LoopbackWorkerPool
from repro.service.wire import plan_from_spec, plan_to_spec

HORIZON = 10

DETERMINISTIC = settings(deadline=None, derandomize=True, print_blob=True)

semantics_strategy = st.one_of(
    st.just(NO_WAIT),
    st.just(WAIT),
    st.integers(1, 2).map(bounded_wait),
)


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


# -- wire round-trip properties ------------------------------------------------


@st.composite
def sweep_plans(draw):
    """Arbitrary plans, structurally valid but otherwise unconstrained —
    including empty node sets, edges with no contacts, and plans no real
    graph lowering would produce."""
    n = draw(st.integers(0, 5))
    edge_count = draw(st.integers(0, 6)) if n else 0
    targets = tuple(draw(st.integers(0, n - 1)) for _ in range(edge_count))
    owner = [draw(st.integers(0, n - 1)) for _ in range(edge_count)]
    out_edges = tuple(
        tuple(ei for ei in range(edge_count) if owner[ei] == j) for j in range(n)
    )
    start = draw(st.integers(-4, 4))
    horizon = start + draw(st.integers(0, 10))
    contacts, arrivals = [], []
    for _ in range(edge_count):
        departures = sorted(
            set(
                draw(
                    st.lists(
                        st.integers(start, max(start, horizon - 1)), max_size=4
                    )
                )
            )
        )
        contacts.append(tuple(departures))
        arrivals.append(
            tuple(dep + draw(st.integers(1, 3)) for dep in departures)
        )
    return make_plan(
        n=n,
        out_edges=out_edges,
        target_idx=targets,
        contacts=tuple(contacts),
        arrivals=tuple(arrivals),
        start_time=start,
        horizon=horizon,
        max_wait=draw(st.one_of(st.none(), st.integers(0, 4))),
    )


@st.composite
def tvgs(draw):
    n = draw(st.integers(2, 6))
    graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="random")
    graph.add_nodes(range(n))
    for _ in range(draw(st.integers(1, 9))):
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


class TestPlanSpecRoundTrip:
    @given(sweep_plans())
    @settings(DETERMINISTIC, max_examples=80)
    def test_round_trip_is_bit_exact(self, plan):
        spec = plan_to_spec(plan)
        clone = plan_from_spec(json.loads(json.dumps(spec)))
        assert clone == plan
        assert clone.fingerprint == plan.fingerprint
        assert type(clone.max_wait) is type(plan.max_wait)

    @given(sweep_plans(), st.integers(0, 4))
    @settings(DETERMINISTIC, max_examples=40)
    def test_sweeping_the_clone_equals_sweeping_the_original(self, plan, salt):
        if plan.n == 0:
            sources = ()
        else:
            sources = tuple(range(salt % plan.n, plan.n))
        clone = plan_from_spec(plan_to_spec(plan))
        assert np.array_equal(sweep_block(clone, sources), sweep_block(plan, sources))

    @given(tvgs(), semantics_strategy, st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=40)
    def test_lowered_graph_plans_survive_the_wire(self, graph, semantics, start):
        """Plans produced by the real lowering (black-box presences
        resolved through the LazyContactCache) round-trip and sweep
        identically — the exact payload the cluster ships."""
        engine = TemporalEngine(graph)
        _nodes, plan = build_sweep_plan(engine, start, semantics, HORIZON)
        clone = plan_from_spec(json.loads(json.dumps(plan_to_spec(plan))))
        assert clone == plan
        assert clone.fingerprint == plan.fingerprint
        full = tuple(range(plan.n))
        assert np.array_equal(sweep_block(clone, full), sweep_block(plan, full))

    def test_unreached_magnitude_dates_survive(self):
        """Dates at the int64 ceiling — the UNREACHED sentinel's range —
        must pack without truncation or float drift."""
        big = int(UNREACHED) - 7
        plan = make_plan(
            n=2,
            out_edges=((0,), ()),
            target_idx=(1,),
            contacts=((big - 3, big),),
            arrivals=((big - 2, big + 1),),
            start_time=big - 5,
            horizon=big + 2,
            max_wait=None,
        )
        clone = plan_from_spec(json.loads(json.dumps(plan_to_spec(plan))))
        assert clone == plan
        assert clone.contacts[0][1] == big

    def test_empty_plan_round_trips(self):
        plan = make_plan(
            n=0, out_edges=(), target_idx=(), contacts=(), arrivals=(),
            start_time=0, horizon=0, max_wait=0,
        )
        assert plan_from_spec(plan_to_spec(plan)) == plan


# -- the fault-injecting differential harness ----------------------------------

NODES = ("a", "b", "c", "d", "e")


class ClusterDifferentialMachine(RuleBasedStateMachine):
    """Mutations, queries, worker faults, and membership churn
    interleave; every matrix entry must match the interpretive shadow
    oracle.

    The executor's fleet is two honest loopback workers around one
    :class:`FaultyWorker`.  Work stealing means the healthy workers may
    drain the shared queue before the faulty one pulls a block, so no
    *per-query* recovery is guaranteed — instead teardown forces one
    sweep against a fleet of only the faulty worker whenever a schedule
    finished without a single absorbed failure, so every schedule still
    proves at least one.  ``steal-crash`` kills the faulty worker for
    good (listener closed); a revive rule swaps in a fresh double via
    :meth:`ClusterExecutor.set_workers`, exercising elastic membership
    on the way.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pool = LoopbackWorkerPool(2).__enter__()
        self.faulty = FaultyWorker("kill")
        self.cluster = ClusterExecutor(
            self._full_fleet(),
            timeout=0.25,
            min_nodes=0,
        )
        self.graph = self._fresh_graph("clustered")
        self.shadow = self._fresh_graph("shadow")
        self.engine = TemporalEngine(self.graph, executor=self.cluster)
        self.keys: list[str] = []
        self.counter = 0
        self.queries_run = 0

    @staticmethod
    def _fresh_graph(name: str) -> TimeVaryingGraph:
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name=name)
        graph.add_nodes(NODES)
        return graph

    def _full_fleet(self) -> list[str]:
        return [self.pool.addresses[0], self.faulty.address, self.pool.addresses[1]]

    # -- worker faults (rotated mid-schedule) ----------------------------------

    @rule(
        mode=st.sampled_from(
            [
                "kill",
                "corrupt",
                "misshape",
                "hang",
                "stale-plan-version",
                "plan-evicted",
                "steal-crash",
            ]
        )
    )
    def set_fault_mode(self, mode):
        self.faulty.mode = mode

    @precondition(lambda self: self.faulty._stop.is_set())
    @rule()
    def revive_faulty(self):
        """A steal-crashed double is dead for good — replace it with a
        fresh one and re-resolve the fleet around the new address."""
        self.faulty = FaultyWorker("kill")
        self.cluster.set_workers(self._full_fleet())

    # -- mutations (applied to cluster graph AND shadow, independently) --------

    @rule(
        endpoints=st.permutations(NODES).map(lambda order: tuple(order[:2])),
        presence=presences(),
        latency=st.integers(1, 3),
    )
    def add_edge(self, endpoints, presence, latency):
        source, target = endpoints
        key = f"k{self.counter}"
        self.counter += 1
        for graph in (self.graph, self.shadow):
            graph.add_edge(
                source, target, presence=presence,
                latency=constant_latency(latency), key=key,
            )
        self.keys.append(key)

    @precondition(lambda self: self.keys)
    @rule(data=st.data())
    def remove_edge(self, data):
        key = self.keys.pop(data.draw(st.integers(0, len(self.keys) - 1), "key index"))
        self.graph.remove_edge(key)
        self.shadow.remove_edge(key)

    @precondition(lambda self: self.keys)
    @rule(data=st.data(), presence=presences())
    def set_presence(self, data, presence):
        key = self.keys[data.draw(st.integers(0, len(self.keys) - 1), "key index")]
        self.graph.set_presence(key, presence)
        self.shadow.set_presence(key, presence)

    # -- the differential query ------------------------------------------------

    def _check_matrix(self, start, semantics):
        nodes, matrix = self.engine.arrival_matrix(start, semantics, horizon=HORIZON)
        index = {node: i for i, node in enumerate(nodes)}
        for source in NODES:
            expected = earliest_arrivals(
                self.shadow, source, start, semantics, horizon=HORIZON
            )
            for target in NODES:
                value = int(matrix[index[source], index[target]])
                got = None if value == UNREACHED else value
                assert got == expected.get(target), (
                    f"{source}->{target} from {start} under {semantics}: "
                    f"cluster says {got}, oracle says {expected.get(target)}"
                )
        self.queries_run += 1

    @rule(start=st.integers(0, HORIZON - 1), semantics=semantics_strategy)
    def query_matrix(self, start, semantics):
        self._check_matrix(start, semantics)

    @rule(
        start=st.integers(0, HORIZON - 1),
        semantics=semantics_strategy,
        leave=st.booleans(),
    )
    def query_with_membership_churn(self, start, semantics, leave):
        """Fleet membership flips from another thread while the sweep is
        (possibly still) in flight — a shrink to one honest worker, or a
        grow from the faulty worker alone back to the full fleet.  The
        answer must be oracle-exact either way."""
        full = self._full_fleet()
        if leave:
            changed = [self.pool.addresses[0]]
        else:
            self.cluster.set_workers([self.faulty.address])
            changed = full
        timer = threading.Timer(0.02, self.cluster.set_workers, args=(changed,))
        timer.start()
        try:
            self._check_matrix(start, semantics)
        finally:
            timer.cancel()
            timer.join()
            self.cluster.set_workers(full)

    def teardown(self):
        try:
            if self.cluster.jobs_recovered == 0:
                # Stealing lets the healthy workers absorb every block,
                # so a schedule can finish fault-free; force one sweep
                # where the faulty worker owns *everything* so every
                # schedule still proves fault absorption.  (Also covers
                # schedules where Hypothesis drew no query steps.)
                if self.faulty._stop.is_set():
                    self.faulty = FaultyWorker("kill")
                self.faulty.mode = "kill"
                self.cluster.set_workers([self.faulty.address])
                self._check_matrix(0, WAIT)
                assert self.cluster.jobs_recovered > 0
        finally:
            self.faulty.close()
            self.pool.__exit__(None, None, None)


ClusterDifferentialMachine.TestCase.settings = settings(
    max_examples=5,
    stateful_step_count=10,
    deadline=None,
    derandomize=True,
    print_blob=True,
)

TestClusterDifferential = ClusterDifferentialMachine.TestCase
TestClusterDifferential.pytestmark = [pytest.mark.cluster, pytest.mark.service]
