"""Answer checking, done after the timed phase.

The timed phase's mutations are replayed, in order, on a shadow graph
built from the same edge list as the server's.  A query is checked at
every graph version it may have been answered at (one version in a
closed loop; see :attr:`loadgen.Record.versions`) and passes if it
equals the expected answer at any of them.  Expected answers come from
one of two oracles:

* the *reference*: a from-scratch sweep of a fresh
  ``TemporalEngine`` on the shadow graph, with no result cache, no
  index patching and no incremental re-sweep;
* the *interpretive* single-source search
  (``repro.core.traversal.earliest_arrivals``), the ground truth.

Which answers are checked, per workload, is :data:`POLICIES`.  Where
checking every answer would cost as much as serving it (a from-scratch
sweep at n = 1600 takes about a second), a sample drawn with a fixed
seed is checked instead.  Every answer also gets a cheap shape check.
"""

from __future__ import annotations

import random
from collections import defaultdict

from workloads import END, START, build_graph

#: Per workload: ``points`` is "reference" (every reach/arrival against
#: the reference matrix) or an int (that many sampled arrivals against
#: the interpretive search); ``growth`` and ``classify`` are None (check
#: all) or the sample size; ``rows`` names the semantics of the sampled
#: source rows of the reference matrix that are compared with the
#: interpretive search at the start version, so the reference itself is
#: checked (an interpretive WAIT row costs about 3 s at n = 400).
POLICIES = {
    "cold-churn": {"points": 3, "growth": 2, "classify": None, "rows": ()},
    "community-churn": {"points": 0, "growth": 3, "classify": None, "rows": ()},
    "hot-read": {
        "points": "reference", "growth": None, "classify": None,
        "rows": ("wait", "nowait", "nowait"),
    },
    "mixed-open": {
        "points": "reference", "growth": None, "classify": 2,
        "rows": ("nowait", "nowait"),
    },
}

QUERIES = ("reach", "arrival", "growth", "classify")


def shape_ok(op: dict, result) -> bool:
    """Whether an answer has the right type and range for its op."""
    kind = op["op"]
    if kind in ("add_edge", "remove_edge", "set_presence"):
        return result == op["key"]
    if kind == "reach":
        return isinstance(result, bool)
    if kind == "arrival":
        return result is None or (isinstance(result, int) and result >= START)
    if kind == "growth":
        if not isinstance(result, list) or len(result) != END - START:
            return False
        dates = [pair[0] for pair in result]
        shares = [pair[1] for pair in result]
        return (
            dates == list(range(START, END))
            and all(0.0 <= r <= 1.0 for r in shares)
            and shares == sorted(shares)
        )
    if kind == "classify":
        return isinstance(result, dict) and set(result) == {
            "classes", "interval_connectivity",
        }
    return False


class Shadow:
    """The shadow graph, moved forward one mutation at a time, and the
    oracles over its current version."""

    def __init__(self, nodes: int, edges: list[list], mutations: list[dict]) -> None:
        self.graph = build_graph(nodes, edges)
        self.version = 0
        self._mutations = mutations
        self._memo: dict = {}

    def advance(self, version: int) -> None:
        from repro.service.wire import presence_from_spec

        while self.version < version:
            op = self._mutations[self.version]
            if op["op"] == "add_edge":
                self.graph.add_edge(
                    op["source"], op["target"], key=op["key"],
                    presence=presence_from_spec(op.get("presence")),
                )
            elif op["op"] == "remove_edge":
                self.graph.remove_edge(op["key"])
            else:
                self.graph.set_presence(op["key"], presence_from_spec(op["presence"]))
            self.version += 1
            self._memo.clear()

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def matrix(self, semantics: str):
        from repro.core.engine import TemporalEngine
        from repro.service.wire import parse_semantics

        def compute():
            engine = TemporalEngine(self.graph)
            nodes, matrix = engine.arrival_matrix(
                START, parse_semantics(semantics), horizon=END
            )
            return {node: i for i, node in enumerate(nodes)}, matrix

        return self._once(("matrix", semantics), compute)

    def point(self, op: dict):
        """Reach/arrival from the reference matrix."""
        from repro.core.engine import UNREACHED

        index, matrix = self.matrix(op["semantics"])
        value = int(matrix[index[op["source"]], index[op["target"]]])
        arrival = None if value == UNREACHED else value
        return arrival is not None if op["op"] == "reach" else arrival

    def interpretive(self, source: int, semantics: str) -> dict:
        from repro.core.traversal import earliest_arrivals
        from repro.service.wire import parse_semantics

        return self._once(
            ("interpretive", source, semantics),
            lambda: earliest_arrivals(
                self.graph, source, START, parse_semantics(semantics), horizon=END
            ),
        )

    def growth(self, semantics: str) -> list:
        from repro.analysis.evolution import growth_curve_from_arrivals

        return self._once(
            ("growth", semantics),
            lambda: [
                [t, r] for t, r in
                growth_curve_from_arrivals(self.matrix(semantics)[1], START, END)
            ],
        )

    def classify(self) -> dict:
        from repro.analysis.classes import classify
        from repro.core.engine import TemporalEngine

        def compute():
            report = classify(self.graph, START, END, engine=TemporalEngine(self.graph))
            return {
                "classes": sorted(report.classes),
                "interval_connectivity": report.interval_connectivity,
            }

        return self._once("classify", compute)


def _sample(records: list, size: int | None, rng: random.Random) -> list:
    if size is None or size >= len(records):
        return records
    return rng.sample(records, size)


def check(
    workload: str, nodes: int, edges: list[list], records: list, seed: int
) -> dict:
    """Check a run's records; returns ``{"failed", "checked",
    "problems"}``.  ``failed`` counts records that errored, timed out,
    had the wrong shape or disagreed with the oracle; ``problems`` adds
    reference rows that disagreed with the interpretive search (which
    make the run incorrect without blaming one request)."""
    policy = POLICIES[workload]
    rng = random.Random(f"{seed}/check")
    failed = {id(r) for r in records if not r.ok or not shape_ok(r.op, r.result)}
    problems: list[str] = [
        f"request {r.op} -> {r.error or r.result!r:.120}"
        for r in records if id(r) in failed
    ]
    good = [r for r in records if id(r) not in failed]
    mutations = [r.op for r in good if r.op["op"] not in QUERIES]
    by_kind = defaultdict(list)
    for record in good:
        by_kind[record.op["op"]].append(record)

    points = by_kind["reach"] + by_kind["arrival"]
    if policy["points"] == "reference":
        checked_points, interpretive_points = points, []
    else:
        checked_points = []
        interpretive_points = _sample(by_kind["arrival"], policy["points"], rng)
    growth = _sample(by_kind["growth"], policy["growth"], rng)
    classify_versions = sorted({r.versions for r in by_kind["classify"]})
    classify_versions = set(_sample(classify_versions, policy["classify"], rng))
    classify = [r for r in by_kind["classify"] if r.versions in classify_versions]

    plan: dict[int, list] = defaultdict(list)
    for record in checked_points + interpretive_points + growth + classify:
        # A write that failed was sent but never applied.
        last = min(record.versions[1], len(mutations))
        for version in range(record.versions[0], last + 1):
            plan[version].append(record)
    rows = policy["rows"]
    if rows:
        plan.setdefault(0, [])

    shadow = Shadow(nodes, edges, mutations)
    interpretive = {id(r) for r in interpretive_points}
    matched: set[int] = set()
    for version in sorted(plan):
        shadow.advance(version)
        if version == 0 and rows:
            problems += _check_rows(shadow, nodes, rows, rng)
        for record in plan[version]:
            if id(record) in matched:
                continue
            op = record.op
            if op["op"] == "classify":
                expected = shadow.classify()
            elif op["op"] == "growth":
                expected = shadow.growth(op["semantics"])
            elif id(record) in interpretive:
                expected = shadow.interpretive(op["source"], op["semantics"]).get(op["target"])
                if op["op"] == "reach":
                    expected = expected is not None
            else:
                expected = shadow.point(op)
            if record.result == expected:
                matched.add(id(record))
    for record in checked_points + interpretive_points + growth + classify:
        if id(record) not in matched:
            failed.add(id(record))
            problems.append(f"wrong answer to {record.op}: {record.result!r:.120}")
    return {
        "failed": len(failed),
        "checked": len(checked_points + interpretive_points + growth + classify),
        "problems": problems,
    }


def _check_rows(
    shadow: Shadow, nodes: int, rows: tuple[str, ...], rng: random.Random
) -> list[str]:
    """Compare sampled reference-matrix rows, one per entry of ``rows``
    (a semantics), with the interpretive search."""
    from repro.core.engine import UNREACHED

    problems = []
    for source, semantics in zip(rng.sample(range(nodes), len(rows)), rows):
        index, matrix = shadow.matrix(semantics)
        truth = shadow.interpretive(source, semantics)
        row = matrix[index[source]]
        for target, j in index.items():
            expected = truth.get(target, UNREACHED)
            if int(row[j]) != expected:
                problems.append(
                    f"reference row {source} ({semantics}) disagrees with the "
                    f"interpretive search at {target}: {int(row[j])} != {expected}"
                )
                break
    return problems
