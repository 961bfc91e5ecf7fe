"""E11 — the query service: cache-hit latency and mutation correctness.

Two claims gate this suite:

* **throughput** — on a 120-node periodic TVG, a query answered from
  the service's versioned cache is at least 50x faster than the cold
  recompute that populated it (for both the growth curve and point
  reachability, whose sweep is shared across pairs);
* **correctness under churn** — replaying a mixed trace with >= 100
  interleaved mutations, every query answer equals a fresh
  interpretive-path computation on a shadow copy of the graph that
  mirrors the mutations independently (the benchmark-scale version of
  the stateful property harness).

Emits ``BENCH_service.json`` next to this file so CI can track the
cache speedups over time.

Run standalone (``python benchmarks/bench_service.py``) or through
pytest (``pytest benchmarks/bench_service.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

RESULT_FILE = Path(__file__).parent / "BENCH_service.json"

NODES = 120
PERIOD = 8
DENSITY = 0.03
SEED = 13
HORIZON = 24
REQUIRED_SPEEDUP = 50.0
REQUIRED_CPUS = 1  # cache hits against cold sweeps, both single-threaded

CHURN_OPERATIONS = 300
CHURN_MUTATION_EVERY = 3  # 100 mutations in 300 operations
CHURN_SEED = 5


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_throughput() -> dict:
    from bench_common import gate_info, host_cpus
    from repro.core.generators import periodic_random_tvg
    from repro.core.semantics import WAIT
    from repro.service.service import TVGService

    graph = periodic_random_tvg(
        NODES, period=PERIOD, density=DENSITY, labels="ab", seed=SEED
    )
    cases = {}

    # Growth curve: the first call computes the sweep, repeats are hits.
    # Each case gets a fresh service so its cold timing really is cold.
    service = TVGService(graph, window=(0, HORIZON))
    first, cold = _timed(lambda: service.growth(0, HORIZON, WAIT))
    repeats = 100
    begun = time.perf_counter()
    for _ in range(repeats):
        assert service.growth(0, HORIZON, WAIT) == first
    hit = (time.perf_counter() - begun) / repeats
    cases["growth"] = {
        "cold_seconds": cold,
        "hit_seconds": hit,
        "speedup": cold / hit,
    }

    # Point reachability: one cold sweep serves every later pair lookup.
    service = TVGService(graph, window=(0, HORIZON))
    nodes = list(graph.nodes)
    _, cold = _timed(lambda: service.reach(nodes[0], nodes[1], 0, HORIZON, WAIT))
    begun = time.perf_counter()
    lookups = 0
    for source in nodes[:20]:
        for target in nodes[-5:]:
            service.reach(source, target, 0, HORIZON, WAIT)
            lookups += 1
    hit = (time.perf_counter() - begun) / lookups
    cases["reach"] = {
        "cold_seconds": cold,
        "hit_seconds": hit,
        "speedup": cold / hit,
    }

    # The families share the sweep: after one growth query, the first
    # reach on the same (window, semantics) is already warm.
    service = TVGService(graph, window=(0, HORIZON))
    service.growth(0, HORIZON, WAIT)
    _, shared = _timed(lambda: service.reach(nodes[0], nodes[1], 0, HORIZON, WAIT))
    assert shared < cases["reach"]["cold_seconds"] / REQUIRED_SPEEDUP, (
        "a reach after growth must reuse the growth query's sweep"
    )

    return {
        "shared_sweep_reach_seconds": shared,
        "graph": {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "period": PERIOD,
            "density": DENSITY,
            "horizon": HORIZON,
            "seed": SEED,
        },
        "cpus": host_cpus(),
        "kernel": "bitset",
        "gate": gate_info(REQUIRED_SPEEDUP, REQUIRED_CPUS),
        "cases": cases,
        "cache": service.stats()["cache"],
    }


def run_churn() -> dict:
    """Replay a mutation-heavy trace, checking every answer against the
    interpretive oracle on an independently mutated shadow graph."""
    from repro.analysis.classes import classify
    from repro.analysis.evolution import reachability_growth
    from repro.core.semantics import parse_semantics
    from repro.core.serialize import decode_presence
    from repro.core.traversal import earliest_arrivals
    from repro.dynamics.workloads import generate_service_trace, make_workload
    from repro.service.server import handle_request
    from repro.service.service import TVGService

    workload = make_workload("flaky-backbone")
    shadow = make_workload("flaky-backbone").graph
    service = TVGService(workload.graph)
    trace = generate_service_trace(
        workload,
        operations=CHURN_OPERATIONS,
        mutation_every=CHURN_MUTATION_EVERY,
        seed=CHURN_SEED,
    )

    mutations = checked = 0
    begun = time.perf_counter()
    for op in trace:
        response = handle_request(service, dict(op))
        assert response["ok"], f"replay failed on {op}: {response}"
        kind = op["op"]
        if kind == "add_edge":
            shadow.add_edge(
                op["source"], op["target"], key=op["key"],
                presence=decode_presence(op["presence"]),
            )
            mutations += 1
        elif kind == "remove_edge":
            shadow.remove_edge(op["key"])
            mutations += 1
        elif kind == "set_presence":
            shadow.set_presence(op["key"], decode_presence(op["presence"]))
            mutations += 1
        elif kind in ("reach", "arrival"):
            semantics = parse_semantics(op["semantics"])
            expected = earliest_arrivals(
                shadow, op["source"], op["start"], semantics,
                horizon=op["horizon"],
            ).get(op["target"])
            want = expected is not None if kind == "reach" else expected
            assert response["result"] == want, f"divergence on {op}"
            checked += 1
        elif kind == "growth":
            semantics = parse_semantics(op["semantics"])
            expected = reachability_growth(
                shadow, op["start"], op["end"], semantics
            )
            assert response["result"] == [[t, r] for t, r in expected]
            checked += 1
        else:  # classify
            report = classify(shadow, op["start"], op["end"])
            assert response["result"] == {
                "classes": sorted(report.classes),
                "interval_connectivity": report.interval_connectivity,
            }
            checked += 1
    elapsed = time.perf_counter() - begun

    assert mutations >= 100, f"churn too light: {mutations} mutations"
    return {
        "operations": len(trace),
        "mutations": mutations,
        "queries_checked": checked,
        "elapsed_seconds": elapsed,
        "ops_per_second": len(trace) / elapsed,
        "final_version": service.graph.version,
        "cache": service.stats()["cache"],
    }


def run_benchmark() -> dict:
    results = run_throughput()
    results["churn"] = run_churn()
    return results


def emit(results: dict) -> None:
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\n## E11  Query service cache + churn -> {RESULT_FILE.name}")
    for case, row in results["cases"].items():
        print(
            f"{case:8s} cold {row['cold_seconds'] * 1e3:8.2f} ms"
            f"   hit {row['hit_seconds'] * 1e6:8.1f} us"
            f"   speedup {row['speedup']:9.0f}x"
        )
    churn = results["churn"]
    print(
        f"churn    {churn['operations']} ops ({churn['mutations']} mutations, "
        f"{churn['queries_checked']} answers checked) at "
        f"{churn['ops_per_second']:.0f} ops/s — all equal to the oracle"
    )


def test_service_cache_speedup():
    """The acceptance gate: >= 50x cache-hit speedup, correctness
    preserved across >= 100 interleaved mutations."""
    results = run_benchmark()
    emit(results)
    for case, row in results["cases"].items():
        assert row["speedup"] >= REQUIRED_SPEEDUP, (
            f"{case}: cache-hit speedup {row['speedup']:.1f}x below the "
            f"{REQUIRED_SPEEDUP}x floor"
        )
    assert results["churn"]["mutations"] >= 100


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    test_service_cache_speedup()
