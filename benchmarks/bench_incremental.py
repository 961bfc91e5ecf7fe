"""E14 — incremental cone re-sweep vs from-scratch under mutation churn.

A clustered periodic TVG (disjoint communities, no inter-cluster
edges), with ~1% of the edges going dirty between queries — all of the
churn concentrated in one community, the shape incremental maintenance
is for.  The dirty cone (every source row that could reach a dirty
edge's tail) then stays inside the churned community, so the
incremental path re-sweeps a small block of rows and merges it over
the cached matrix while the from-scratch path re-sweeps everything.

Two claims are checked:

* **exactness** — the merged incremental matrix equals the
  from-scratch matrix element for element, under WAIT and NO_WAIT
  (asserted unconditionally, every run), and the cone really stayed
  inside the churned community;
* **speedup** — the incremental path is at least 5x faster than the
  full re-sweep on the WAIT case.  Like the kernel gate this is a
  single-core algorithmic claim (fewer rows swept, same kernel), so it
  applies on every host, 1-CPU sandboxes included.

Both paths run on the same engine and the same kernel; plans
compile once and best-of-``REPEATS`` timing amortizes warmup, so the
timings isolate swept-row volume.  Emits ``BENCH_incremental.json``
next to this file.

Run standalone (``python benchmarks/bench_incremental.py``) or through
pytest (``pytest benchmarks/bench_incremental.py``).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

RESULT_FILE = Path(__file__).parent / "BENCH_incremental.json"

CLUSTERS = 16
CLUSTER_NODES = 50           # 800 nodes: the churned community is 1/16
PERIOD = 8
DENSITY = 0.06               # per intra-cluster ordered pair
SEED = 7
HORIZON = 32
DIRTY_FRACTION = 0.01        # ~1% of all edges, all inside cluster 0
REQUIRED_SPEEDUP = 5.0
REQUIRED_CPUS = 1            # single-core claim: the gate always applies
REPEATS = 5


def _best_of(fn, repeats: int = REPEATS):
    import time

    best_seconds = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return result, best_seconds


def clustered_tvg():
    """Disjoint periodic communities on one graph (no cross edges)."""
    from repro.core.presence import periodic_presence
    from repro.core.tvg import TimeVaryingGraph

    rng = random.Random(SEED)
    graph = TimeVaryingGraph(period=PERIOD, name="clustered")
    graph.add_nodes(range(CLUSTERS * CLUSTER_NODES))
    for c in range(CLUSTERS):
        base = c * CLUSTER_NODES
        for u in range(base, base + CLUSTER_NODES):
            for v in range(base, base + CLUSTER_NODES):
                if u == v or rng.random() >= DENSITY:
                    continue
                residues = [rng.randrange(PERIOD)]
                graph.add_edge(
                    u, v, presence=periodic_presence(residues, PERIOD),
                    key=f"c{c}.{u}.{v}",
                )
    return graph


def churn(graph, rng):
    """Swap the schedule of ~DIRTY_FRACTION of all edges, every one of
    them inside cluster 0 (concentrated churn)."""
    from repro.core.presence import periodic_presence

    cluster0 = [e.key for e in graph.edges if e.key.startswith("c0.")]
    dirty = max(1, int(graph.edge_count * DIRTY_FRACTION))
    keys = rng.sample(cluster0, min(dirty, len(cluster0)))
    for key in keys:
        graph.set_presence(
            key, periodic_presence([rng.randrange(PERIOD)], PERIOD)
        )
    return keys


def run_benchmark() -> dict:
    import numpy as np

    from bench_common import gate_info, host_cpus
    from repro.core.engine import TemporalEngine
    from repro.core.semantics import NO_WAIT, WAIT

    graph = clustered_tvg()
    engine = TemporalEngine(graph)
    rng = random.Random(SEED + 1)

    results = {
        "graph": {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "clusters": CLUSTERS,
            "period": PERIOD,
            "density": DENSITY,
            "horizon": HORIZON,
            "seed": SEED,
        },
        "cpus": host_cpus(),
        "kernel": "bitset",
        "repeats": REPEATS,
        "gate": gate_info(REQUIRED_SPEEDUP, REQUIRED_CPUS),
        "cases": {},
    }

    for label, semantics in (("wait", WAIT), ("nowait", NO_WAIT)):
        nodes0, m0 = engine.arrival_matrix(0, semantics, horizon=HORIZON)
        version0 = graph.version
        dirty_keys = churn(graph, rng)
        deltas = graph.deltas_since(version0)
        assert deltas is not None and len(deltas) == len(dirty_keys)

        scratch, full_seconds = _best_of(
            lambda: engine.arrival_matrix(0, semantics, horizon=HORIZON)[1]
        )
        incremental, incremental_seconds = _best_of(
            lambda: engine.arrival_matrix_incremental(
                0, (nodes0, m0), deltas, semantics, HORIZON
            )
        )
        assert incremental is not None, "presence-only chain must be patchable"
        _nodes, merged, reswept = incremental
        assert np.array_equal(merged, scratch), (
            f"incremental matrix diverged from scratch under {label}"
        )
        assert 0 < reswept <= CLUSTER_NODES, (
            f"cone escaped the churned community: {reswept} rows re-swept"
        )
        results["cases"][f"resweep_{label}"] = {
            "dirty_edges": len(dirty_keys),
            "dirty_fraction": len(dirty_keys) / graph.edge_count,
            "rows_reswept": int(reswept),
            "rows_total": graph.node_count,
            "full_seconds": full_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": full_seconds / incremental_seconds,
        }
    return results


def emit(results: dict) -> None:
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\n## E14  Incremental re-sweep under churn -> {RESULT_FILE.name}")
    for case, row in results["cases"].items():
        print(
            f"{case:18s} rows {row['rows_reswept']:3d}/{row['rows_total']}"
            f"   full {row['full_seconds'] * 1e3:8.1f} ms"
            f"   incremental {row['incremental_seconds'] * 1e3:7.1f} ms"
            f"   speedup {row['speedup']:6.2f}x"
        )


def _check_speedup(results: dict) -> None:
    # Only the WAIT case carries the 5x floor (the acceptance claim);
    # NO_WAIT is recorded for tracking — its rows finish so fast that
    # fixed per-sweep overhead dominates, so it gates at nothing here.
    row = results["cases"]["resweep_wait"]
    assert row["speedup"] >= REQUIRED_SPEEDUP, (
        f"resweep_wait: incremental speedup {row['speedup']:.2f}x below "
        f"the {REQUIRED_SPEEDUP}x floor over the full re-sweep"
    )


def test_incremental_speedup():
    """The acceptance gate: identical matrices always; >= 5x on WAIT on
    every host (single-core claim, no CPU prerequisite)."""
    results = run_benchmark()
    emit(results)
    _check_speedup(results)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    results = run_benchmark()
    emit(results)
    _check_speedup(results)
