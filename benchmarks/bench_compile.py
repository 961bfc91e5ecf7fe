"""E14 — the array compile and the radix lowering vs their per-element
references, single core.

Times two representation steps of a cold query against the references
they replaced (kept in ``tests/lowering_helpers.py``):

* **compile** — :class:`~repro.core.index.CompiledTVG` (progressions
  expanded in whole arrays, adjacency by one stable argsort) against
  ``reference_compile`` (one ``presence.support`` call per edge,
  adjacency from ``graph.out_edges``);
* **lowering** — :func:`~repro.core.sweep_kernel._bitset_lowering`
  (LSD radix passes, date axis read off the sorted columns) against
  ``reference_lowering`` (one ``lexsort`` plus ``np.unique``), on the
  WAIT plan over ``[0, 32)``.

Graphs: ``periodic_random_tvg(n, 8, 0.008 * 400 / n, seed=7)`` at
n = 400 and n = 1600 (the ROADMAP baseline graphs), and a 400-node
mixed-kind graph shaped like the ``add_edge`` presences of the
``mixed-open`` workload (periodic with periods 2-6, one interval, or
``always``).  Exactness is asserted unconditionally: every index array
and every lowering field equals the reference's.  The gate — the
compile at n = 1600 at least 5x faster than the reference — is a
single-core claim, so it applies on every host; ``cpus`` is recorded
and ``BENCH_compile.json`` is written before the gate is asserted.

Run standalone (``python benchmarks/bench_compile.py``) or through
pytest (``pytest benchmarks/bench_compile.py``).
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = Path(__file__).parent / "BENCH_compile.json"

PERIOD = 8
SEED = 7
WINDOW = (0, 32)
REQUIRED_SPEEDUP = 5.0
REQUIRED_CPUS = 1  # single-core claim: the gate always applies
GATED_GRAPH = "random-1600"
REPEATS = 5
REFERENCE_REPEATS = 2


def _best_of(fn, repeats: int):
    best = None
    result = None
    for _ in range(repeats):
        began = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - began
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _graphs():
    from repro.core.generators import periodic_random_tvg
    from repro.core.presence import always, interval_presence, periodic_presence

    graphs = {
        f"random-{n}": periodic_random_tvg(n, PERIOD, 0.008 * 400 / n, seed=SEED)
        for n in (400, 1600)
    }
    mixed = periodic_random_tvg(400, PERIOD, 0.008, seed=SEED)
    rng = random.Random(SEED)
    end = WINDOW[1]
    for edge in mixed.edges:
        kind = rng.randrange(3)
        if kind == 0:
            period = rng.randint(2, 6)
            presence = periodic_presence(
                rng.sample(range(period), rng.randint(1, period)), period
            )
        elif kind == 1:
            a = rng.randrange(end - 1)
            presence = interval_presence([(a, rng.randint(a + 1, end))])
        else:
            presence = always()
        mixed.set_presence(edge.key, presence)
    graphs["mixed-400"] = mixed
    return graphs


def run_benchmark() -> dict:
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    import numpy as np
    from lowering_helpers import index_mismatches, reference_compile, reference_lowering

    from bench_common import gate_info, host_cpus
    from repro.core.engine import TemporalEngine
    from repro.core.index import CompiledTVG
    from repro.core.intervals import Interval
    from repro.core.parallel import build_sweep_plan
    from repro.core.semantics import WAIT
    from repro.core.sweep_kernel import _bitset_lowering

    window = Interval(*WINDOW)
    results = {
        "cpus": host_cpus(),
        "window": list(WINDOW),
        "repeats": {"array": REPEATS, "reference": REFERENCE_REPEATS},
        "gate": {**gate_info(REQUIRED_SPEEDUP, REQUIRED_CPUS), "graph": GATED_GRAPH},
        "cases": {},
    }
    for name, graph in _graphs().items():
        index, compile_s = _best_of(lambda: CompiledTVG(graph, window), REPEATS)
        reference, reference_s = _best_of(
            lambda: reference_compile(graph, window), REFERENCE_REPEATS
        )
        mismatches = index_mismatches(index, reference)
        assert not mismatches, f"{name}: array compile differs in {mismatches}"

        _nodes, plan = build_sweep_plan(TemporalEngine(graph), 0, WAIT, WINDOW[1])

        def lower():
            plan.__dict__.pop("_lowering", None)
            return _bitset_lowering(plan)

        lowered, lower_s = _best_of(lower, REPEATS)
        expected, lexsort_s = _best_of(lambda: reference_lowering(plan), REPEATS)
        for field, got, want in zip(lowered._fields, lowered, expected):
            assert np.array_equal(got, want), f"{name}: lowering differs in {field}"
        results["cases"][name] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "contacts": int(len(index.dates)),
            "compile_seconds": compile_s,
            "reference_compile_seconds": reference_s,
            "compile_speedup": reference_s / compile_s,
            "lower_seconds": lower_s,
            "reference_lower_seconds": lexsort_s,
            "lower_speedup": lexsort_s / lower_s,
        }
    return results


def emit(results: dict) -> None:
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\n## E14  Array compile and radix lowering -> {RESULT_FILE.name}")
    for name, row in results["cases"].items():
        print(
            f"{name:12s} compile {row['compile_seconds'] * 1e3:7.1f} ms"
            f" (reference {row['reference_compile_seconds'] * 1e3:7.1f} ms,"
            f" {row['compile_speedup']:5.1f}x)"
            f"   lowering {row['lower_seconds'] * 1e3:6.1f} ms"
            f" (lexsort {row['reference_lower_seconds'] * 1e3:6.1f} ms,"
            f" {row['lower_speedup']:4.1f}x)"
        )


def _check_speedup(results: dict) -> None:
    speedup = results["cases"][GATED_GRAPH]["compile_speedup"]
    assert speedup >= REQUIRED_SPEEDUP, (
        f"{GATED_GRAPH}: array compile {speedup:.2f}x below the "
        f"{REQUIRED_SPEEDUP}x floor over the per-edge reference"
    )


def test_compile_speedup():
    """The acceptance gate: identical arrays always; the compile >= 5x
    over the per-edge reference at n = 1600 on every host."""
    results = run_benchmark()
    emit(results)
    _check_speedup(results)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    results = run_benchmark()
    emit(results)
    _check_speedup(results)
