"""E13 — the bitset sweep kernel vs the bignum oracle, single core.

Times :func:`repro.core.sweep_kernel.sweep_block` (the bitset kernel)
against :func:`repro.core.sweep_kernel.sweep_block_bignum` (the oracle)
on the same 400-node periodic TVG ``bench_cluster.py`` uses (so the
numbers compare directly with the wire and sharding benchmarks), under
WAIT and NO_WAIT, full source set, one process, one core.  Two claims
are checked:

* **exactness** — the bitset matrix equals the bignum matrix element
  for element, both semantics (asserted unconditionally, every run);
* **speedup** — the bitset kernel is at least 5x faster than the bignum
  oracle on the WAIT case.  Unlike the sharding/cluster gates this one
  needs no extra cores — it is a single-core algorithmic claim, so it
  applies on every host, 1-CPU sandboxes included.

The plan is lowered once outside the timed sections (both kernels
consume the identical :class:`~repro.core.parallel.SweepPlan`), so the
timings isolate the kernels themselves.  Emits ``BENCH_sweep.json``
next to this file.

Run standalone (``python benchmarks/bench_sweep_kernel.py``) or through
pytest (``pytest benchmarks/bench_sweep_kernel.py``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULT_FILE = Path(__file__).parent / "BENCH_sweep.json"

# The BENCH_cluster graph, verbatim, for cross-benchmark comparability.
NODES = 400
PERIOD = 8
DENSITY = 0.008
SEED = 7
HORIZON = 32
REQUIRED_SPEEDUP = 5.0
REQUIRED_CPUS = 1  # single-core claim: the gate always applies
REPEATS = 3


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


def run_benchmark() -> dict:
    import numpy as np

    from bench_common import gate_info, host_cpus
    from repro.core.engine import TemporalEngine
    from repro.core.generators import periodic_random_tvg
    from repro.core.parallel import build_sweep_plan
    from repro.core.semantics import NO_WAIT, WAIT
    from repro.core.sweep_kernel import sweep_block, sweep_block_bignum

    graph = periodic_random_tvg(
        NODES, period=PERIOD, density=DENSITY, labels="ab", seed=SEED
    )
    engine = TemporalEngine(graph)

    results = {
        "graph": {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "period": PERIOD,
            "density": DENSITY,
            "horizon": HORIZON,
            "seed": SEED,
        },
        "cpus": host_cpus(),
        "kernel": "bitset-vs-bignum",  # this benchmark pins both explicitly
        "repeats": REPEATS,
        "gate": gate_info(REQUIRED_SPEEDUP, REQUIRED_CPUS),
        "cases": {},
    }

    for label, semantics in (("wait", WAIT), ("nowait", NO_WAIT)):
        _nodes, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
        sources = tuple(range(plan.n))
        bignum, bignum_seconds = _best_of(
            lambda: sweep_block_bignum(plan, sources)
        )
        bitset, bitset_seconds = _best_of(lambda: sweep_block(plan, sources))
        assert np.array_equal(bitset, bignum), (
            f"bitset kernel diverged from the bignum oracle under {label}"
        )
        results["cases"][f"sweep_block_{label}"] = {
            "bignum_seconds": bignum_seconds,
            "bitset_seconds": bitset_seconds,
            "speedup": bignum_seconds / bitset_seconds,
        }
    return results


def emit(results: dict) -> None:
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\n## E13  Sweep kernel (bitset vs bignum) -> {RESULT_FILE.name}")
    for case, row in results["cases"].items():
        print(
            f"{case:24s} bignum {row['bignum_seconds'] * 1e3:9.1f} ms"
            f"   bitset {row['bitset_seconds'] * 1e3:8.1f} ms"
            f"   speedup {row['speedup']:6.2f}x"
        )


def _check_speedup(results: dict) -> None:
    # Only the WAIT case carries the 5x floor (the acceptance claim);
    # NO_WAIT is recorded for tracking but has far fewer mask merges to
    # amortize, so it gates at nothing here.
    row = results["cases"]["sweep_block_wait"]
    assert row["speedup"] >= REQUIRED_SPEEDUP, (
        f"sweep_block_wait: bitset speedup {row['speedup']:.2f}x below "
        f"the {REQUIRED_SPEEDUP}x floor over the bignum kernel"
    )


def test_kernel_speedup():
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
