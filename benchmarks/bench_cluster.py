"""E12 — the distributed arrival sweep over the wire.

Times ``TemporalEngine.arrival_matrix`` on a ~400-node periodic TVG
serially and distributed across 2 **real worker processes** (spawned
via ``python -m repro worker``, talked to over loopback TCP by the
:class:`~repro.service.cluster.ClusterExecutor`), under both WAIT and
NO_WAIT.  Three claims are checked:

* **exactness** — the distributed matrix equals the serial one element
  for element (asserted unconditionally, every run);
* **fault-tolerant exactness** — with one dead worker address in the
  fleet the failed blocks are re-swept locally and the matrix is STILL
  identical (also asserted unconditionally — the fallback is the
  product, not a best-effort);
* **speedup** — with 2 workers on a host with >= 2 usable cores the
  sweep is at least 1.2x faster than serial despite paying JSON + TCP
  for the plan and the sub-matrices.  The speedup *gate* only applies
  where it can physically hold: below 2 cores the numbers are still
  measured and recorded, but the assertion self-skips (sandboxes often
  pin 1 CPU);
* **sticky plans** — repeated sweeps of one ``(version, window,
  semantics)`` ship the full plan to each worker at most once
  (fingerprint-only jobs after), cutting bytes-on-wire by at least 5x
  against per-job plan shipping.  Asserted unconditionally — it is a
  protocol property, not a host-speed property.

Emits ``BENCH_cluster.json`` next to this file so CI can track the
wire overhead, the recovery counters, and the sticky-plan byte counts.

Run standalone (``python benchmarks/bench_cluster.py``) or through
pytest (``pytest benchmarks/bench_cluster.py``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

RESULT_FILE = Path(__file__).parent / "BENCH_cluster.json"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

NODES = 400
PERIOD = 8
DENSITY = 0.008
SEED = 7
HORIZON = 32
WORKERS = 2
REQUIRED_SPEEDUP = 1.2
REQUIRED_CPUS = 2
REPEAT_SWEEPS = 5
REQUIRED_WIRE_REDUCTION = 5.0

_PORT_PATTERN = re.compile(r"worker listening on \('[^']+', (\d+)\)")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def spawn_workers(count: int) -> list[tuple[subprocess.Popen, str]]:
    """``count`` real ``repro worker`` processes on free loopback ports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    workers: list[tuple[subprocess.Popen, str]] = []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--port", "0"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            line = proc.stdout.readline()
            match = _PORT_PATTERN.search(line)
            if not match:
                raise RuntimeError(f"worker did not report a port: {line!r}")
            workers.append((proc, f"127.0.0.1:{int(match.group(1))}"))
    except Exception:
        stop_workers(workers)
        raise
    return workers


def stop_workers(workers) -> None:
    for proc, _address in workers:
        proc.terminate()
    for proc, _address in workers:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover — stuck worker
            proc.kill()
            proc.wait()


def run_benchmark() -> dict:
    import numpy as np

    from bench_common import gate_info, host_cpus
    from repro.core.engine import TemporalEngine
    from repro.core.generators import periodic_random_tvg
    from repro.core.semantics import NO_WAIT, WAIT
    from repro.service.cluster import ClusterExecutor

    graph = periodic_random_tvg(
        NODES, period=PERIOD, density=DENSITY, labels="ab", seed=SEED
    )
    engine = TemporalEngine(graph)
    # Compile outside the timed sections: both paths share the index
    # (the distributed one also lowers its plan from it).
    _, compile_seconds = _timed(lambda: engine.index_for(0, HORIZON))

    def sweep(executor, semantics):
        engine.executor = executor
        return engine.arrival_matrix(0, semantics, horizon=HORIZON)

    results = {
        "graph": {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "period": PERIOD,
            "density": DENSITY,
            "horizon": HORIZON,
            "seed": SEED,
        },
        "compile_seconds": compile_seconds,
        "workers": WORKERS,
        "cpus": host_cpus(),
        "kernel": "bitset",
        "gate": gate_info(REQUIRED_SPEEDUP, REQUIRED_CPUS),
        "cases": {},
    }

    workers = spawn_workers(WORKERS)
    try:
        cluster = ClusterExecutor([address for _proc, address in workers])
        for label, semantics in (("wait", WAIT), ("nowait", NO_WAIT)):
            (_nodes, serial), serial_seconds = _timed(
                lambda s=semantics: sweep(None, s)
            )
            (_same, distributed), cluster_seconds = _timed(
                lambda s=semantics: sweep(cluster, s)
            )
            assert np.array_equal(serial, distributed), (
                f"distributed sweep diverged from serial under {label}"
            )
            results["cases"][f"arrival_matrix_{label}"] = {
                "serial_seconds": serial_seconds,
                "cluster_seconds": cluster_seconds,
                "speedup": serial_seconds / cluster_seconds,
            }
        assert cluster.jobs_recovered == 0, (
            "healthy workers should not have needed local re-runs"
        )

        # Fault tolerance: one live worker plus one dead address — the
        # dead worker's blocks fall back locally, the answer must not
        # change by a single element.
        faulty_fleet = ClusterExecutor([workers[0][1], "127.0.0.1:1"], timeout=5.0)
        (_also, recovered), recovered_seconds = _timed(
            lambda: sweep(faulty_fleet, WAIT)
        )
        _ignored, serial_wait = sweep(None, WAIT)
        assert np.array_equal(recovered, serial_wait), (
            "the dead-worker fallback changed the answer"
        )
        assert faulty_fleet.jobs_recovered >= 1, (
            "the dead worker's block was never re-run locally"
        )
        results["cases"]["arrival_matrix_wait_one_dead_worker"] = {
            "cluster_seconds": recovered_seconds,
            "jobs_shipped": faulty_fleet.jobs_shipped,
            "jobs_recovered": faulty_fleet.jobs_recovered,
        }

        # Sticky plans: a fresh executor sweeping the same (version,
        # window, semantics) repeatedly ships the plan to each
        # worker at most once — every later job is fingerprint-only.
        from repro.core.parallel import build_sweep_plan
        from repro.service.wire import plan_to_spec

        _lowered, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
        plan_frame_bytes = len(json.dumps(plan_to_spec(plan))) + 1
        sticky = ClusterExecutor([address for _proc, address in workers])
        sticky_seconds = 0.0
        for _ in range(REPEAT_SWEEPS):
            (_n, repeated), one_sweep = _timed(lambda: sweep(sticky, WAIT))
            sticky_seconds += one_sweep
            assert np.array_equal(repeated, serial_wait), (
                "a sticky-cached sweep diverged from serial"
            )
        assert sticky.plans_shipped <= WORKERS, (
            f"plan shipped {sticky.plans_shipped} times across "
            f"{REPEAT_SWEEPS} sweeps — more than once per worker"
        )
        assert sticky.plan_misses == 0 and sticky.jobs_recovered == 0
        # The baseline this executor replaced: every block job carries
        # the full plan frame.
        naive_bytes = sticky.jobs_shipped * plan_frame_bytes
        wire_reduction = naive_bytes / sticky.bytes_sent
        assert wire_reduction >= REQUIRED_WIRE_REDUCTION, (
            f"sticky plans cut wire bytes only {wire_reduction:.1f}x vs "
            f"per-job shipping (floor {REQUIRED_WIRE_REDUCTION}x)"
        )
        results["cases"]["sticky_plan_wire"] = {
            "repeat_sweeps": REPEAT_SWEEPS,
            "cluster_seconds": sticky_seconds,
            "jobs_shipped": sticky.jobs_shipped,
            "plans_shipped": sticky.plans_shipped,
            "plan_frame_bytes": plan_frame_bytes,
            "bytes_sent": sticky.bytes_sent,
            "bytes_received": sticky.bytes_received,
            "naive_plan_bytes": naive_bytes,
            "wire_reduction": wire_reduction,
        }
    finally:
        stop_workers(workers)
    return results


def emit(results: dict) -> None:
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\n## E12  Distributed arrival sweep -> {RESULT_FILE.name}")
    for case, row in results["cases"].items():
        if "speedup" in row:
            print(
                f"{case:38s} serial {row['serial_seconds'] * 1e3:9.1f} ms"
                f"   cluster({results['workers']}) {row['cluster_seconds'] * 1e3:8.1f} ms"
                f"   speedup {row['speedup']:6.2f}x"
            )
        elif "wire_reduction" in row:
            print(
                f"{case:38s} {row['repeat_sweeps']} sweeps"
                f"   plan x{row['plans_shipped']}"
                f"   {row['bytes_sent'] / 1e6:6.2f} MB sent"
                f"   vs naive {row['naive_plan_bytes'] / 1e6:6.2f} MB"
                f"   ({row['wire_reduction']:.1f}x less)"
            )
        else:
            print(
                f"{case:38s} cluster {row['cluster_seconds'] * 1e3:8.1f} ms"
                f"   recovered {row['jobs_recovered']}/{row['jobs_shipped']} jobs"
            )


def _gate_applies() -> bool:
    return (os.cpu_count() or 1) >= REQUIRED_CPUS


def _check_speedups(results: dict) -> None:
    for case, row in results["cases"].items():
        if "speedup" in row:
            assert row["speedup"] >= REQUIRED_SPEEDUP, (
                f"{case}: speedup {row['speedup']:.2f}x below the "
                f"{REQUIRED_SPEEDUP}x floor at {WORKERS} workers"
            )


def test_cluster_speedup():
    """The acceptance gate: identical matrices always (healthy fleet AND
    one dead worker); >= 1.2x at 2 workers wherever 2 cores exist."""
    import pytest

    try:
        results = run_benchmark()
    except (OSError, RuntimeError) as exc:  # pragma: no cover — sandbox
        pytest.skip(f"cannot spawn loopback workers here: {exc}")
    emit(results)
    if not _gate_applies():
        pytest.skip(
            f"speedup gate needs >= {REQUIRED_CPUS} usable cores "
            f"(host has {os.cpu_count()}); exactness was still asserted"
        )
    _check_speedups(results)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC_DIR))
    results = run_benchmark()
    emit(results)
    if _gate_applies():
        _check_speedups(results)
    else:
        print(
            f"(speedup gate skipped: host has {os.cpu_count()} CPUs, "
            f"needs >= {REQUIRED_CPUS}; exactness asserted)"
        )
