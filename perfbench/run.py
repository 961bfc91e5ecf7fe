"""The repository benchmark: the query service under four workloads,
two of which (``community-churn`` and ``mixed-open``) BENCHMARK.json
runs; ``cold-churn`` and ``hot-read`` are kept for layer studies.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts the real service
(:mod:`launcher`, ``TVGService`` at its defaults) in its own process,
drives one workload at it from this process, checks the answers
(:mod:`checks`) and prints every metric by name and unit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Set-up is repeated
:data:`SETUPS` times and its median reported; the last server set up
serves the timed phase.

``--trace 1`` reports the per-layer metrics.  It runs the workload
twice with the same seed: once plain, for the client-side figures and
the service's own ``stats`` counters, and once with the layer entry
points wrapped (:mod:`tracing`) for the span figures.  The difference
between the two is ``trace.overhead_frac``.

``--tiny`` shrinks every workload for the self-tests.  See README.md
for the workloads, the metrics and the layer each one measures.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from checks import QUERIES, check, shape_ok  # noqa: E402
from loadgen import (  # noqa: E402
    MUTATIONS,
    Connection,
    ServerProcess,
    closed_loop,
    open_loop,
    pin_load_generator,
)
from tracing import TraceError, percentile, summarize  # noqa: E402
from workloads import (  # noqa: E402
    PointQueries,
    cold_churn_ops,
    community_churn_ops,
    edge_list,
    make_workloads,
    mixed_open_ops,
)

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Upper bound on mutation/query cycles per churn run.  Each miss leaves
#: a 20 MB arrival matrix in the cache (kept for incremental patching),
#: so the cap bounds the server's memory if misses get much faster.
MAX_CYCLES = 64
#: A request answered within this many seconds of its due time meets
#: the latency objective (``slo_fraction``).
SLO_SECONDS = 0.5
#: Environment overrides that would make the service run something
#: other than its defaults.
GUARDED_ENV = ("REPRO_SWEEP_KERNEL", "REPRO_INCREMENTAL")

END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "server_rss_mb": "MiB",
}
PER_LAYER = {
    "throughput_qps": "1/s", "latency_ms.p50": "ms",
    "miss_ms.p50": "ms", "miss_ms.p75": "ms", "write_ms.p50": "ms",
    "hit_ms.p50": "ms", "hit_ms.p99": "ms",
    "latency_ms.p90": "ms", "latency_ms.p99": "ms",
    "slo_fraction": "fraction", "failed_fraction": "fraction",
    "loadgen.lag_ms.p99": "ms", "server.cpu_s": "s",
    "cache.hit_ratio": "fraction", "cache.misses": "count",
    "cache.evictions": "count", "cache.retained": "count",
    "service.sweeps_full": "count", "service.sweeps_incremental": "count",
    "service.rows_reswept": "count",
    "index.compiles": "count", "index.compile_ms": "ms",
    "index.patches": "count", "index.patch_ms": "ms", "index.contacts": "count",
    "plan.builds": "count", "plan.memo_hits": "count", "plan.build_ms": "ms",
    "plan.contacts": "count",
    "kernel.lowerings": "count", "kernel.lower_ms": "ms",
    "kernel.sweeps": "count", "kernel.sweep_ms": "ms", "kernel.rows_swept": "count",
    "engine.incremental_attempts": "count", "engine.incremental_ratio": "fraction",
    "engine.incremental_ms": "ms",
    "derive.growth_ms": "ms", "derive.classify_ms": "ms",
    "derive.classify_sweeps": "count",
    "server.handle_ms.p50": "ms", "server.decode_us.p50": "us",
    "server.encode_us.p50": "us", "server.response_bytes.mean": "bytes",
    "server.queue_ms.p99": "ms",
    "trace.miss_coverage": "fraction", "trace.overhead_frac": "fraction",
}
#: Per workload, the layer spans the traced run must record at least once.
REQUIRED_SPANS = {
    "cold-churn": ("index.compiles",),
    "community-churn": ("index.patches",),
    "mixed-open": ("derive.classify_ms", "index.compiles"),
}


class Phase:
    """What one timed phase left behind."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.records: list = []
        self.stats_before: dict = {}
        self.stats_after: dict = {}
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.report: dict = {}


async def _call(connection: Connection, op: dict, request_id: int):
    record = await connection.call(op, request_id)
    if not record.ok:
        raise RuntimeError(f"{op['op']} failed outside the timed phase: {record.error}")
    return record.result


async def run_phase(workload, graph, inputs, seconds, trace, setups):
    """Set the server up ``setups`` times and drive the timed phase on
    the last one."""
    phase = Phase()
    for attempt in range(setups):
        began = perf_counter()
        server = ServerProcess(graph, trace)
        connections = []
        try:
            for _ in range(workload.connections):
                connections.append(await Connection.open(server.port))
            for i, op in enumerate(workload.warmup):
                await _call(connections[0], op, -1 - i)
            phase.setups.append(perf_counter() - began)
            if attempt == setups - 1:
                await _drive(workload, server, connections, inputs, seconds, phase)
                phase.report = server.command("report")["report"]
        finally:
            for connection in connections:
                await connection.close()
            server.stop()
    return phase


async def _drive(workload, server, connections, inputs, seconds, phase) -> None:
    phase.stats_before = await _call(connections[0], {"op": "stats"}, 0)
    server.command("mark")
    cpu = server.cpu_seconds()
    done = 0

    def on_done(_record) -> None:
        nonlocal done
        done += 1
        if done == workload.rss_after_ops:
            phase.rss_mb = server.peak_rss_mb()

    if workload.loop == "open":
        phase.records = await open_loop(connections, inputs["ops"], workload.rate)
    else:
        next_op = inputs["next_op"]()
        phase.records = closed_loop(
            server.port, workload.connections, workload.window, next_op, seconds,
            on_done, workload.interval,
        )
    phase.cpu_s = server.cpu_seconds() - cpu
    if not phase.rss_mb:
        phase.rss_mb = server.peak_rss_mb()
    phase.stats_after = await _call(connections[0], {"op": "stats"}, 0)


def make_inputs(workload, nodes, edges, seed, seconds) -> dict:
    """The workload's requests: a list for the open loop, a factory of
    ``next_op(connection)`` for closed loops (fresh per phase, so both
    phases of a traced run send the same requests)."""
    if workload.loop == "open":
        count = max(1, int(workload.rate * seconds))
        return {"ops": mixed_open_ops(nodes, seed, count, workload.mutate_every)}
    if workload.name in ("cold-churn", "community-churn"):
        if workload.name == "cold-churn":
            ops = cold_churn_ops(nodes, seed, MAX_CYCLES)
        else:
            ops = community_churn_ops(edges, seed, MAX_CYCLES)

        def factory():
            stream = iter(ops)
            return lambda _connection: next(stream, None)

        return {"next_op": factory}

    def point_factory():
        streams = [
            PointQueries(nodes, seed * 16 + c)
            for c in range(workload.connections)
        ]
        return lambda connection: streams[connection].next()

    return {"next_op": point_factory}


# -- metrics -------------------------------------------------------------------


def _ms(values, q) -> float:
    return percentile(sorted(values), q) * 1e3


def _misses(records, warmup) -> set[int]:
    """Ids of the queries that missed the result cache: the first query
    of each cache entry at each graph version (the warm-up filled the
    start version's entries).  Reach and arrival share one entry per
    semantics."""
    def entry(op):
        if op["op"] in ("reach", "arrival"):
            return ("matrix", op["semantics"])
        return (op["op"], op.get("semantics"))

    seen = {(0, entry(op)) for op in warmup}
    missed = set()
    for record in records:
        if record.op["op"] in QUERIES:
            key = (record.versions[0], entry(record.op))
            if key not in seen:
                seen.add(key)
                missed.add(record.id)
    return missed


def end_to_end(phase: Phase, workload) -> dict[str, float]:
    latencies = [r.latency for r in phase.records if r.op["op"] in QUERIES]
    if workload.latency == "mean":
        latency_ms = statistics.mean(latencies) * 1e3
    else:
        latency_ms = _ms(latencies, 50)
    return {
        "setup_s": statistics.median(phase.setups),
        "latency_ms": latency_ms,
        "server_rss_mb": phase.rss_mb,
    }


def client_side(phase: Phase, warmup, failed: int) -> dict[str, float]:
    records = phase.records
    answered = [r for r in records if r.ok]
    span = max(r.received for r in records) - min(r.due for r in records)
    missed = _misses(records, warmup)
    queries = [r for r in records if r.op["op"] in QUERIES]
    misses = [r.latency for r in queries if r.id in missed]
    hits = [r.latency for r in queries if r.id not in missed]
    writes = [r.latency for r in records if r.op["op"] in MUTATIONS]
    on_time = sum(1 for r in records if r.ok and r.latency <= SLO_SECONDS)
    before, after = phase.stats_before, phase.stats_after

    def grew(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    lookups = grew("cache", "hits") + grew("cache", "misses")
    return {
        "throughput_qps": len(answered) / span,
        "miss_ms.p50": _ms(misses, 50),
        "miss_ms.p75": _ms(misses, 75),
        "write_ms.p50": _ms(writes, 50),
        "hit_ms.p50": _ms(hits, 50),
        "hit_ms.p99": _ms(hits, 99),
        "latency_ms.p50": _ms([r.latency for r in queries], 50),
        "latency_ms.p90": _ms([r.latency for r in queries], 90),
        "latency_ms.p99": _ms([r.latency for r in queries], 99),
        "slo_fraction": on_time / len(records),
        "failed_fraction": failed / len(records),
        "loadgen.lag_ms.p99": _ms([r.sent - r.due for r in records], 99),
        "server.cpu_s": phase.cpu_s,
        "cache.hit_ratio": grew("cache", "hits") / lookups if lookups else 0.0,
        "cache.misses": grew("cache", "misses"),
        "cache.evictions": grew("cache", "evictions"),
        "cache.retained": grew("cache", "retained"),
        "service.sweeps_full": grew("sweeps", "full"),
        "service.sweeps_incremental": grew("sweeps", "incremental"),
        "service.rows_reswept": grew("sweeps", "rows_reswept"),
    }


def layers(plain: Phase, traced: Phase, workload) -> dict[str, float]:
    broken = [r for r in traced.records if not r.ok or not shape_ok(r.op, r.result)]
    if broken:
        raise TraceError(
            f"the traced server answered {len(broken)} of {len(traced.records)} "
            f"requests wrongly, e.g. {broken[0].op} -> {broken[0].error or broken[0].result!r:.120}"
        )
    trace = traced.report["trace"]
    round_trips = {r.id: r.received - r.sent for r in traced.records if r.received}
    metrics = summarize(trace, round_trips)
    metrics["index.contacts"] = plain.report["contacts"]
    plain_ms = end_to_end(plain, workload)["latency_ms"]
    metrics["trace.overhead_frac"] = end_to_end(traced, workload)["latency_ms"] / plain_ms - 1
    if not trace["handles"] or not trace["decode"]:
        raise TraceError("the traced server recorded no requests")
    for required in REQUIRED_SPANS.get(workload.name, ()):
        if not metrics[required]:
            raise TraceError(
                f"{workload.name} recorded no {required}: a wrapped layer entry point "
                "is no longer on the request path"
            )
    return metrics


# -- the run -------------------------------------------------------------------


def environment(workload, seed, phase: Phase) -> dict:
    import numpy

    stats = phase.stats_after
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": stats["kernel"],
        "incremental": stats["incremental"],
        "nodes": stats["graph"]["nodes"],
        "edges_at_start": phase.stats_before["graph"]["edges"],
        "compiled_contacts": phase.report["contacts"],
        "loop": workload.loop,
        "connections": workload.connections,
        "rate": workload.rate or None,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        corrupt: int = 0) -> dict:
    """One benchmark run; returns the result object.  ``corrupt`` flips
    that many answers before checking (the self-tests prove with it
    that the checker can fail)."""
    workload = make_workloads(tiny)[name]
    nodes, edges = edge_list(workload.graph, seed)
    graph = json.dumps({"nodes": nodes, "edges": edges}).encode()
    inputs = make_inputs(workload, nodes, edges, seed, seconds)

    def phase(traced: bool, setups: int) -> Phase:
        return asyncio.run(run_phase(workload, graph, inputs, seconds, traced, setups))

    plain = phase(False, 1 if trace else SETUPS)
    _corrupt(plain.records, corrupt)
    verdict = check(name, nodes, edges, plain.records, seed)
    if trace:
        traced = phase(True, 1)
        metrics = client_side(plain, workload.warmup, verdict["failed"])
        metrics.update(layers(plain, traced, workload))
        units = PER_LAYER
    else:
        metrics, units = end_to_end(plain, workload), END_TO_END
    print("env " + json.dumps(environment(workload, seed, plain)))
    print(f"checked {verdict['checked']} of {len(plain.records)} answers; "
          f"{verdict['failed']} failed")
    for problem in verdict["problems"][:10]:
        print("problem: " + problem)
    for metric, unit in units.items():
        print(f"{metric:32s} {metrics[metric]:14.4f} {unit}")
    return {
        "correct": verdict["failed"] == 0 and not verdict["problems"],
        "attempted": len(plain.records),
        "failed": verdict["failed"],
        "metrics": {m: {"value": float(metrics[m]), "unit": u} for m, u in units.items()},
    }


def _corrupt(records, count: int) -> None:
    """Make the first ``count`` arrival answers wrong but well-shaped."""
    for record in [r for r in records if r.op["op"] == "arrival" and r.ok][:count]:
        record.result = (record.result or 0) + 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(make_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-tests")
    args = parser.parse_args(argv)
    overridden = [name for name in GUARDED_ENV if os.environ.get(name)]
    if overridden:
        print(f"refusing to run: {', '.join(overridden)} set; the benchmark "
              "measures the service's defaults", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"refusing to run: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_load_generator()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except TraceError as exc:
        print(f"trace integrity: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
