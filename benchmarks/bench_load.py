"""E12 — traffic-grade load: >= 100 concurrent clients, every answer
oracle-checked, tail latency and fairness gated.

Two phases drive one shared service over real loopback sockets:

* **load** — 108 concurrent asyncio clients each replay a zipf-skewed
  query trace (:func:`~repro.dynamics.workloads.generate_load_trace`:
  a hot head of endpoints, a long cold tail) in rounds, with mutation
  churn applied between rounds and mirrored onto an independent shadow
  graph.  Every single answer must equal a fresh interpretive-path
  computation on the shadow; per-request latencies gate p99, and
  per-client wall times gate cross-client fairness (the event loop must
  not starve anyone).
* **chaos** — a rate-limited, admission-gated server takes hostile
  traffic: request hammering past the limiter, background submits
  (results must equal the synchronous answers), cancels, oversized
  frames, bad JSON, unknown ops, and missing-field requests — every one
  must come back as a structured frame on a *surviving* connection, and
  each client's final ping must succeed (over-limit traffic is refused,
  never dropped).

Emits ``BENCH_load.json`` next to this file.

Run standalone (``python benchmarks/bench_load.py``) or through pytest
(``pytest benchmarks/bench_load.py`` — marked ``slow`` and ``service``,
so the fast tier-1 gate and socketless sandboxes skip it).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.service]

RESULT_FILE = Path(__file__).parent / "BENCH_load.json"

WORKLOAD = "flaky-backbone"
N_CLIENTS = 108
ROUNDS = 3
OPS_PER_ROUND = 4
MUTATIONS_PER_ROUND = 4
ZIPF_SKEW = 1.1

#: Gate: p99 request latency over every load-phase request.  The tail
#: is head-of-line queueing: right after a mutation barrier the round's
#: first queries recompute cold sweeps serially while 107 other clients
#: wait, so p99 sees the whole backlog (that is the phenomenon the
#: background-task op family exists to dodge).  The budget bounds it
#: without assuming a quiet host.
P99_LIMIT_SECONDS = 8.0
#: Gate: slowest client's wall time over fastest client's.  The loop
#: serializes dispatch, so honest scheduling keeps clients comparable.
FAIRNESS_LIMIT = 10.0

CHAOS_CLIENTS = 16
HAMMER_REQUESTS = 30


def _build_service():
    from repro.dynamics.workloads import make_workload
    from repro.service.service import TVGService

    workload = make_workload(WORKLOAD)
    shadow = make_workload(WORKLOAD).graph
    service = TVGService(workload.graph, cache_size=256, max_tasks=32)
    return workload, shadow, service


# -- phase 1: concurrent load, every answer oracle-checked ----------------------


async def run_load_phase() -> dict:
    from repro.analysis.classes import classify
    from repro.analysis.evolution import reachability_growth
    from repro.core.semantics import parse_semantics
    from repro.core.serialize import decode_presence
    from repro.core.traversal import earliest_arrivals
    from repro.dynamics.workloads import generate_load_trace
    from repro.service.client import ServiceClient
    from repro.service.limits import percentile
    from repro.service.server import serve_service

    workload, shadow, service = _build_service()
    server = await serve_service(service, port=0)
    port = server.sockets[0].getsockname()[1]
    clients = [
        await ServiceClient.connect(port=port, timeout=60.0)
        for _ in range(N_CLIENTS)
    ]

    operations = ROUNDS * OPS_PER_ROUND
    traces = [
        generate_load_trace(
            workload, operations=operations, seed=index, skew=ZIPF_SKEW
        )
        for index in range(N_CLIENTS)
    ]
    mutations = generate_load_trace(
        workload,
        operations=ROUNDS * MUTATIONS_PER_ROUND,
        seed=7777,
        mutation_every=1,
    )
    assert all(op["op"] == "add_edge" for op in mutations)

    # The shadow is fixed within a round, so oracle sweeps memoize per
    # round (cleared at each mutation barrier).
    oracle_cache: dict = {}

    def oracle(op: dict):
        kind = op["op"]
        if kind in ("reach", "arrival"):
            key = ("sweep", op["source"], op["start"], op["semantics"])
            if key not in oracle_cache:
                oracle_cache[key] = earliest_arrivals(
                    shadow, op["source"], op["start"],
                    parse_semantics(op["semantics"]), horizon=op["horizon"],
                )
            arrival = oracle_cache[key].get(op["target"])
            return arrival is not None if kind == "reach" else arrival
        if kind == "growth":
            key = ("growth", op["start"], op["end"], op["semantics"])
            if key not in oracle_cache:
                curve = reachability_growth(
                    shadow, op["start"], op["end"],
                    parse_semantics(op["semantics"]),
                )
                oracle_cache[key] = [[t, r] for t, r in curve]
            return oracle_cache[key]
        key = ("classify", op["start"], op["end"])
        if key not in oracle_cache:
            report = classify(shadow, op["start"], op["end"])
            oracle_cache[key] = {
                "classes": sorted(report.classes),
                "interval_connectivity": report.interval_connectivity,
            }
        return oracle_cache[key]

    latencies: list[float] = []
    client_elapsed = [0.0] * N_CLIENTS
    checked = 0

    async def run_slice(index: int, ops: list[dict]) -> None:
        nonlocal checked
        client = clients[index]
        begun = time.perf_counter()
        for op in ops:
            params = {k: v for k, v in op.items() if k != "op"}
            sent = time.perf_counter()
            got = await client.request(op["op"], **params)
            latencies.append(time.perf_counter() - sent)
            expected = oracle(op)
            assert got == expected, (
                f"client {index} diverged from the oracle on {op}: "
                f"{got!r} != {expected!r}"
            )
            checked += 1
        client_elapsed[index] += time.perf_counter() - begun

    begun = time.perf_counter()
    mutations_applied = 0
    for round_index in range(ROUNDS):
        # Mutation barrier: churn goes through the wire serially (one
        # designated connection), mirrored onto the shadow, before the
        # round's concurrent reads fan out.
        window = slice(
            round_index * MUTATIONS_PER_ROUND,
            (round_index + 1) * MUTATIONS_PER_ROUND,
        )
        for op in mutations[window]:
            params = {k: v for k, v in op.items() if k != "op"}
            sent = time.perf_counter()
            await clients[0].request("add_edge", **params)
            latencies.append(time.perf_counter() - sent)
            shadow.add_edge(
                op["source"], op["target"], key=op["key"],
                presence=decode_presence(op["presence"]),
            )
            mutations_applied += 1
        oracle_cache.clear()
        window = slice(
            round_index * OPS_PER_ROUND, (round_index + 1) * OPS_PER_ROUND
        )
        await asyncio.gather(
            *(
                run_slice(index, traces[index][window])
                for index in range(N_CLIENTS)
            )
        )
    elapsed = time.perf_counter() - begun

    stats = await clients[0].stats()
    for client in clients:
        await client.close()
    server.close()
    await server.wait_closed()
    service.close()

    ordered = sorted(latencies)
    p99 = percentile(ordered, 0.99)
    fairness = max(client_elapsed) / min(client_elapsed)
    return {
        "clients": N_CLIENTS,
        "rounds": ROUNDS,
        "requests": len(latencies),
        "answers_checked": checked,
        "mutations_applied": mutations_applied,
        "elapsed_seconds": elapsed,
        "requests_per_second": len(latencies) / elapsed,
        "latency_seconds": {
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": p99,
            "max": ordered[-1],
        },
        "client_wall_seconds": {
            "fastest": min(client_elapsed),
            "slowest": max(client_elapsed),
            "fairness_ratio": fairness,
        },
        "cache": stats["cache"],
        "server_latency": stats["frontend"]["latency"],
        "gates": {
            "p99_seconds": {
                "limit": P99_LIMIT_SECONDS,
                "actual": p99,
                "pass": p99 <= P99_LIMIT_SECONDS,
            },
            "fairness_ratio": {
                "limit": FAIRNESS_LIMIT,
                "actual": fairness,
                "pass": fairness <= FAIRNESS_LIMIT,
            },
            "oracle_equality": {
                "checked": checked,
                "pass": True,  # any divergence asserted above
            },
        },
    }


# -- phase 2: hostile traffic against the hardened front end --------------------


async def run_chaos_phase() -> dict:
    from repro.errors import RateLimitError, ServiceError
    from repro.service.client import ServiceClient
    from repro.service.limits import AdmissionGate, RateLimiter
    from repro.service.server import serve_service

    workload, _shadow, service = _build_service()
    # 20 requests/second per client: tight enough that the
    # hammer loop below must trip it, loose enough that polite traffic
    # (which honours every retry_after hint) always gets through.
    limiter = RateLimiter(20, window=1.0)
    gate = AdmissionGate(64)
    server = await serve_service(
        service, port=0, limit=2048, limiter=limiter, gate=gate
    )
    port = server.sockets[0].getsockname()[1]
    start, end = workload.window

    async def polite(client, op, **params):
        """Request with back-off: honour every retry_after hint."""
        for _ in range(200):
            try:
                return await client.request(op, **params)
            except RateLimitError as exc:
                await asyncio.sleep(max(exc.retry_after or 0.01, 0.01))
        raise AssertionError(f"rate limiter never admitted {op!r}")

    counters = {
        "rate_limited": 0,
        "background_verified": 0,
        "cancelled": 0,
        "structured_errors": 0,
        "final_pings_ok": 0,
    }

    async def chaos_client(index: int) -> None:
        client = await ServiceClient.connect(port=port, timeout=60.0)
        try:
            sync_answer = await polite(
                client, "growth", start=start, end=end, semantics="wait"
            )

            # Background submit: the snapshot answer must equal the
            # synchronous one (no mutations are in flight here).
            submitted = await polite(
                client, "submit",
                request={"op": "growth", "start": start, "end": end,
                         "semantics": "wait"},
            )
            status = await polite(client, "status", task=submitted["task"])
            while status["state"] in ("queued", "running"):
                await asyncio.sleep(0.01)
                status = await polite(client, "status", task=submitted["task"])
            assert status["state"] == "done", status
            result = await polite(client, "result", task=submitted["task"])
            assert result == sync_answer
            counters["background_verified"] += 1

            # Cancel path: terminal state, structured result either way.
            if index % 2 == 0:
                extra = await polite(
                    client, "submit",
                    request={"op": "classify", "start": start, "end": end},
                )
                cancelled = await polite(client, "cancel", task=extra["task"])
                assert cancelled["state"] in ("cancelled", "done")
                counters["cancelled"] += 1

            # Hammer: fire without back-off; rejections must be
            # structured frames with hints, never dropped connections.
            for _ in range(HAMMER_REQUESTS):
                try:
                    await client.request("ping")
                except RateLimitError as exc:
                    assert exc.retry_after is not None
                    assert exc.retry_after >= 0
                    counters["rate_limited"] += 1

            # Malformed traffic: every failure is a structured error on
            # a connection that keeps working.
            try:
                await polite(client, "ping", padding="x" * 4096)
            except ServiceError as exc:
                assert "frame exceeds" in str(exc)
                counters["structured_errors"] += 1
            try:
                await polite(client, "frobnicate")
            except ServiceError as exc:
                assert "unknown operation" in str(exc)
                counters["structured_errors"] += 1
            try:
                await polite(client, "reach", source="a")
            except ServiceError as exc:
                assert "missing required field" in str(exc)
                counters["structured_errors"] += 1

            # The proof the server never dropped us: a final answered
            # ping on the same connection, for every client.
            assert await polite(client, "ping") == "pong"
            counters["final_pings_ok"] += 1
        finally:
            await client.close()

    begun = time.perf_counter()
    await asyncio.gather(*(chaos_client(i) for i in range(CHAOS_CLIENTS)))
    elapsed = time.perf_counter() - begun

    audit_client = await ServiceClient.connect(port=port, timeout=60.0)
    stats = await polite(audit_client, "stats")
    await audit_client.close()
    server.close()
    await server.wait_closed()
    service.close()

    assert counters["final_pings_ok"] == CHAOS_CLIENTS
    assert counters["background_verified"] == CHAOS_CLIENTS
    assert counters["structured_errors"] == CHAOS_CLIENTS * 3
    assert stats["tasks"]["submitted"] >= CHAOS_CLIENTS
    assert stats["frontend"]["rate_limit"]["rejected"] >= counters["rate_limited"]
    return {
        "clients": CHAOS_CLIENTS,
        "elapsed_seconds": elapsed,
        "counters": counters,
        "rate_limit": stats["frontend"]["rate_limit"],
        "admission": stats["frontend"]["admission"],
        "tasks": stats["tasks"],
        "gates": {
            "no_dropped_connections": {
                "final_pings_ok": counters["final_pings_ok"],
                "pass": counters["final_pings_ok"] == CHAOS_CLIENTS,
            },
            "background_answers_match_sync": {
                "verified": counters["background_verified"],
                "pass": counters["background_verified"] == CHAOS_CLIENTS,
            },
            "rate_limiter_exercised": {
                "rejections": counters["rate_limited"],
                "pass": counters["rate_limited"] > 0,
            },
        },
    }


def run_benchmark() -> dict:
    async def both():
        load = await run_load_phase()
        chaos = await run_chaos_phase()
        return {"load": load, "chaos": chaos}

    return asyncio.run(both())


def emit(results: dict) -> None:
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    load, chaos = results["load"], results["chaos"]
    lat = load["latency_seconds"]
    print(f"\n## E12  Concurrent load + chaos -> {RESULT_FILE.name}")
    print(
        f"load     {load['clients']} clients, {load['requests']} requests "
        f"({load['answers_checked']} oracle-checked, "
        f"{load['mutations_applied']} mutations) at "
        f"{load['requests_per_second']:.0f} req/s"
    )
    print(
        f"latency  p50 {lat['p50'] * 1e3:7.2f} ms   p95 {lat['p95'] * 1e3:7.2f} ms"
        f"   p99 {lat['p99'] * 1e3:7.2f} ms"
        f"   fairness {load['client_wall_seconds']['fairness_ratio']:.2f}x"
    )
    print(
        f"chaos    {chaos['clients']} clients: "
        f"{chaos['counters']['rate_limited']} rate-limited, "
        f"{chaos['counters']['background_verified']} background answers "
        f"verified, {chaos['counters']['structured_errors']} structured "
        f"errors, {chaos['counters']['final_pings_ok']} final pings ok"
    )


def test_load_gates():
    """The acceptance gates: oracle equality on every concurrent answer,
    bounded p99 tail latency, cross-client fairness, and no dropped
    connections under hostile traffic."""
    try:
        results = run_benchmark()
    except (PermissionError, OSError) as exc:  # pragma: no cover — sandbox
        pytest.skip(f"loopback sockets unavailable: {exc}")
    emit(results)
    load = results["load"]
    assert load["clients"] >= 100
    p99 = load["gates"]["p99_seconds"]
    assert p99["pass"], (
        f"p99 latency {p99['actual']:.3f}s above the {p99['limit']}s gate"
    )
    fairness = load["gates"]["fairness_ratio"]
    assert fairness["pass"], (
        f"client fairness ratio {fairness['actual']:.2f}x above the "
        f"{fairness['limit']}x gate"
    )
    assert load["answers_checked"] == N_CLIENTS * ROUNDS * OPS_PER_ROUND
    for gate in results["chaos"]["gates"].values():
        assert gate["pass"], gate


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    test_load_gates()
