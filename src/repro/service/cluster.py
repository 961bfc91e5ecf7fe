"""The distributed arrival sweep: sweep workers and their executor.

:class:`~repro.core.parallel.ProcessShards` sweeps contiguous source
blocks of one plain-data :class:`~repro.core.parallel.SweepPlan` in
local *processes*.  This module ships the same plan across *machines*:
a **worker** (``python -m repro worker``) is a long-lived process
speaking the service's JSON-lines protocol whose one real operation is
``sweep`` — plan spec plus a source block in, the block's arrival
offsets out (base64-packed: the plan as int64, the offsets in the
kernel's compact dtype, see :mod:`repro.service.wire`) — and
the :class:`ClusterExecutor` is the parent-side scheduler that splits
the source set into blocks, streams them to the configured workers over
asyncio, and stacks the returned sub-matrices into the full matrix.
It is an engine executor
(``TemporalEngine(graph, executor=ClusterExecutor([...]))``): the
engine lowers the plan, the executor's :meth:`ClusterExecutor.sweep`
runs it.

Three scheduler properties (Cluster v2) keep the wire and the stragglers
honest:

* **sticky plans** — a worker memoizes decoded plans in a bounded LRU
  (:class:`PlanCache`) keyed by the plan's content fingerprint
  (:attr:`~repro.core.parallel.SweepPlan.fingerprint`, computed once
  per plan from its arrays); the executor ships the full base64 plan
  to each worker at most once per plan and sends fingerprint-only
  block jobs after.  A worker that no longer holds the plan
  (restarted, or LRU-evicted) answers a structured *plan-miss*, which
  the executor repairs with exactly one re-ship — a second miss on the
  very connection that received the plan fails the job into the local
  re-sweep.  Stale state can cost a round-trip; it can never change an
  answer.
* **work stealing** — sources are oversplit into more blocks than
  workers (``oversplit``) and fed through one shared queue; a worker
  that finishes early simply pulls the next block, so a straggler
  bounds only its *current* block, not the sweep.
* **elastic membership** — :meth:`ClusterExecutor.set_workers`
  re-resolves the fleet at any time, including mid-sweep: departed
  workers stop pulling blocks after the one in flight, joined workers
  are picked up by the scheduler's next poll and start stealing from
  the same queue.

The correctness contract is absolute, not best-effort: **any** job
failure — a worker that refuses the connection, disconnects mid-frame,
times out, answers with a structured error, or returns a malformed,
mis-shaped or mis-typed frame — is transparently *re-run locally* with
the very :func:`~repro.core.parallel.sweep_block` the worker would have
used, so the stacked matrix is always element-for-element equal to the
serial sweep.  A cluster can therefore lose every worker and still answer;
what degrades is latency, never the answer.  The fault-injecting
differential harness in ``tests/properties/test_property_cluster.py``
kills, hangs, corrupts, plan-evicts, and crashes workers mid-batch —
and churns fleet membership — to prove it.

Workers hold no graph and no *required* state between jobs: the plan
cache is a pure performance memo (black-box presences were already
resolved in the parent through the engine's LazyContactCache when the
plan was built), so any worker can serve any client, and restarting one
costs at most a plan re-ship.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

import numpy as np

from repro.core.parallel import (
    MIN_PARALLEL_NODES,
    SweepPlan,
    partition_sources,
    sweep_block,
)
from repro.core.sweep_kernel import offset_dtype
from repro.errors import PlanMissError, ServiceError
from repro.service.client import ServiceClient
from repro.service.server import guarded_response, handle_json_lines
from repro.service.wire import (
    matrix_from_spec,
    matrix_to_spec,
    plan_from_spec,
    plan_to_spec,
)

#: Per-frame byte budget on worker connections.  Plans and offset
#: matrices are single JSON lines, so the limit must hold the *bigger*
#: of a packed plan and a packed block reply — a block of ``b`` sources
#: over ``n`` nodes packs ``bn`` bytes of uint8 offsets on a short
#: window (up to ``8bn`` on an enormous one), ~4/3 that after base64.
#: 1 GiB keeps the limit a runaway-frame guard, not a graph-size
#: ceiling.
WIRE_LIMIT: int = 2**30

#: Default seconds the executor waits for one block job before re-running
#: the block locally.
DEFAULT_TIMEOUT: float = 30.0

#: Default number of blocks *per worker*: the shared queue holds
#: ``oversplit x workers`` blocks, so a straggling worker strands at
#: most ``1/oversplit`` of its fair share while the others steal the
#: rest.  Higher values smooth stragglers further but pay more per-job
#: round-trips; 4 is a good latency/overhead balance on LAN fleets.
DEFAULT_OVERSPLIT: int = 4

#: Decoded plans a worker memoizes (LRU).  Plans are O(contacts) int64
#: arrays, so a handful bounds worker memory while covering the live
#: query mix of several executors; an eviction costs one plan re-ship.
WORKER_PLAN_CACHE_SIZE: int = 8

#: Seconds between the scheduler's membership polls while a sweep is in
#: flight — the latency bound on a joining worker picking up blocks.
MEMBERSHIP_POLL_SECONDS: float = 0.05


# -- the worker side -----------------------------------------------------------


class PlanCache:
    """A worker's bounded LRU of decoded sweep plans, by fingerprint.

    Maps each plan's :attr:`~repro.core.parallel.SweepPlan.fingerprint`
    — computed by the worker from the arrays it decoded, never taken
    from the sender — to the plan.  Thread-safe: the worker dispatches
    jobs on :func:`asyncio.to_thread`, so concurrent clients hit the
    cache from different threads.

    Repeated block jobs against one cached plan see the same plan
    object, so the lowering the kernel caches on it is paid once per
    plan, not once per job.
    """

    def __init__(self, max_plans: int = WORKER_PLAN_CACHE_SIZE) -> None:
        if max_plans <= 0:
            raise ServiceError(f"max_plans must be positive, got {max_plans}")
        self.max_plans = max_plans
        self._plans: OrderedDict[str, SweepPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, plan: SweepPlan) -> None:
        key = plan.fingerprint
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
            elif len(self._plans) >= self.max_plans:
                self._plans.popitem(last=False)
                self.evictions += 1
            self._plans[key] = plan

    def get(self, key: str) -> SweepPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self.hits += 1
            self._plans.move_to_end(key)
            return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> dict:
        with self._lock:
            return {
                "plans": len(self._plans),
                "max_plans": self.max_plans,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def job_fingerprint(plan: SweepPlan, sources: Sequence[int]) -> str:
    """A short content hash identifying one sweep job: the plan's
    fingerprint plus the source block as little-endian int64 bytes.

    A worker echoes the fingerprint of the job it *actually computed*
    inside its result frame; the executor compares it against the job
    it *shipped*, so a result produced from a stale plan (or the wrong
    block) is detected however well-formed its matrix looks.
    """
    digest = hashlib.sha256(plan.fingerprint.encode("ascii"))
    digest.update(np.asarray(sources, dtype="<i8").tobytes())
    return digest.hexdigest()[:16]


def dispatch_worker(op: str, params: dict, plans: PlanCache | None = None) -> Any:
    """Apply one worker operation; returns the raw (JSON-able) result.

    ``plans`` is the worker's sticky plan cache.  A job may carry the
    full ``plan`` spec (cached under its fingerprint for later jobs) or
    only a ``plan_key`` fingerprint — the latter answers from the cache
    or raises :class:`~repro.errors.PlanMissError`, the structured
    signal the executor repairs with one re-ship.  Without a cache
    (``plans=None`` — direct calls in tests, trace replays) full-plan
    jobs still work and every fingerprint-only job is a miss.
    """
    if op == "sweep":
        spec = params.get("plan")
        key = params.get("plan_key")
        if key is not None and not isinstance(key, str):
            raise ServiceError("sweep plan_key must be a string")
        if spec is not None:
            plan = plan_from_spec(spec)
            if plans is not None:
                plans.put(plan)
        elif key is not None:
            plan = plans.get(key) if plans is not None else None
            if plan is None:
                raise PlanMissError(
                    f"plan {key!r} is not cached on this worker; re-ship it"
                )
        else:
            raise ServiceError("sweep needs a plan spec or a plan_key")
        sources = params.get("sources")
        if not isinstance(sources, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in sources
        ):
            raise ServiceError("sweep sources must be a list of integers")
        if any(s < 0 or s >= plan.n for s in sources):
            raise ServiceError("sweep sources fall outside the plan's node range")
        result = matrix_to_spec(sweep_block(plan, tuple(sources)))
        # Echo the fingerprint of the job actually computed, so the
        # executor can tell this result answers *its* job.
        result["fingerprint"] = job_fingerprint(plan, sources)
        return result
    if op == "stats":
        return {"plan_cache": plans.stats() if plans is not None else None}
    if op == "ping":
        return "pong"
    raise ServiceError(f"unknown operation {op!r}")


def handle_worker_request(request: dict, plans: PlanCache | None = None) -> dict:
    """The worker's dispatcher under the shared error guard — identical
    framing to the query service, so clients and fault handling treat
    both ends of the wire the same."""
    return guarded_response(
        request, lambda op, params: dispatch_worker(op, params, plans)
    )


async def serve_worker(
    host: str = "127.0.0.1", port: int = 0, plan_cache: PlanCache | None = None
) -> asyncio.AbstractServer:
    """Start a sweep worker; ``port=0`` picks a free port.

    Each worker owns one :class:`PlanCache` shared by every connection
    (pass ``plan_cache`` to bound or inspect it).  Returns the asyncio
    server; callers own its lifecycle.
    """
    plans = PlanCache() if plan_cache is None else plan_cache

    async def handler(reader, writer):
        # Dispatch on a thread: sweep_block is CPU-bound and can run for
        # tens of seconds, and a worker is shared by many executors — a
        # slow job must not freeze pings or other clients' jobs.
        await handle_json_lines(
            lambda request: asyncio.to_thread(handle_worker_request, request, plans),
            reader,
            writer,
        )

    return await asyncio.start_server(handler, host, port, limit=WIRE_LIMIT)


async def run_worker(host: str = "127.0.0.1", port: int = 7713) -> None:
    """Serve sweep jobs forever (the ``repro worker`` coroutine)."""
    server = await serve_worker(host, port)
    for sock in server.sockets or ():
        print(f"worker listening on {sock.getsockname()}", flush=True)
    async with server:
        await server.serve_forever()


# -- the executor side ---------------------------------------------------------


def parse_worker_address(worker: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` (or an already-split pair) as ``(host, port)``.

    IPv6 literals must be bracketed in the string form —
    ``"[::1]:7713"`` parses to ``("::1", 7713)`` — because a bare
    ``"::1:7713"`` is ambiguous (is the port ``7713`` of host ``::1``,
    or part of the address?) and is rejected outright.  Brackets are
    stripped either way, so the host handed to
    :func:`asyncio.open_connection` is always the raw literal.  Both
    forms get the same validation — a bad address must fail at
    construction, not as a silent per-sweep fallback later.
    """
    if isinstance(worker, tuple):
        host, port_text = worker
        host = str(host)
        from_string = False
    else:
        host, sep, port_text = worker.rpartition(":")
        if not sep:
            raise ServiceError(
                f"worker address {worker!r} is not of the form host:port"
            )
        from_string = True
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    elif from_string and ":" in host:
        raise ServiceError(
            f"worker address {worker!r} is ambiguous: bracket IPv6 "
            f"literals as [host]:port"
        )
    if not host:
        raise ServiceError(f"worker address {worker!r} has an empty host")
    try:
        port = int(port_text)
    except (TypeError, ValueError):
        raise ServiceError(f"worker address {worker!r} has a non-numeric port") from None
    if not 0 < port < 65536:
        raise ServiceError(f"worker address {worker!r} has an out-of-range port")
    return host, port


def _run_sync(coroutine):
    """Run a coroutine to completion from synchronous code.

    The executor is called from plain synchronous query paths
    (``TemporalEngine.arrival_matrix``) — but sometimes *inside* a
    running event loop, e.g. when ``repro serve --workers`` dispatches a
    cache-miss query from its own asyncio server.  ``asyncio.run`` would
    raise there, so in that case the coroutine gets a private loop on a
    short-lived thread; the caller blocks either way.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coroutine)
    with ThreadPoolExecutor(1, thread_name_prefix="cluster-sweep") as pool:
        return pool.submit(asyncio.run, coroutine).result()


def _is_plan_miss(exc: ServiceError) -> bool:
    """Whether a worker's error frame reports a plan-cache miss (the
    guard formats frames as ``"<ExceptionName>: <detail>"``)."""
    return str(exc).startswith("PlanMissError")


class ClusterExecutor:
    """Run arrival sweeps across remote sweep workers — an engine
    executor (:class:`~repro.core.parallel.SweepExecutor`).

    ``workers`` is a sequence of ``"host:port"`` strings (or pairs);
    ``timeout`` bounds each block job before its local re-run;
    ``min_nodes`` keeps tiny graphs in-process (as
    :class:`~repro.core.parallel.ProcessShards` does — the wire costs
    more than the sweep there), overridable down to 0 for tests;
    ``oversplit`` sets the work-stealing ratio (blocks per worker on
    the shared queue).  An empty fleet sweeps in-process.

    The fleet is *elastic*: :meth:`set_workers` re-resolves membership
    at any time, including while a sweep is in flight — departed
    workers stop pulling blocks, joined ones start stealing from the
    live queue within :data:`MEMBERSHIP_POLL_SECONDS`.

    Between sweeps the executor keeps only counters and its belief
    about which plans each worker holds (bounded per worker; a wrong
    belief costs one plan-miss round-trip, never a wrong answer):
    ``jobs_shipped`` counts block jobs sent to workers,
    ``jobs_recovered`` the ones whose answers had to be re-computed
    locally after a worker failure, ``jobs_timed_out`` the recoveries
    that were specifically timeouts, ``plans_shipped``/``plan_misses``
    the sticky-cache traffic, and ``bytes_sent``/``bytes_received`` the
    JSON framing that actually crossed the wire — exactness never
    depends on any of them.
    """

    def __init__(
        self,
        workers: Sequence[str | tuple[str, int]] | str,
        timeout: float = DEFAULT_TIMEOUT,
        min_nodes: int = MIN_PARALLEL_NODES,
        oversplit: int = DEFAULT_OVERSPLIT,
    ) -> None:
        self.timeout = timeout
        self.min_nodes = min_nodes
        if oversplit < 1:
            raise ServiceError(f"oversplit must be >= 1, got {oversplit}")
        self.oversplit = oversplit
        self.jobs_shipped = 0
        self.jobs_recovered = 0
        self.jobs_timed_out = 0
        self.stale_results_rejected = 0
        self.plans_shipped = 0
        self.plan_misses = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        # worker -> bounded LRU of plan fingerprints we believe it holds
        # (mirrors the worker-side cache size, so beliefs age out at
        # roughly the same rate the worker evicts).
        self._known_plans: dict[tuple[str, int], OrderedDict[str, None]] = {}
        # plan fingerprint -> wire spec, for sweeps in flight only.
        self._specs: dict[str, dict] = {}
        self.workers: list[tuple[str, int]] = []
        self.set_workers(workers)

    # -- membership ------------------------------------------------------------

    def set_workers(
        self, workers: Sequence[str | tuple[str, int]] | str
    ) -> list[tuple[str, int]]:
        """Re-resolve fleet membership (validating every address).

        Safe at any time, from any thread: a sweep in flight sees the
        change at its next scheduling poll — departed workers finish
        the block they hold and stop pulling, joined workers start
        stealing from the same queue.  The local re-sweep safety net is
        unconditional either way, so membership churn can never change
        an answer.  Returns the resolved ``(host, port)`` list.
        """
        if isinstance(workers, str):
            # A bare "host:port" is one worker, not a sequence of
            # characters to parse as addresses.
            workers = [workers]
        resolved = [parse_worker_address(worker) for worker in workers]
        # Replace, don't mutate: in-flight sweeps read the list without
        # a lock, and a single reference assignment is atomic.
        self.workers = resolved
        # Prune plan beliefs to current members: a worker that left and
        # re-joins later may well still hold its plans, but re-shipping
        # once is cheaper than an unbounded belief map.
        self._known_plans = {
            worker: known
            for worker, known in self._known_plans.items()
            if worker in resolved
        }
        return resolved

    # -- the distributed sweep -------------------------------------------------

    def sweep(self, plan: SweepPlan) -> np.ndarray:
        """The full ``(n, n)`` offset matrix of one lowered plan —
        element for element equal to the in-process sweep.

        Sweeps in-process, shipping no job, when the fleet is empty or
        the plan has fewer than ``min_nodes`` sources (empty plans
        included).
        """
        workers = self.workers
        if not workers or plan.n < max(1, self.min_nodes):
            return sweep_block(plan, range(plan.n))
        blocks = partition_sources(plan.n, len(workers), self.oversplit)
        return np.vstack(_run_sync(self._sweep_blocks(plan, blocks)))

    async def _sweep_blocks(
        self, plan: SweepPlan, blocks: list[tuple[int, ...]]
    ) -> list[np.ndarray]:
        """The work-stealing scheduler: one shared block queue, one
        puller per live fleet member, membership re-read every poll.

        Each puller runs at most one job at a time and takes the next
        block the moment it finishes — a straggler strands only the
        block it holds.  If membership drains to nothing mid-sweep the
        remaining blocks are swept locally, so the sweep always
        completes with the exact matrix.
        """
        queue: deque[tuple[int, tuple[int, ...]]] = deque(enumerate(blocks))
        results: dict[int, np.ndarray] = {}
        pullers: dict[tuple[str, int], asyncio.Task] = {}

        async def pull(worker: tuple[str, int]) -> None:
            while worker in self.workers and queue:
                i, block = queue.popleft()
                try:
                    results[i] = await self._run_block(plan, block, worker)
                except BaseException:
                    # _run_block absorbs worker faults; anything that
                    # still escapes (cancellation at teardown) must not
                    # strand the block.
                    queue.appendleft((i, block))
                    raise

        try:
            while len(results) < len(blocks):
                for worker in list(self.workers):
                    task = pullers.get(worker)
                    if (task is None or task.done()) and queue:
                        pullers[worker] = asyncio.create_task(pull(worker))
                running = [t for t in pullers.values() if not t.done()]
                if not running:
                    if queue:
                        # The whole fleet left (or none was ever
                        # reachable to begin pulling): drain locally.
                        i, block = queue.popleft()
                        results[i] = await asyncio.to_thread(
                            sweep_block, plan, block
                        )
                    continue
                await asyncio.wait(
                    running,
                    timeout=MEMBERSHIP_POLL_SECONDS,
                    return_when=asyncio.FIRST_COMPLETED,
                )
        finally:
            for task in pullers.values():
                task.cancel()
            await asyncio.gather(*pullers.values(), return_exceptions=True)
            self._specs.pop(plan.fingerprint, None)
        return [results[i] for i in range(len(blocks))]

    async def _run_block(
        self, plan: SweepPlan, block: tuple[int, ...], worker: tuple[str, int]
    ) -> np.ndarray:
        """One block job: remote if the worker cooperates, local if not."""
        self.jobs_shipped += 1
        try:
            return await asyncio.wait_for(
                self._remote_sweep(plan, block, worker),
                self.timeout,
            )
        except asyncio.TimeoutError:
            # Counted apart from other recoveries: a fleet that mostly
            # times out needs a bigger ``timeout`` (or smaller blocks),
            # which looks nothing like one that refuses connections.
            self.jobs_timed_out += 1
            self.jobs_recovered += 1
            return await asyncio.to_thread(sweep_block, plan, block)
        except (
            ServiceError,
            OSError,          # refused/reset connections
            EOFError,         # disconnects mid-frame (IncompleteReadError)
            ValueError,       # malformed JSON / not-even-close frames
            KeyError,
            TypeError,
            AttributeError,
        ):
            self.jobs_recovered += 1
            # Off the event loop: the local re-sweep is CPU-bound and can
            # outlast the job timeout — run inline it would starve the
            # loop, stall the healthy workers' replies, and cascade their
            # jobs into spurious timeout recoveries.
            return await asyncio.to_thread(sweep_block, plan, block)

    async def _remote_sweep(
        self, plan: SweepPlan, block: tuple[int, ...], worker: tuple[str, int]
    ) -> np.ndarray:
        host, port = worker
        plan_key = plan.fingerprint
        expected = job_fingerprint(plan, block)
        client = await ServiceClient.connect(host, port, limit=WIRE_LIMIT)
        try:
            result = None
            if self._worker_knows(worker, plan_key):
                # Sticky fast path: fingerprint-only job.  A plan-miss
                # (worker restarted, or its LRU evicted the plan) gets
                # exactly one repair: fall through to the full re-ship.
                try:
                    result = await client.request(
                        "sweep", plan_key=plan_key, sources=list(block)
                    )
                except ServiceError as exc:
                    if not _is_plan_miss(exc):
                        raise
                    self.plan_misses += 1
                    self._forget_plan(worker, plan_key)
            if result is None:
                self.plans_shipped += 1
                result = await client.request(
                    "sweep", plan=self._plan_spec(plan), sources=list(block)
                )
            self._remember_plan(worker, plan_key)
        finally:
            self.bytes_sent += client.bytes_sent
            self.bytes_received += client.bytes_received
            await client.close()
        # A well-formed, well-shaped matrix computed from a *different*
        # job (a worker replaying a stale plan) must not be stacked into
        # the answer: the result frame carries the fingerprint of the
        # job the worker actually ran, and a mismatch (or its absence)
        # fails this job into the local re-sweep like any other fault.
        if not isinstance(result, dict) or result.get("fingerprint") != expected:
            self.stale_results_rejected += 1
            raise ServiceError(
                f"worker {host}:{port} answered a different job "
                f"(fingerprint mismatch)"
            )
        matrix = matrix_from_spec(result)
        if matrix.shape != (len(block), plan.n):
            raise ServiceError(
                f"worker {host}:{port} returned shape {matrix.shape}, "
                f"expected {(len(block), plan.n)}"
            )
        if matrix.dtype != offset_dtype(plan):
            raise ServiceError(
                f"worker {host}:{port} returned {matrix.dtype} offsets, "
                f"expected {offset_dtype(plan)}"
            )
        return matrix

    def _plan_spec(self, plan: SweepPlan) -> dict:
        """The plan's wire spec, encoded only when a job ships the full
        plan and at most once per sweep (dropped when the sweep ends)."""
        spec = self._specs.get(plan.fingerprint)
        if spec is None:
            spec = self._specs[plan.fingerprint] = plan_to_spec(plan)
        return spec

    # -- plan beliefs ----------------------------------------------------------

    def _worker_knows(self, worker: tuple[str, int], plan_key: str) -> bool:
        known = self._known_plans.get(worker)
        return known is not None and plan_key in known

    def _remember_plan(self, worker: tuple[str, int], plan_key: str) -> None:
        known = self._known_plans.setdefault(worker, OrderedDict())
        if plan_key in known:
            known.move_to_end(plan_key)
        elif len(known) >= WORKER_PLAN_CACHE_SIZE:
            known.popitem(last=False)
        known[plan_key] = None

    def _forget_plan(self, worker: tuple[str, int], plan_key: str) -> None:
        known = self._known_plans.get(worker)
        if known is not None:
            known.pop(plan_key, None)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-able snapshot of the executor's counters."""
        return {
            "workers": [f"{host}:{port}" for host, port in self.workers],
            "timeout": self.timeout,
            "oversplit": self.oversplit,
            "jobs_shipped": self.jobs_shipped,
            "jobs_recovered": self.jobs_recovered,
            "jobs_timed_out": self.jobs_timed_out,
            "stale_results_rejected": self.stale_results_rejected,
            "plans_shipped": self.plans_shipped,
            "plan_misses": self.plan_misses,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }

    def __repr__(self) -> str:
        return (
            f"ClusterExecutor({len(self.workers)} workers, "
            f"{self.jobs_shipped} shipped, {self.jobs_recovered} recovered)"
        )


class LoopbackWorkerPool:
    """``count`` in-process sweep workers on a background event loop.

    A context manager for tests, benchmarks, and trying the cluster
    path without deploying anything: the workers are real asyncio
    servers on loopback ports, indistinguishable on the wire from
    ``python -m repro worker`` processes — they just share this
    process's GIL, so they prove *plumbing*, not parallel speed-up.
    Each worker owns its own :class:`PlanCache` (pass ``plan_cache_size``
    to squeeze them for eviction tests).

    ::

        with LoopbackWorkerPool(2) as pool:
            engine = TemporalEngine(graph, executor=ClusterExecutor(pool.addresses))
            nodes, matrix = engine.arrival_matrix(0, WAIT, horizon=20)
    """

    def __init__(self, count: int = 2, plan_cache_size: int | None = None) -> None:
        self.count = count
        self.plan_cache_size = plan_cache_size
        self.addresses: list[str] = []
        self.plan_caches: list[PlanCache] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._servers: list[asyncio.AbstractServer] = []

    def __enter__(self) -> "LoopbackWorkerPool":
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="loopback-workers", daemon=True
        )
        self._thread.start()
        started.wait()
        try:
            for _ in range(self.count):
                cache = (
                    PlanCache()
                    if self.plan_cache_size is None
                    else PlanCache(max_plans=self.plan_cache_size)
                )
                server = asyncio.run_coroutine_threadsafe(
                    serve_worker(port=0, plan_cache=cache), self._loop
                ).result(timeout=10)
                self._servers.append(server)
                self.plan_caches.append(cache)
                host, port = server.sockets[0].getsockname()[:2]
                self.addresses.append(f"{host}:{port}")
        except BaseException:
            # A failed bind mid-startup must not leak the loop thread or
            # the servers that did come up — __exit__ will never run.
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is None:
            return

        async def shutdown() -> None:
            for server in self._servers:
                server.close()
                await server.wait_closed()

        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        loop.close()
        self._servers.clear()
        self._loop = None
        self._thread = None
