"""Long-lived query service over a mutating time-varying graph.

The :class:`TVGService` owns one :class:`~repro.core.tvg.TimeVaryingGraph`
plus one :class:`~repro.core.engine.TemporalEngine` and answers the
paper's query hierarchy — reachability, earliest arrivals, growth
curves, class membership — while accepting structural mutations between
queries.  A :class:`QueryCache` keyed by ``(graph.version, window,
semantics, query)`` makes repeated queries between mutations free;
every mutation bumps the version and invalidates exactly the stale
entries.

``server``/``client`` wrap the service in an asyncio JSON-lines
protocol (``python -m repro serve``), and ``wire`` defines the
JSON-serializable specs for presences, latencies, semantics, sweep
plans, and sub-matrices that cross the socket.  ``cluster`` distributes
the arrival sweep itself: ``python -m repro worker`` runs a long-lived
sweep executor and :class:`ClusterExecutor` ships ``(plan, block)``
jobs to a fleet of them, re-sweeping any failed block locally so
answers are always element-for-element equal to the serial sweep.

``limits`` and ``tasks`` harden the front end for real traffic:
per-client sliding-window rate limiting with an admission gate on
in-flight requests, latency reservoirs behind the ``stats`` op, and a
bounded background-task table (``submit``/``status``/``result``/
``cancel``) that runs expensive cold queries over graph snapshots on a
worker thread instead of stalling the event loop.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.cache": ("MISS", "QueryCache"),
    "repro.service.client": ("ServiceClient",),
    "repro.service.cluster": (
        "ClusterExecutor",
        "LoopbackWorkerPool",
        "handle_worker_request",
        "serve_worker",
    ),
    "repro.service.limits": (
        "AdmissionGate",
        "LatencyRecorder",
        "RateLimiter",
        "percentile",
    ),
    "repro.service.replay": ("replay_service_trace",),
    "repro.service.server": ("ServiceFrontend", "handle_request", "serve_service"),
    "repro.service.service": ("TVGService",),
    "repro.service.tasks": ("BackgroundTask", "TaskTable"),
    "repro.service.wire": (
        "latency_from_spec",
        "latency_to_spec",
        "matrix_from_spec",
        "matrix_to_spec",
        "parse_semantics",
        "plan_from_spec",
        "plan_to_spec",
        "presence_from_spec",
        "presence_to_spec",
    ),
})
