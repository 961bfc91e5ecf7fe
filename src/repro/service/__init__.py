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
protocol (``python -m repro serve``); presences and latencies cross it
as the specs of :mod:`repro.core.serialize`, and ``wire`` defines the
packed sweep plans and offset matrices the cluster ships.  ``cluster``
distributes the arrival sweep itself: ``python -m repro worker`` runs a
long-lived sweep executor and :class:`ClusterExecutor` ships ``(plan,
block)`` jobs to a fleet of them, re-sweeping any failed block locally
so answers are always element-for-element equal to the serial sweep.

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
    "repro.service.server": ("ServiceFrontend", "handle_request", "serve_service"),
    "repro.service.service": ("TVGService",),
    "repro.service.tasks": ("BackgroundTask", "TaskTable"),
    "repro.service.wire": (
        "matrix_from_spec",
        "matrix_to_spec",
        "plan_from_spec",
        "plan_to_spec",
    ),
})
