"""Outside-in layer spans for the query service.

:func:`install` wraps each layer's entry point where the running code
looks it up (a module global or a class attribute), so the program
itself is unchanged.  A wrapper records one span per call: its name,
the request it ran under, its parent span, its duration and its self
time (duration minus the spans nested inside it).  Spans stay in
memory until :meth:`Tracer.dump`.

A wrapped name that no longer exists raises :class:`TraceError` at
install time, so a rename fails the traced run instead of silently
recording nothing.
"""

from __future__ import annotations

import functools
import json
import weakref
from time import perf_counter

#: (module, attribute path, span name) of every wrapped layer entry point.
LAYER_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.index", "CompiledTVG.__init__", "index.compile"),
    ("repro.core.index", "CompiledTVG.apply_deltas", "index.patch"),
    ("repro.core.parallel", "build_sweep_plan", "plan.build"),
    ("repro.core.sweep_kernel", "_bitset_lowering", "kernel.lower"),
    ("repro.core.sweep_kernel", "sweep_block", "kernel.sweep"),
    ("repro.core.engine", "TemporalEngine.arrival_matrix_incremental", "engine.incremental"),
    ("repro.service.service", "growth_curve_from_arrivals", "derive.growth"),
    ("repro.service.service", "classify_graph", "derive.classify"),
)

#: Spans whose self time counts as pipeline work of a cache miss.
PIPELINE_SPANS = (
    "index.compile", "index.patch", "plan.build", "kernel.lower",
    "kernel.sweep", "derive.growth", "derive.classify",
)


class TraceError(RuntimeError):
    """A layer entry point is missing, or a layer recorded nothing on
    the workload meant to exercise it."""


class Tracer:
    """Span buffers of one server process (see the module docstring).

    ``handles`` holds one ``[request id, op, seconds, miss]`` row per
    request, ``miss`` being whether any layer span ran under it;
    ``spans`` one ``[request id, name, parent, seconds, self seconds,
    amount, flag]`` row per layer call.  Wire decode and encode times
    are kept as plain duration lists.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._request = None
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (start of the timed phase)."""
        self.handles: list[list] = []
        self.spans: list[list] = []
        self.decode: list[float] = []
        self.encode: list[float] = []
        self.response_bytes = 0

    def dump(self) -> dict:
        return {
            "handles": self.handles,
            "spans": self.spans,
            "decode": self.decode,
            "encode": self.encode,
            "response_bytes": self.response_bytes,
        }

    def layer(self, name: str, original, annotate=None):
        """``original`` wrapped in a span; ``annotate(args, result)``
        gives the span's ``(amount, flag)``."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += seconds
            amount, flag = annotate(args, result) if annotate else (0, True)
            self.spans.append(
                [self._request, name, parent, seconds, seconds - frame[2], amount, flag]
            )
            return result

        return traced

    def handler(self, original):
        """The server's ``handle_request`` wrapped as the request's root
        span; it sets the request id every nested span carries."""

        @functools.wraps(original)
        def traced(service, request):
            is_dict = isinstance(request, dict)
            self._request = request.get("id") if is_dict else None
            spans_before = len(self.spans)
            frame = ["server.handle", perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return original(service, request)
            finally:
                seconds = perf_counter() - frame[1]
                self._stack.pop()
                # Requests are handled one at a time, so the stack is
                # empty again here.
                self.handles.append([
                    self._request, request.get("op") if is_dict else None,
                    seconds, len(self.spans) > spans_before,
                ])
                self._request = None

        return traced


class TimedJson:
    """Stand-in for the server module's ``json``: times ``loads`` (wire
    decode) and ``dumps`` (wire encode) and counts response bytes."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def loads(self, *args, **kwargs):
        began = perf_counter()
        try:
            return json.loads(*args, **kwargs)
        finally:
            self._tracer.decode.append(perf_counter() - began)

    def dumps(self, *args, **kwargs):
        began = perf_counter()
        text = json.dumps(*args, **kwargs)
        self._tracer.encode.append(perf_counter() - began)
        self._tracer.response_bytes += len(text) + 1  # plus the newline
        return text

    def __getattr__(self, name):
        return getattr(json, name)


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` of a dotted path, or a :class:`TraceError`."""
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    try:
        for parent in parents:
            owner = getattr(owner, parent)
        target = getattr(owner, attribute)
    except AttributeError:
        raise TraceError(
            f"layer entry point {module_name}.{path} no longer exists; "
            "update perfbench/tracing.py LAYER_POINTS"
        ) from None
    if not callable(target):
        raise TraceError(f"layer entry point {module_name}.{path} is not callable")
    return owner, attribute, target


def _annotations() -> dict:
    """Per-span ``annotate(args, result) -> (amount, flag)`` hooks.

    A plan returned for the second time came from the engine's plan
    memo; a plan lowered for the second time hit the kernel's lowering
    cache.  Plans are tracked by identity (hashing one walks all its
    contacts)."""
    plans: dict[int, weakref.ref] = {}
    lowered: dict[int, weakref.ref] = {}

    def first_time(seen: dict, obj) -> bool:
        ref = seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        seen[id(obj)] = weakref.ref(obj)
        return True

    def compiled(args, _result):
        index = args[0]
        return sum(len(c) for c in index.contacts if c is not None), True

    def plan(_args, result):
        built = first_time(plans, result[1])
        return (sum(map(len, result[1].contacts)) if built else 0), built

    def lowering(args, _result):
        return 0, first_time(lowered, args[0])

    return {
        "index.compile": compiled,
        "index.patch": lambda _args, result: (0, bool(result)),
        "plan.build": plan,
        "kernel.lower": lowering,
        "kernel.sweep": lambda args, _result: (len(args[1]), True),
        "engine.incremental": lambda _args, result: (
            (result[2], True) if result is not None else (0, False)
        ),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point, the request handler and the
    server's ``json``; raises :class:`TraceError` if any is missing."""
    import repro.service.server as server

    resolved = [_resolve(module, path) for module, path, _name in LAYER_POINTS]
    _owner, _attribute, handle = _resolve("repro.service.server", "handle_request")
    if getattr(server, "json", None) is not json:
        raise TraceError("repro.service.server no longer encodes with the json module")
    annotations = _annotations()
    for (owner, attribute, target), (_m, _p, name) in zip(resolved, LAYER_POINTS):
        setattr(owner, attribute, tracer.layer(name, target, annotations.get(name)))
    server.handle_request = tracer.handler(handle)
    server.json = TimedJson(tracer)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarize(dump: dict, round_trips: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one traced timed phase.

    ``round_trips`` maps each timed request id to its client round trip
    in seconds (sent to answered); requests outside it (warm-up, stats)
    are left out.  Times of a layer are the mean self time per call, in
    ms; counts are totals over the phase.
    """
    from statistics import median

    handles = [h for h in dump["handles"] if h[0] in round_trips]
    spans = [s for s in dump["spans"] if s[0] in round_trips]
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def named(name, flag=None):
        return [s for s in by_name.get(name, ()) if flag is None or s[6] == flag]

    def self_ms(rows):
        return _mean(s[4] for s in rows) * 1e3

    builds, memo = named("plan.build", True), named("plan.build", False)
    lowerings, sweeps = named("kernel.lower", True), named("kernel.sweep")
    attempts, patched = named("engine.incremental"), named("engine.incremental", True)
    classify = named("derive.classify")
    classify_ids = {s[0] for s in classify}
    miss_ids = {h[0] for h in handles if h[3]}
    covered = sum(s[4] for s in spans if s[0] in miss_ids and s[1] in PIPELINE_SPANS)
    miss_handle = sum(h[2] for h in handles if h[3])
    queue = sorted(round_trips[h[0]] - h[2] for h in handles)
    return {
        "index.compiles": len(named("index.compile")),
        "index.compile_ms": self_ms(named("index.compile")),
        "index.patches": len(named("index.patch", True)),
        "index.patch_ms": self_ms(named("index.patch", True)),
        "plan.builds": len(builds),
        "plan.memo_hits": len(memo),
        "plan.build_ms": self_ms(builds),
        "plan.contacts": _mean(s[5] for s in builds),
        "kernel.lowerings": len(lowerings),
        "kernel.lower_ms": self_ms(lowerings),
        "kernel.sweeps": len(sweeps),
        "kernel.sweep_ms": self_ms(sweeps),
        "kernel.rows_swept": sum(s[5] for s in sweeps),
        "engine.incremental_attempts": len(attempts),
        "engine.incremental_ratio": len(patched) / len(attempts) if attempts else 0.0,
        "engine.incremental_ms": self_ms(attempts),
        "derive.growth_ms": self_ms(named("derive.growth")),
        "derive.classify_ms": self_ms(classify),
        "derive.classify_sweeps": (
            sum(1 for s in sweeps if s[0] in classify_ids) / len(classify)
            if classify else 0.0
        ),
        "server.handle_ms.p50": median(h[2] for h in handles) * 1e3 if handles else 0.0,
        "server.decode_us.p50": median(dump["decode"]) * 1e6 if dump["decode"] else 0.0,
        "server.encode_us.p50": median(dump["encode"]) * 1e6 if dump["encode"] else 0.0,
        "server.response_bytes.mean": (
            dump["response_bytes"] / len(dump["encode"]) if dump["encode"] else 0.0
        ),
        "server.queue_ms.p99": percentile(queue, 99) * 1e3,
        "trace.miss_coverage": covered / miss_handle if miss_handle else 0.0,
    }


def percentile(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile of sorted values, interpolated linearly
    (numpy's default); 0.0 for no values."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
