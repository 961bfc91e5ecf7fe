"""Asyncio JSON-lines front end for :class:`TVGService`.

Protocol: one JSON object per line in each direction.  Requests carry
an ``op`` plus its parameters (and an optional ``id`` echoed back);
responses are ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": "..."}``.  The dispatcher :func:`handle_request` is a plain
synchronous function over a service — the event loop serializes
handlers, which is exactly the consistency model the versioned cache
needs (no query ever observes a half-applied mutation) — so it is also
what the workload driver replays traces through and what the unit tests
exercise without opening sockets.

Operations
----------

======  =====================================================
op      parameters
======  =====================================================
reach         source, target, start, horizon, semantics?
arrival       source, target, start, horizon, semantics?
growth        start, end, semantics?
classify      start, end
add_edge      source, target, key?, label?, presence?, latency?
remove_edge   key
set_presence  key, presence
set_workers   workers (list of "host:port" strings)
submit        request (a query-op object: reach/arrival/growth/classify)
status        task
result        task
cancel        task
stats         —
ping          —
======  =====================================================

``semantics`` is a wire string (default ``"wait"``); ``presence`` and
``latency`` are the specs of :mod:`repro.service.wire`.  Every op's
required fields are validated up front (:data:`REQUIRED_PARAMS`): a
missing field, or a ``start``/``horizon``/``end`` that is not an
integer, is a structured ``ServiceError`` naming it, never a raw
``KeyError`` or ``TypeError``.

Admission control (:mod:`repro.service.limits`) wraps the dispatcher
when :func:`serve_service` is given a rate limiter or in-flight gate:
over-limit requests get an ``ok: false`` frame carrying a
``retry_after`` back-off hint (the request ``id`` echoed like any other
response) and the connection stays open.  Per-op latency is recorded
into a bounded histogram the ``stats`` op reports alongside the
service's own counters.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import re
import time
from typing import Any

from repro.errors import ReproError, ServiceError
from repro.service.limits import (
    GATE_RETRY_AFTER,
    AdmissionGate,
    LatencyRecorder,
    RateLimiter,
)
from repro.service.service import BACKGROUND_OPS, TVGService
from repro.service.wire import latency_from_spec, parse_semantics, presence_from_spec

#: Required request fields per operation — the complete op table.  An
#: op absent here is unknown; a field absent from a request is a
#: structured error naming it (never a bare ``KeyError``).
REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "reach": ("source", "target", "start", "horizon"),
    "arrival": ("source", "target", "start", "horizon"),
    "growth": ("start", "end"),
    "classify": ("start", "end"),
    "add_edge": ("source", "target"),
    "remove_edge": ("key",),
    "set_presence": ("key", "presence"),
    "set_workers": ("workers",),
    "submit": ("request",),
    "status": ("task",),
    "result": ("task",),
    "cancel": ("task",),
    "stats": (),
    "ping": (),
}


#: Request fields that are dates.  JSON offers ``true`` and ``8.5`` too,
#: which Python would take as date 1 and a fractional window end.
DATE_FIELDS: tuple[str, ...] = ("start", "horizon", "end")


def require_params(op: str, params: dict) -> None:
    """Reject an op whose request is missing required fields, naming
    every missing field in one structured error, or whose dates are
    not integers (booleans excluded), naming the field."""
    required = REQUIRED_PARAMS.get(op)
    if required is None:
        raise ServiceError(f"unknown operation {op!r}")
    missing = [field for field in required if field not in params]
    if missing:
        raise ServiceError(
            f"op {op!r} missing required field(s): {', '.join(missing)}"
        )
    for field in required:
        value = params[field]
        if field in DATE_FIELDS and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            raise ServiceError(
                f"op {op!r} field {field!r} must be an integer date, "
                f"not {type(value).__name__}"
            )


def _query_args(params: dict) -> dict:
    semantics = parse_semantics(params.get("semantics", "wait"))
    return {
        "start": params["start"],
        "horizon": params["horizon"],
        "semantics": semantics,
    }


def _submit(service: TVGService, params: dict) -> dict:
    """The ``submit`` op: validate the nested query request, then hand
    it to the service's task table."""
    inner = params["request"]
    if not isinstance(inner, dict) or "op" not in inner:
        raise ServiceError(
            "submit takes a 'request' object with its own 'op' field"
        )
    inner_op = inner["op"]
    if inner_op not in BACKGROUND_OPS:
        raise ServiceError(
            f"op {inner_op!r} cannot run in the background; submit takes "
            f"one of: {', '.join(sorted(BACKGROUND_OPS))}"
        )
    require_params(inner_op, inner)
    kwargs: dict[str, Any]
    if inner_op in ("reach", "arrival"):
        kwargs = {
            "source": inner["source"],
            "target": inner["target"],
            **_query_args(inner),
        }
    elif inner_op == "growth":
        kwargs = {
            "start": inner["start"],
            "end": inner["end"],
            "semantics": parse_semantics(inner.get("semantics", "wait")),
        }
    else:  # classify
        kwargs = {"start": inner["start"], "end": inner["end"]}
    return service.submit(inner_op, **kwargs)


def dispatch(service: TVGService, op: str, params: dict) -> Any:
    """Apply one operation to the service; returns the raw result."""
    require_params(op, params)
    if op == "reach":
        return service.reach(params["source"], params["target"], **_query_args(params))
    if op == "arrival":
        return service.arrival(
            params["source"], params["target"], **_query_args(params)
        )
    if op == "growth":
        semantics = parse_semantics(params.get("semantics", "wait"))
        curve = service.growth(params["start"], params["end"], semantics)
        return [[t, r] for t, r in curve]
    if op == "classify":
        return service.classify(params["start"], params["end"])
    if op == "add_edge":
        return service.add_edge(
            params["source"],
            params["target"],
            label=params.get("label"),
            presence=presence_from_spec(params.get("presence")),
            latency=latency_from_spec(params.get("latency")),
            key=params.get("key"),
        )
    if op == "remove_edge":
        return service.remove_edge(params["key"])
    if op == "set_presence":
        return service.set_presence(
            params["key"], presence_from_spec(params["presence"])
        )
    if op == "set_workers":
        workers = params["workers"]
        if not isinstance(workers, list) or not all(
            isinstance(w, str) for w in workers
        ):
            raise ServiceError(
                "set_workers takes a list of 'host:port' strings"
            )
        return service.set_workers(workers)
    if op == "submit":
        return _submit(service, params)
    if op == "status":
        return service.task_status(params["task"])
    if op == "result":
        return service.task_result(params["task"])
    if op == "cancel":
        return service.task_cancel(params["task"])
    if op == "stats":
        return service.stats()
    if op == "ping":
        return "pong"
    raise ServiceError(f"unknown operation {op!r}")


def guarded_response(request: Any, dispatcher) -> dict:
    """One request dict in, one response dict out; never raises.

    ``dispatcher(op, params)`` produces the result.  Library errors
    (unknown node/edge, bad window, bad spec) come back as ``ok: false``
    with the message, so one bad request cannot take down the connection
    — or the replay — that carries it.  Shared by the query service and
    the cluster's sweep workers (:mod:`repro.service.cluster`), so both
    produce identical structured error frames.
    """
    response: dict[str, Any] = {}
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    try:
        if not isinstance(request, dict) or "op" not in request:
            raise ServiceError("request must be an object with an 'op' field")
        result = dispatcher(request["op"], request)
        response.update(ok=True, result=result)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        detail = repr(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
        response.update(ok=False, error=f"{type(exc).__name__}: {detail}")
    return response


def handle_request(service: TVGService, request: dict) -> dict:
    """The query service's dispatcher under the shared error guard."""
    return guarded_response(request, lambda op, params: dispatch(service, op, params))


class OversizedFrame:
    """Marker for a frame that overran the stream limit; carries the
    drained prefix so the error frame can best-effort echo its ``id``."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: bytes) -> None:
        self.prefix = prefix


#: Best-effort ``"id": <number-or-string>`` scan over an oversized
#: frame's drained prefix.  Requests put the id first (the client
#: writes it right after ``op``), so the prefix almost always carries
#: it; a miss just means the error frame goes out id-less, exactly the
#: pre-recovery behaviour.
_ID_PATTERN = re.compile(rb'"id"\s*:\s*(-?\d+|"(?:[^"\\]|\\.)*")')


def recover_request_id(prefix: bytes) -> Any | None:
    """The request ``id`` recovered from an oversized frame's prefix,
    or None when the prefix doesn't (yet) contain one."""
    match = _ID_PATTERN.search(prefix)
    if match is None:
        return None
    try:
        return json.loads(match.group(1))
    except json.JSONDecodeError:  # pragma: no cover — regex guarantees JSON
        return None


async def _discard_frame(reader: asyncio.StreamReader) -> bool:
    """Consume the rest of an over-long frame, up to and including its
    newline.  Returns False if the peer hung up before finishing it."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            # Buffer full with no newline yet: drop what arrived and
            # keep scanning (readuntil leaves the data in the buffer).
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return False


async def _read_frame(reader: asyncio.StreamReader) -> bytes | OversizedFrame:
    """One newline-terminated frame.

    Returns ``b""`` at EOF and an :class:`OversizedFrame` for a frame
    that overran the stream's limit — the oversized frame is consumed
    in full either way, so the connection stays aligned and usable
    afterwards.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # trailing unterminated frame, or b"" at EOF
    except asyncio.LimitOverrunError as exc:
        prefix = await reader.readexactly(exc.consumed)
        if not await _discard_frame(reader):
            return b""
        return OversizedFrame(prefix)


async def handle_json_lines(
    respond, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """The shared JSON-lines connection loop.

    ``respond(request) -> response`` is a dict-to-dict function —
    :func:`handle_request` bound to a service, or the cluster worker's
    :func:`~repro.service.cluster.handle_worker_request` — and may
    return an awaitable (the worker uses that to push CPU-bound sweeps
    off the event loop so one slow job cannot freeze the whole
    process).  Transport-level failures — bad JSON, frames longer than
    the stream limit — become structured ``ServiceError`` frames and
    the connection stays usable, exactly like dispatcher-level errors;
    that is the behaviour the cluster's fault handling (local re-run on
    malformed frames) relies on.
    """
    try:
        while True:
            line = await _read_frame(reader)
            if isinstance(line, OversizedFrame):
                response: dict[str, Any] = {
                    "ok": False,
                    "error": "ServiceError: frame exceeds the line limit",
                }
                recovered = recover_request_id(line.prefix)
                if recovered is not None:
                    # Echo the id like any other error frame, so a
                    # pipelined client can still correlate the drop.
                    response["id"] = recovered
            elif not line:
                break
            else:
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": f"ServiceError: bad JSON: {exc}"}
                else:
                    response = respond(request)
                    if inspect.isawaitable(response):
                        response = await response
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # Server shutdown cancels in-flight handlers mid-teardown;
            # the transport is already closing, so exit quietly instead
            # of surfacing the cancellation through asyncio's callback.
            pass


def _rejection(request: Any, error: str, retry_after: float) -> dict:
    """A structured admission-control rejection frame: the request
    ``id`` echoed exactly like a success frame, plus the back-off
    hint.  The connection stays open — rejection is an answer."""
    response: dict[str, Any] = {}
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    response.update(
        ok=False,
        error=f"RateLimitError: {error}",
        retry_after=round(retry_after, 4),
    )
    return response


class ServiceFrontend:
    """The traffic-hardened dispatcher one server wraps around its
    :class:`TVGService`: per-client rate limiting, a server-wide
    in-flight gate, and per-op latency telemetry.

    ``respond_for(client)`` builds the per-connection respond callable
    :func:`handle_json_lines` drives; the ``stats`` op's result gains a
    ``"frontend"`` section aggregating the limiter/gate/latency state
    into the one JSON document the load harness reads.
    """

    def __init__(
        self,
        service: TVGService,
        limiter: RateLimiter | None = None,
        gate: AdmissionGate | None = None,
        latency: LatencyRecorder | None = None,
    ) -> None:
        self.service = service
        self.limiter = limiter
        self.gate = gate
        self.latency = LatencyRecorder() if latency is None else latency

    def stats(self) -> dict:
        """The frontend's own JSON-able stats block."""
        report: dict[str, Any] = {"latency": self.latency.stats()}
        report["rate_limit"] = (
            None if self.limiter is None else self.limiter.stats()
        )
        report["admission"] = None if self.gate is None else self.gate.stats()
        return report

    def respond_for(self, client: Any):
        """The respond callable for one connection, keyed by ``client``
        (its peer name) for the rate limiter's sliding windows."""

        async def respond(request: Any) -> dict:
            if self.limiter is not None:
                retry_after = self.limiter.admit(client)
                if retry_after is not None:
                    return _rejection(
                        request,
                        "rate limit exceeded for this client; "
                        f"retry after {retry_after:.3f}s",
                        retry_after,
                    )
            if self.gate is not None and not self.gate.try_acquire():
                return _rejection(
                    request,
                    "server at its in-flight request cap; back off briefly",
                    GATE_RETRY_AFTER,
                )
            try:
                began = time.perf_counter()
                response = handle_request(self.service, request)
                if isinstance(request, dict):
                    op = request.get("op")
                    if isinstance(op, str):
                        self.latency.record(
                            op, time.perf_counter() - began
                        )
                        if op == "stats" and response.get("ok"):
                            response["result"]["frontend"] = self.stats()
                return response
            finally:
                if self.gate is not None:
                    self.gate.release()

        return respond

    def forget(self, client: Any) -> None:
        """Drop the client's limiter window (its connection closed)."""
        if self.limiter is not None:
            self.limiter.forget(client)


async def serve_service(
    service: TVGService,
    host: str = "127.0.0.1",
    port: int = 0,
    limit: int | None = None,
    limiter: RateLimiter | None = None,
    gate: AdmissionGate | None = None,
) -> asyncio.AbstractServer:
    """Start serving; ``port=0`` picks a free port (see the socket name).

    ``limit`` caps the per-frame byte budget (asyncio's default 64 KiB
    when None); longer frames get a structured error, not a dead
    connection.  ``limiter`` / ``gate`` opt the server into per-client
    rate limiting and an in-flight cap (:mod:`repro.service.limits`) —
    over-limit requests get structured ``retry_after`` frames, never a
    drop.  Returns the asyncio server; callers own its lifecycle
    (``async with server: await server.serve_forever()``).
    """
    frontend = ServiceFrontend(service, limiter=limiter, gate=gate)

    async def handler(reader, writer):
        client = writer.get_extra_info("peername")
        try:
            await handle_json_lines(frontend.respond_for(client), reader, writer)
        finally:
            frontend.forget(client)

    kwargs = {} if limit is None else {"limit": limit}
    return await asyncio.start_server(handler, host, port, **kwargs)


async def run_service(
    service: TVGService,
    host: str = "127.0.0.1",
    port: int = 7712,
    limiter: RateLimiter | None = None,
    gate: AdmissionGate | None = None,
) -> None:
    """Serve forever (the CLI entry point's coroutine)."""
    server = await serve_service(service, host, port, limiter=limiter, gate=gate)
    sockets = server.sockets or ()
    for sock in sockets:
        print(f"serving {service.graph.name or 'TVG'} on {sock.getsockname()}")
    async with server:
        await server.serve_forever()
