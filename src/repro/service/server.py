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

Each operation is declared once, in :data:`OPS`: its ordered fields,
its handler, and whether ``submit`` may run it in the background.
:func:`parse_request` checks direct and submitted requests alike.  The
field kinds: a *date* is a non-bool int strictly inside ±2**62
(:data:`~repro.core.time_domain.MAX_DATE`); a *scalar* (node id, edge
key, label) is any JSON value but a list or object; ``semantics`` is
``"wait"`` (the default), ``"nowait"`` or ``"wait[d]"``; ``presence``
and ``latency`` are the specs of :mod:`repro.service.wire`;
``workers`` is a list of ``"host:port"`` strings; ``task`` is a task id
string; ``request`` is a nested request ``submit`` may run.  Missing
fields are named together in one ``ServiceError``, and a bad value gets
one naming its op and field.

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
import functools
import inspect
import json
import re
import time
from typing import Any, Callable, NamedTuple

from repro.core.time_domain import MAX_DATE
from repro.errors import REQUEST_ERRORS, ServiceError
from repro.service.limits import (
    GATE_RETRY_AFTER,
    AdmissionGate,
    LatencyRecorder,
    RateLimiter,
)
from repro.service.service import TVGService
from repro.service.wire import latency_from_spec, parse_semantics, presence_from_spec

#: The default of a field every request of its op must carry.
REQUIRED: Any = object()


def _date(value: Any) -> int:
    if type(value) is not int:  # bool is an int subclass
        raise ServiceError(f"must be an integer date, not {type(value).__name__}")
    if not -MAX_DATE < value < MAX_DATE:
        raise ServiceError("must be a date strictly between -2**62 and 2**62")
    return value


def _scalar(value: Any) -> Any:
    if isinstance(value, (list, dict)):
        raise ServiceError(f"must be a JSON scalar, not {type(value).__name__}")
    return value


def _workers(value: Any) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(w, str) for w in value):
        raise ServiceError("must be a list of 'host:port' strings")
    return value


def _task(value: Any) -> str:
    if not isinstance(value, str):
        raise ServiceError(f"must be a task id string, not {type(value).__name__}")
    return value


def _background(value: Any) -> tuple[str, Callable[[TVGService], Any]]:
    """A nested request ``submit`` may run: its op and bound handler."""
    if not isinstance(value, dict) or "op" not in value:
        raise ServiceError("must be a 'request' object with its own 'op' field")
    op = value["op"]
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None or not spec.background:
        runnable = ", ".join(name for name, entry in OPS.items() if entry.background)
        raise ServiceError(
            f"op {op!r} cannot run in the background; submit takes one of: {runnable}"
        )
    spec, fields = parse_request(op, value)
    return op, functools.partial(spec.run, **fields)


class Op(NamedTuple):
    """One protocol operation: its ordered ``(name, kind, default)``
    fields, its handler ``run(service, **fields)``, and whether
    ``submit`` may run it in the background."""

    fields: tuple[tuple[str, Callable[[Any], Any], Any], ...]
    run: Callable[..., Any]
    background: bool = False


_PAIR = (("source", _scalar, REQUIRED), ("target", _scalar, REQUIRED))
_WINDOW = (("start", _date, REQUIRED), ("end", _date, REQUIRED))
_SEMANTICS = ("semantics", parse_semantics, "wait")
_POINT = (*_PAIR, ("start", _date, REQUIRED), ("horizon", _date, REQUIRED), _SEMANTICS)
_TASK = (("task", _task, REQUIRED),)

#: The protocol: every op the server answers, and the only place that
#: says what each op takes, what runs it, and whether it may run in
#: the background.
OPS: dict[str, Op] = {
    "reach": Op(_POINT, TVGService.reach, background=True),
    "arrival": Op(_POINT, TVGService.arrival, background=True),
    "growth": Op(
        (*_WINDOW, _SEMANTICS),
        lambda service, **query: [[t, r] for t, r in service.growth(**query)],
        background=True,
    ),
    "classify": Op(_WINDOW, TVGService.classify, background=True),
    "add_edge": Op(
        (*_PAIR, ("key", _scalar, None), ("label", _scalar, None),
         ("presence", presence_from_spec, None), ("latency", latency_from_spec, None)),
        TVGService.add_edge,
    ),
    "remove_edge": Op((("key", _scalar, REQUIRED),), TVGService.remove_edge),
    "set_presence": Op(
        (("key", _scalar, REQUIRED), ("presence", presence_from_spec, REQUIRED)),
        TVGService.set_presence,
    ),
    "set_workers": Op((("workers", _workers, REQUIRED),), TVGService.set_workers),
    "submit": Op(
        (("request", _background, REQUIRED),),
        lambda service, request: service.submit(*request),
    ),
    "status": Op(_TASK, lambda service, task: service.task_status(task)),
    "result": Op(_TASK, lambda service, task: service.task_result(task)),
    "cancel": Op(_TASK, lambda service, task: service.task_cancel(task)),
    "stats": Op((), TVGService.stats),
    "ping": Op((), lambda service: "pong"),
}


def parse_request(op: Any, params: dict) -> tuple[Op, dict[str, Any]]:
    """The op's :data:`OPS` entry and its parsed fields.

    Raises :class:`ServiceError` for an unknown op, naming every
    missing required field at once, or naming the first field whose
    value its kind refuses.
    """
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ServiceError(f"unknown operation {op!r}")
    fields: dict[str, Any] = {}
    missing = []
    for name, kind, default in spec.fields:
        value = params.get(name, default)
        if value is REQUIRED:
            missing.append(name)
            continue
        try:
            fields[name] = kind(value)
        except ServiceError as exc:
            raise ServiceError(f"op {op!r} field {name!r}: {exc}") from None
    if missing:
        raise ServiceError(
            f"op {op!r} missing required field(s): {', '.join(missing)}"
        )
    return spec, fields


def dispatch(service: TVGService, op: Any, params: dict) -> Any:
    """Apply one operation to the service: parse it, then run it."""
    spec, fields = parse_request(op, params)
    return spec.run(service, **fields)


def guarded_response(request: Any, dispatcher) -> dict:
    """One request dict in, one response dict out; never raises.

    ``dispatcher(op, params)`` produces the result.  Library errors
    (unknown node/edge, bad window, bad spec) and a window too large to
    allocate (:data:`~repro.errors.REQUEST_ERRORS`) come back as
    ``ok: false`` with the message, so one bad request cannot take down
    the connection
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
    except REQUEST_ERRORS as exc:
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
                    if isinstance(op, str) and op in OPS:
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
