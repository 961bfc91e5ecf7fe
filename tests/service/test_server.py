"""End-to-end socket tests for the asyncio JSON-lines front end.

Marked ``service``: these open real loopback sockets, which some
sandboxes forbid — deselect with ``-m "not service"`` there.
"""

import asyncio
import inspect
import json

import pytest

from repro.core.builders import TVGBuilder
from repro.core.semantics import NO_WAIT, WAIT
from repro.dynamics.workloads import generate_service_trace, make_workload
from repro.errors import RateLimitError, ServiceError
from repro.service.client import ServiceClient
from repro.service.limits import GATE_RETRY_AFTER, AdmissionGate, RateLimiter
from repro.service.server import (
    OPS,
    REQUIRED,
    ServiceFrontend,
    handle_request,
    recover_request_id,
    serve_service,
)
from repro.service.service import TVGService

pytestmark = pytest.mark.service


def line_graph():
    return (
        TVGBuilder(name="line")
        .lifetime(0, 10)
        .edge("a", "b", present=[(0, 2)], key="ab")
        .edge("b", "c", present=[(5, 7)], key="bc")
        .build()
    )


def run(coroutine):
    """Run one async test body, skipping where sockets are forbidden."""
    try:
        return asyncio.run(coroutine)
    except (PermissionError, OSError) as exc:  # pragma: no cover — sandbox
        pytest.skip(f"loopback sockets unavailable: {exc}")


async def served(service):
    server = await serve_service(service, port=0)
    port = server.sockets[0].getsockname()[1]
    client = await ServiceClient.connect(port=port)
    return server, client


class TestProtocol:
    def test_queries_match_in_process_answers(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                assert await client.ping() == "pong"
                assert await client.reach("a", "c", 0, 10, "wait") is True
                assert await client.reach("a", "c", 0, 10, "nowait") is False
                assert await client.arrival("a", "c", 0, 10, "wait") == (
                    service.arrival("a", "c", 0, 10, WAIT)
                )
                assert await client.growth(0, 10, "nowait") == (
                    service.growth(0, 10, NO_WAIT)
                )
                assert await client.classify(0, 10) == service.classify(0, 10)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    def test_mutations_over_the_socket(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                key = await client.add_edge(
                    "c", "a",
                    presence={"kind": "periodic", "pattern": [0], "period": 2},
                )
                assert await client.reach("c", "a", 0, 10, "nowait") is True
                await client.set_presence(key, {"kind": "never"})
                assert await client.reach("c", "a", 0, 10, "wait") is False
                assert await client.remove_edge(key) == key
                stats = await client.stats()
                assert stats["mutations_applied"] == 3
                assert stats["graph"]["edges"] == 2
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    def test_errors_surface_and_connection_survives(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                with pytest.raises(ServiceError):
                    await client.request("reach", source="a")  # missing params
                with pytest.raises(ServiceError):
                    await client.remove_edge("nope")
                assert await client.ping() == "pong"  # still alive
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    def test_bad_json_line_gets_an_error_response(self):
        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False and "bad JSON" in response["error"]
                assert response["error"].startswith("ServiceError")
                # The connection survives the bad frame.
                writer.write(b'{"op": "ping", "id": 2}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response == {"id": 2, "ok": True, "result": "pong"}
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        run(body())

    @pytest.mark.parametrize(
        "frame, error",
        [
            ({"op": "reach", "source": "a", "target": "c", "start": -10**30,
              "horizon": 10}, "ServiceError: op 'reach' field 'start'"),
            ({"op": "growth", "start": 0, "end": 2**63},
             "ServiceError: op 'growth' field 'end'"),
            ({"op": "add_edge", "source": "a", "target": "c",
              "latency": {"kind": "constant", "value": 10**30}},
             "ServiceError: op 'add_edge' field 'latency'"),
            ({"op": "growth", "start": 0, "end": 10**12}, "MemoryError: "),
            ({"op": "reach", "source": ["a"], "target": "c", "start": 0,
              "horizon": 10}, "ServiceError: op 'reach' field 'source'"),
        ],
        ids=["reach-start", "growth-end-2**63", "add_edge-latency",
             "growth-end-10**12", "reach-list-source"],
    )
    def test_boundary_input_gets_one_error_frame(self, frame, error):
        """Each of these once dropped its connection with no frame, or
        (growth to 2**63) answered ``[]``: now one structured error
        frame, and the same connection keeps answering."""

        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def send(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                response = await send({"id": 1, **frame})
                assert response["id"] == 1 and response["ok"] is False
                assert response["error"].startswith(error)
                growth = await send({"op": "growth", "id": 2, "start": 0, "end": 10})
                assert growth["ok"] is True and len(growth["result"]) == 10
                pong = await send({"op": "ping", "id": 3})
                assert pong == {"id": 3, "ok": True, "result": "pong"}
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    @pytest.mark.parametrize(
        "presence, error",
        [
            ({"kind": "periodic", "pattern": [1.5], "period": 8},
             "a residue must be an integer, got 1.5"),
            ({"kind": "periodic", "pattern": [1], "period": 8.5},
             "a period must be an integer, got 8.5"),
            ({"kind": "intervals", "pairs": [[1.5, 3]]},
             "an interval start must be an integer, got 1.5"),
            ({"kind": "at", "times": [1.5]}, "a date must be an integer, got 1.5"),
        ],
        ids=["periodic-residue", "periodic-period", "intervals", "at"],
    )
    def test_fractional_schedule_gets_an_error_frame(self, presence, error):
        """These edges were once accepted and then lowered as a
        different, truncated schedule (``arrival`` a -> c from 0 read 2
        for each): now one error frame, the graph untouched."""

        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def send(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                before = (await send({"op": "stats"}))["result"]["graph"]
                for request in (
                    {"op": "add_edge", "source": "a", "target": "c",
                     "presence": presence},
                    {"op": "set_presence", "key": "ab", "presence": presence},
                ):
                    response = await send({"id": 1, **request})
                    assert response["id"] == 1 and response["ok"] is False
                    assert response["error"].startswith(
                        f"ServiceError: op '{request['op']}' field 'presence'"
                    )
                    assert error in response["error"]
                after = (await send({"op": "stats"}))["result"]["graph"]
                assert after == before
                arrival = await send({"op": "arrival", "source": "a", "target": "c",
                                      "start": 0, "horizon": 10})
                assert arrival == {"ok": True, "result": 6}  # via b, not a new edge
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_client_surfaces_transport_error_frames(self):
        """An oversized request through ServiceClient must raise the
        server's structured message, not an id-mismatch complaint (the
        error frame carries no id — the frame was never parsed)."""

        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0, limit=1024)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port)
            try:
                with pytest.raises(ServiceError, match="frame exceeds"):
                    await client.request("ping", padding="x" * 8192)
                assert await client.ping() == "pong"  # connection realigned
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    def test_unknown_op_gets_a_structured_error(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                with pytest.raises(ServiceError, match="unknown operation"):
                    await client.request("frobnicate")
                assert await client.ping() == "pong"  # still usable
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    @pytest.mark.parametrize("terminated", [True, False])
    def test_oversized_line_gets_an_error_and_the_connection_survives(
        self, terminated
    ):
        """A frame longer than the stream limit — whether its newline is
        already buffered or still inbound — must produce one structured
        error and leave the connection aligned for the next request."""

        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0, limit=1024)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                giant = b'{"op": "ping", "padding": "' + b"x" * 8192 + b'"}'
                if terminated:
                    writer.write(giant + b"\n")
                    await writer.drain()
                else:
                    writer.write(giant[:4096])
                    await writer.drain()
                    await asyncio.sleep(0.05)  # limit overruns mid-frame
                    writer.write(giant[4096:] + b"\n")
                    await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert "ServiceError" in response["error"]
                assert "limit" in response["error"]
                writer.write(b'{"op": "ping", "id": 9}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response == {"id": 9, "ok": True, "result": "pong"}
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        run(body())

    def test_one_client_shared_by_concurrent_coroutines(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                answers = await asyncio.gather(
                    client.reach("a", "c", 0, 10, "wait"),
                    client.ping(),
                    client.arrival("a", "b", 0, 10, "nowait"),
                    client.reach("a", "c", 0, 10, "nowait"),
                )
                assert answers == [True, "pong", 1, False]
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    def test_concurrent_clients_share_one_service(self):
        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0)
            port = server.sockets[0].getsockname()[1]
            clients = [await ServiceClient.connect(port=port) for _ in range(4)]
            try:
                answers = await asyncio.gather(
                    *(c.reach("a", "c", 0, 10, "wait") for c in clients)
                )
                assert answers == [True] * 4
                # One sweep served all four: the rest were cache hits.
                assert service.cache.stats()["hits"] >= 3
            finally:
                for c in clients:
                    await c.close()
                server.close()
                await server.wait_closed()

        run(body())


#: A complete, valid parameter set per op — the validation tests strip
#: fields from these one at a time.
_VALID_PARAMS = {
    "reach": {"source": "a", "target": "c", "start": 0, "horizon": 10},
    "arrival": {"source": "a", "target": "c", "start": 0, "horizon": 10},
    "growth": {"start": 0, "end": 10},
    "classify": {"start": 0, "end": 10},
    "add_edge": {"source": "a", "target": "c"},
    "remove_edge": {"key": "ab"},
    "set_presence": {"key": "ab", "presence": {"kind": "always"}},
    "set_workers": {"workers": []},
    "submit": {"request": {"op": "classify", "start": 0, "end": 10}},
    "status": {"task": "t1"},
    "result": {"task": "t1"},
    "cancel": {"task": "t1"},
    "stats": {},
    "ping": {},
}


def _required(op):
    return [name for name, _kind, default in OPS[op].fields if default is REQUIRED]


class TestParamValidation:
    """Malformed requests must come back as structured errors naming the
    missing field — never a raw ``KeyError`` leaking a dispatch detail.
    These drive the dispatcher in-process: validation happens before any
    socket is involved."""

    def test_the_fixture_table_covers_every_op(self):
        assert sorted(_VALID_PARAMS) == sorted(OPS)
        for op, params in _VALID_PARAMS.items():
            assert set(params) <= {name for name, _kind, _default in OPS[op].fields}

    def test_client_methods_take_the_op_fields_in_table_order(self):
        """Every ServiceClient method named after an op takes exactly
        that op's fields, in table order, with the table's defaults."""
        checked = set()
        for op, spec in OPS.items():
            method = getattr(ServiceClient, op, None)
            if method is None:
                continue
            params = list(inspect.signature(method).parameters.values())[1:]
            assert [
                (p.name, REQUIRED if p.default is p.empty else p.default)
                for p in params
            ] == [(name, default) for name, _kind, default in spec.fields], op
            checked.add(op)
        assert checked >= {"reach", "arrival", "growth", "classify", "add_edge"}

    @pytest.mark.parametrize(
        "op,missing", [(op, field) for op in OPS for field in _required(op)]
    )
    def test_each_missing_field_is_named(self, op, missing):
        service = TVGService(line_graph())
        params = {k: v for k, v in _VALID_PARAMS[op].items() if k != missing}
        response = handle_request(service, {"op": op, "id": 7, **params})
        assert response["id"] == 7
        assert response["ok"] is False
        assert response["error"].startswith("ServiceError")
        assert missing in response["error"]
        assert "KeyError" not in response["error"]
        service.close()

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_complete_params_pass_validation(self, op):
        service = TVGService(line_graph())
        response = handle_request(service, {"op": op, "id": 1, **_VALID_PARAMS[op]})
        # Ops referencing entities that don't exist may still fail —
        # but never on a missing *field*.
        if not response["ok"]:
            assert "missing required field" not in response["error"]
            assert "KeyError" not in response["error"]
        service.close()

    def test_all_missing_fields_reported_at_once(self):
        service = TVGService(line_graph())
        response = handle_request(service, {"op": "reach", "source": "a"})
        assert "target, start, horizon" in response["error"]
        service.close()

    def test_submit_validates_the_nested_request(self):
        service = TVGService(line_graph())
        try:
            response = handle_request(
                service, {"op": "submit", "id": 1, "request": "growth"}
            )
            assert "'request' object" in response["error"]
            response = handle_request(
                service,
                {"op": "submit", "id": 2, "request": {"op": "add_edge"}},
            )
            assert "cannot run in the background" in response["error"]
            response = handle_request(
                service,
                {"op": "submit", "id": 3, "request": {"op": "growth", "start": 0}},
            )
            assert "missing required field(s): end" in response["error"]
        finally:
            service.close()


class TestBackgroundOps:
    def test_submit_poll_result_matches_sync_answer(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                sync = await client.growth(0, 10, "wait")
                submitted = await client.request(
                    "submit",
                    request={"op": "growth", "start": 0, "end": 10,
                             "semantics": "wait"},
                )
                task = submitted["task"]
                assert submitted["version"] == service.graph.version
                status = await client.request("status", task=task)
                while status["state"] in ("queued", "running"):
                    await asyncio.sleep(0.01)
                    status = await client.request("status", task=task)
                assert status["state"] == "done"
                assert status["stale"] is False
                result = await client.request("result", task=task)
                assert [(t, r) for t, r in result] == sync
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_mutation_after_submit_marks_the_task_stale(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                submitted = await client.request(
                    "submit", request={"op": "classify", "start": 0, "end": 10}
                )
                task = submitted["task"]
                baseline = await client.classify(0, 10)
                await client.add_edge(
                    "c", "a",
                    presence={"kind": "periodic", "pattern": [0], "period": 2},
                )
                status = await client.request("status", task=task)
                while status["state"] in ("queued", "running"):
                    await asyncio.sleep(0.01)
                    status = await client.request("status", task=task)
                assert status["stale"] is True
                # The answer is the submit-time snapshot's, not the
                # mutated graph's.
                assert await client.request("result", task=task) == baseline
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_cancel_over_the_socket(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                submitted = await client.request(
                    "submit", request={"op": "growth", "start": 0, "end": 10}
                )
                cancelled = await client.request(
                    "cancel", task=submitted["task"]
                )
                assert cancelled["state"] in ("cancelled", "done")
                if cancelled["state"] == "cancelled":
                    with pytest.raises(ServiceError, match="cancelled"):
                        await client.request("result", task=submitted["task"])
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())


class TestIdCorrelation:
    def test_pipelined_requests_echo_ids_in_order(self):
        """A client that writes many frames before reading — good and
        bad interleaved — must get every response with the right id, in
        request order (the loop is strictly sequential per connection)."""

        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                frames = [
                    {"op": "ping", "id": 11},
                    {"op": "reach", "id": 12},  # missing params -> error
                    {"op": "ping", "id": 13},
                    {"op": "frobnicate", "id": 14},  # unknown -> error
                    {"op": "ping", "id": 15},
                ]
                writer.write(
                    b"".join(json.dumps(f).encode() + b"\n" for f in frames)
                )
                await writer.drain()
                responses = [
                    json.loads(await reader.readline()) for _ in frames
                ]
                assert [r["id"] for r in responses] == [11, 12, 13, 14, 15]
                assert [r["ok"] for r in responses] == [
                    True, False, True, False, True,
                ]
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_oversized_frame_error_echoes_the_recovered_id(self):
        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0, limit=1024)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                giant = (
                    b'{"op": "ping", "id": 77, "padding": "'
                    + b"x" * 8192 + b'"}\n'
                )
                writer.write(giant)
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert "frame exceeds" in response["error"]
                assert response["id"] == 77
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_recover_request_id_forms(self):
        assert recover_request_id(b'{"op": "ping", "id": 42, "x') == 42
        assert recover_request_id(b'{"id": -3}') == -3
        assert recover_request_id(b'{"id": "req-1", ') == "req-1"
        assert recover_request_id(b'{"op": "ping"') is None
        assert recover_request_id(b"") is None


class TestAdmissionControl:
    def test_rate_limited_requests_get_retry_after_frames(self):
        async def body():
            service = TVGService(line_graph())
            limiter = RateLimiter(3, window=30.0)
            server = await serve_service(service, port=0, limiter=limiter)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for request_id in range(1, 6):
                    writer.write(
                        json.dumps({"op": "ping", "id": request_id}).encode()
                        + b"\n"
                    )
                await writer.drain()
                responses = [
                    json.loads(await reader.readline()) for _ in range(5)
                ]
                assert [r["ok"] for r in responses] == [
                    True, True, True, False, False,
                ]
                for rejection in responses[3:]:
                    assert rejection["error"].startswith("RateLimitError")
                    assert rejection["retry_after"] > 0
                # Ids echo on rejections exactly like successes.
                assert [r["id"] for r in responses] == [1, 2, 3, 4, 5]
                assert limiter.rejected == 2
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_client_raises_rate_limit_error_with_the_hint(self):
        async def body():
            service = TVGService(line_graph())
            limiter = RateLimiter(1, window=30.0)
            server = await serve_service(service, port=0, limiter=limiter)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port)
            try:
                assert await client.ping() == "pong"
                with pytest.raises(RateLimitError) as exc_info:
                    await client.ping()
                assert exc_info.value.retry_after > 0
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_rate_limit_windows_are_per_client(self):
        async def body():
            service = TVGService(line_graph())
            limiter = RateLimiter(1, window=30.0)
            server = await serve_service(service, port=0, limiter=limiter)
            port = server.sockets[0].getsockname()[1]
            first = await ServiceClient.connect(port=port)
            second = await ServiceClient.connect(port=port)
            try:
                assert await first.ping() == "pong"
                assert await second.ping() == "pong"  # separate window
                with pytest.raises(RateLimitError):
                    await first.ping()
            finally:
                await first.close()
                await second.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_gate_rejection_carries_the_fixed_hint(self):
        """The in-flight gate is hard to saturate through the strictly
        sequential event loop, so drive the frontend's respond callable
        directly with the gate pre-filled."""

        async def body():
            service = TVGService(line_graph())
            gate = AdmissionGate(1)
            frontend = ServiceFrontend(service, gate=gate)
            respond = frontend.respond_for(("127.0.0.1", 1))
            assert gate.try_acquire()  # someone else is mid-dispatch
            try:
                rejection = await respond({"op": "ping", "id": 5})
                assert rejection["ok"] is False
                assert rejection["error"].startswith("RateLimitError")
                assert rejection["id"] == 5
                assert rejection["retry_after"] == GATE_RETRY_AFTER
            finally:
                gate.release()
            accepted = await respond({"op": "ping", "id": 6})
            assert accepted == {"id": 6, "ok": True, "result": "pong"}
            assert gate.inflight == 0
            service.close()

        run(body())


class TestClientTimeout:
    def test_hung_server_times_out_cleanly(self):
        """A server that accepts but never responds must not hang the
        client forever: the request fails with a clean ServiceError and
        the (now unsynchronizable) connection is closed."""

        async def body():
            async def black_hole(reader, writer):
                await reader.read(-1)  # consume everything, answer nothing

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port, timeout=0.2)
            try:
                with pytest.raises(ServiceError, match="timed out after"):
                    await client.ping()
                # The connection is broken by contract: later requests
                # fail fast instead of desynchronizing the stream.
                with pytest.raises(ServiceError, match="timed out"):
                    await client.ping()
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    def test_per_request_timeout_overrides_the_default(self):
        async def body():
            async def black_hole(reader, writer):
                await reader.read(-1)

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port)  # no default
            try:
                with pytest.raises(ServiceError, match="timed out after"):
                    await client.request("ping", timeout=0.2)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())

    def test_timeout_does_not_fire_on_a_responsive_server(self):
        async def body():
            service = TVGService(line_graph())
            server = await serve_service(service, port=0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port, timeout=30.0)
            try:
                assert await client.ping() == "pong"
                assert await client.reach("a", "c", 0, 10, "wait") is True
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())


class TestStatsDocument:
    def test_stats_aggregates_service_and_frontend_state(self):
        async def body():
            service = TVGService(line_graph())
            limiter = RateLimiter(90, window=1.0)
            gate = AdmissionGate(8)
            server = await serve_service(
                service, port=0, limiter=limiter, gate=gate
            )
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port)
            try:
                await client.reach("a", "c", 0, 10, "wait")
                await client.reach("a", "c", 0, 10, "wait")  # cache hit
                await client.add_edge(
                    "c", "d",
                    presence={"kind": "periodic", "pattern": [0], "period": 2},
                )
                submitted = await client.request(
                    "submit", request={"op": "classify", "start": 0, "end": 10}
                )
                stats = await client.stats()
                # Service-side counters.
                assert stats["queries_served"] == 2
                assert stats["mutations_applied"] == 1
                assert stats["cache"]["hits"] == 1
                assert stats["tasks"]["submitted"] == 1
                assert "sweeps" in stats
                # Frontend aggregation.
                frontend = stats["frontend"]
                assert frontend["rate_limit"]["limit"] == 90
                assert frontend["rate_limit"]["admitted"] >= 5
                assert frontend["admission"]["peak"] >= 1
                latency = frontend["latency"]
                assert set(latency) >= {"reach", "add_edge", "submit"}
                for block in latency.values():
                    assert block["count"] >= 1
                    assert block["p50"] <= block["p95"] <= block["p99"]
                # The whole document round-trips as JSON.
                assert json.loads(json.dumps(stats)) == stats
                assert await client.request(
                    "status", task=submitted["task"]
                )
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())

    def test_stats_without_limits_reports_null_sections(self):
        async def body():
            service = TVGService(line_graph())
            server, client = await served(service)
            try:
                stats = await client.stats()
                assert stats["frontend"]["rate_limit"] is None
                assert stats["frontend"]["admission"] is None
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
                service.close()

        run(body())


class TestTraceReplayOverSocket:
    def test_socket_replay_matches_in_process_replay(self):
        """The same trace through the socket and through the dispatcher
        must produce the same answer stream (the socket adds transport,
        not semantics)."""

        async def body():
            workload = make_workload("flaky-backbone")
            trace = generate_service_trace(workload, operations=30, seed=5)
            replayed = TVGService(make_workload("flaky-backbone").graph)
            expected = [handle_request(replayed, op) for op in trace]
            service = TVGService(workload.graph)
            server, client = await served(service)
            try:
                for op, want in zip(trace, expected):
                    params = {k: v for k, v in op.items() if k != "op"}
                    got = await client.request(op["op"], **params)
                    assert want["ok"], want
                    assert got == want["result"]
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())
