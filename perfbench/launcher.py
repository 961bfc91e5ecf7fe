"""Run the query service on a benchmark graph, in its own process.

Usage: ``python3 perfbench/launcher.py [--trace]``

Reads one JSON line from stdin, the graph as ``{"nodes": N, "edges":
[...]}`` (written by the load generator), builds it, serves it with
``TVGService`` behind ``serve_service`` at their defaults on a free
loopback port, and prints ``{"port": N}`` once listening.  With
``--trace`` the layer entry points are wrapped first (:mod:`tracing`).
Then control lines on stdin, each answered with one JSON line on
stdout:

``mark``
    start of the timed phase: drop the spans recorded so far.
``report``
    answer ``{"ok": true, "report": {...}}``: the compiled index's
    contact count and (traced) the recorded spans.
``quit`` (or end of input)
    stop serving and exit.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, install  # noqa: E402
from workloads import build_graph  # noqa: E402


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _contacts(service) -> int:
    index = service.engine.compiled
    if index is None:
        return 0
    return sum(len(c) for c in index.contacts if c is not None)


async def serve(spec: dict, trace: bool) -> None:
    from repro.service.server import serve_service
    from repro.service.service import TVGService

    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    service = TVGService(build_graph(spec["nodes"], spec["edges"]))
    server = await serve_service(service, port=0)
    loop = asyncio.get_running_loop()
    control = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(control), sys.stdin
    )
    _reply({"port": server.sockets[0].getsockname()[1]})
    try:
        while True:
            command = (await control.readline()).decode().split()
            if not command or command[0] == "quit":
                break
            if command[0] == "mark":
                if tracer is not None:
                    tracer.reset()
                _reply({"ok": True})
            elif command[0] == "report":
                report = {"contacts": _contacts(service)}
                if tracer is not None:
                    report["trace"] = tracer.dump()
                _reply({"ok": True, "report": report})
            else:
                _reply({"error": f"unknown command {command[0]!r}"})
    finally:
        server.close()
        await server.wait_closed()
        service.close()


def main() -> None:
    # The load generator sends nothing after the graph until the port
    # is printed, so this read cannot swallow a control line.
    spec = json.loads(sys.stdin.buffer.readline())
    asyncio.run(serve(spec, "--trace" in sys.argv[1:]))


if __name__ == "__main__":
    main()
