"""The load generator: the server process, its connections, and the
closed and open request loops.

All timing here is client-observed.  A :class:`Record` keeps one
request's schedule (due, sent, received), its answer, and for the open
loop the range of graph versions it may have been answered at.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent

#: Seconds a request may take before the run counts it failed and stops.
REQUEST_TIMEOUT = 60.0
MUTATIONS = frozenset({"add_edge", "remove_edge", "set_presence"})
#: The open loop sleeps until this long before a request is due and
#: spins on the clock for the rest: ``asyncio.sleep`` alone wakes 1-2 ms
#: late, longer than a cache hit takes.  The generator has a CPU of its
#: own, so the spin takes nothing from the server.
SPIN_SECONDS = 0.002
#: The CPUs this process may use, read before it pins itself.
CPUS = sorted(os.sched_getaffinity(0))


def pin_load_generator() -> None:
    """Pin this process to the last allowed CPU (see :class:`ServerProcess`)."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[-1]})


class ServerProcess:
    """One :mod:`launcher` subprocess, driven over its stdin/stdout.
    ``graph`` is the JSON line the launcher builds its graph from."""

    def __init__(self, graph: bytes, trace: bool, timeout: float = 120.0) -> None:
        command = [sys.executable, str(HERE / "launcher.py")]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if len(CPUS) > 1:
            # The server gets a CPU of its own; pin_load_generator takes
            # another, so the two never share one or trade places.
            os.sched_setaffinity(self.proc.pid, {CPUS[0]})
        self._buffer = b""
        try:
            self.proc.stdin.write(graph + b"\n")
            self.proc.stdin.flush()
            self.port = self._read_reply(timeout)["port"]
        except BaseException:
            self.stop()
            raise

    def _read_reply(self, timeout: float) -> dict:
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        # A traced report is one line of many MB: collect the chunks and
        # join them once.
        chunks = [self._buffer]
        while b"\n" not in chunks[-1]:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise RuntimeError("the server did not answer its control pipe in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise RuntimeError(
                        f"the server exited (code {self.proc.poll()}) before answering"
                    )
                chunks.append(chunk)
        line, self._buffer = b"".join(chunks).split(b"\n", 1)
        return json.loads(line)

    def command(self, text: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()
        reply = self._read_reply(timeout)
        if "error" in reply:
            raise RuntimeError(f"server control error: {reply['error']}")
        return reply

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) so far, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Ask the server to exit, and kill it if it does not."""
        try:
            self.proc.stdin.close()
        except OSError:  # the pipe broke: the server has exited
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass(slots=True)
class Record:
    """One request: ``ok`` is False for error frames and timeouts."""

    op: dict
    id: int
    due: float
    sent: float = 0.0
    received: float | None = None
    ok: bool = False
    result: Any = None
    error: str | None = None
    #: Versions the graph may have been at when this was answered
    #: (mutations acknowledged before sending, mutations sent before
    #: the answer came back).  In the closed loop writes travel alone,
    #: so there the two agree.
    versions: tuple[int, int] = (0, 0)

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer."""
        return self.received - self.due

    def answer(self, line: bytes) -> None:
        """Take the answer from the server's response line."""
        response = json.loads(line)
        self.ok = bool(response.get("ok")) and response.get("id") == self.id
        self.result = response.get("result")
        self.error = None if self.ok else response.get("error", "mismatched id")


class Connection:
    """One JSON-lines connection to the service.

    Requests may be pipelined: the server answers a connection's
    requests in order, so a reader task pairs each answer line with the
    oldest request still pending.  ``on_answer`` (optional) sees each
    record as its answer arrives.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.on_answer: Callable[[Record], None] | None = None
        self._pending: deque[tuple[Record, asyncio.Future]] = deque()
        self._task = asyncio.create_task(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while line := await self.reader.readline():
                record, future = self._pending.popleft()
                record.received = perf_counter()
                record.answer(line)
                if self.on_answer is not None:
                    self.on_answer(record)
                if not future.done():
                    future.set_result(record)
        finally:
            # Closed by the server, or by close(): nothing pending will
            # be answered any more.
            while self._pending:
                record, future = self._pending.popleft()
                record.received = perf_counter()
                record.error = "connection closed"
                if not future.done():
                    future.set_result(record)

    def send(self, record: Record) -> asyncio.Future:
        """Write one request; the future resolves to the answered record."""
        future = asyncio.get_running_loop().create_future()
        self._pending.append((record, future))
        record.sent = perf_counter()
        self.writer.write(json.dumps({"id": record.id, **record.op}).encode() + b"\n")
        return future

    async def call(self, op: dict, request_id: int) -> Record:
        """Send one request and wait for its answer (or the timeout)."""
        record = Record(op=op, id=request_id, due=perf_counter())
        try:
            await asyncio.wait_for(self.send(record), REQUEST_TIMEOUT)
        except asyncio.TimeoutError:
            record.received = perf_counter()
            record.error = "timeout"
        return record

    async def close(self) -> None:
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def closed_loop(
    port: int,
    connections: int,
    window: int,
    next_op: Callable[[int], dict | None],
    seconds: float,
    on_done: Callable[[Record], None],
    interval: float = 0.0,
) -> list[Record]:
    """Closed loop over plain blocking sockets: each connection keeps
    ``window`` requests (from ``next_op(connection)``, None to stop) in
    flight, sent in one write and refilled as soon as all are answered,
    until ``seconds`` pass.  Connections take turns, so the server works
    on one while the generator reads and refills another; answers are
    parsed only after the loop, which keeps the generator's work per
    request well below the server's.  ``on_done`` sees every record as
    it is answered (before parsing).

    With ``interval`` the loop is paced: the k-th batch is held until
    ``k * interval`` seconds after the start (the generator sleeps, so
    pace only a single connection).  A slow answer delays the next
    batch, never shortens the one after it."""
    records: list[Record] = []
    ids = iter(range(1, 1 << 62))
    sockets = [socket.create_connection(("127.0.0.1", port)) for _ in range(connections)]
    buffers = [b""] * connections
    lines: dict[int, bytes] = {}
    start = perf_counter()
    deadline = start + seconds
    batches = 0

    def due() -> float:
        return max(perf_counter(), start + batches * interval)

    def send(index: int) -> list[Record]:
        nonlocal batches
        delay = due() - perf_counter()
        if delay > 0:
            time.sleep(delay)
        batches += 1
        batch = []
        for _ in range(window):
            op = next_op(index)
            if op is None:
                break
            batch.append(Record(op=op, id=next(ids), due=0.0))
        frames = b"".join(
            json.dumps({"id": r.id, **r.op}).encode() + b"\n" for r in batch
        )
        now = perf_counter()
        for record in batch:
            record.due = record.sent = now
        sockets[index].sendall(frames)
        return batch

    try:
        for sock in sockets:
            sock.settimeout(REQUEST_TIMEOUT)
        pending = [send(i) for i in range(connections)]
        while any(pending):
            for index, batch in enumerate(pending):
                for record in batch:
                    while b"\n" not in buffers[index]:
                        chunk = sockets[index].recv(1 << 16)
                        if not chunk:
                            raise ConnectionError("the server closed the connection")
                        buffers[index] += chunk
                    line, buffers[index] = buffers[index].split(b"\n", 1)
                    record.received = perf_counter()
                    lines[record.id] = line
                    records.append(record)
                    on_done(record)
                pending[index] = send(index) if due() < deadline else []
    except (TimeoutError, ConnectionError) as exc:
        for batch in pending:
            for record in batch:
                if record.received is None:
                    record.received = perf_counter()
                    record.error = "timeout" if isinstance(exc, TimeoutError) else str(exc)
                    records.append(record)
    finally:
        for sock in sockets:
            sock.close()
    writes = 0
    for record in records:
        if record.id in lines:
            record.answer(lines[record.id])
        # Writes travel alone on one connection: versions are exact.
        record.versions = (writes, writes)
        if record.op["op"] in MUTATIONS and record.ok:
            writes += 1
    return records


async def open_loop(
    connections: list[Connection], ops: list[dict], rate: float
) -> list[Record]:
    """Send ``ops`` at ``rate`` per second, round-robin over the
    connections, without waiting for answers; then wait for the
    stragglers (up to :data:`REQUEST_TIMEOUT`)."""
    records: list[Record] = []
    futures = []
    sent_writes = acked_writes = 0

    def on_answer(record: Record) -> None:
        nonlocal acked_writes
        record.versions = (record.versions[0], sent_writes)
        if record.op["op"] in MUTATIONS and record.ok:
            acked_writes += 1

    for connection in connections:
        connection.on_answer = on_answer
    began = perf_counter() + 0.01
    for i, op in enumerate(ops):
        due = began + i / rate
        delay = due - perf_counter() - SPIN_SECONDS
        if delay > 0:
            await asyncio.sleep(delay)
        while perf_counter() < due:
            await asyncio.sleep(0)  # answers are still read meanwhile
        record = Record(op=op, id=i + 1, due=due, versions=(acked_writes, 0))
        futures.append(connections[i % len(connections)].send(record))
        if op["op"] in MUTATIONS:
            sent_writes += 1
        records.append(record)
    await asyncio.wait(futures, timeout=REQUEST_TIMEOUT)
    for record in records:
        if record.received is None:
            record.received = perf_counter()
            record.error = "timeout"
    return records
