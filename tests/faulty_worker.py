"""A sweep worker that fails on purpose, for the cluster tests.

:class:`FaultyWorker` speaks just enough of the worker protocol
(:mod:`repro.service.cluster`) to break it in every way the executor's
local re-sweep must absorb.
"""

import json
import socket
import threading

import numpy as np

from repro.service.wire import matrix_to_spec, plan_fingerprint


class FaultyWorker:
    """A TCP "sweep worker" that misbehaves on purpose — a chaos double.

    The executor's only correctness obligation is that worker failures
    never change an answer; this double injects the failure modes the
    fault-handling path must absorb, for the differential harness
    (``tests/properties/test_property_cluster.py``) and the cluster unit
    tests.  ``mode`` is mutable mid-run:

    * ``"kill"``     — accept the job, then close without answering;
    * ``"hang"``     — accept the job and hold the connection silently
      until :meth:`close` — the executor's *timeout* path must fire,
      however long its configured timeout is (an earlier build held
      only 10 s, so default-config chaos always manifested as EOF and
      the timeout-recovery branch went unexercised);
    * ``"corrupt"``  — answer with a line that is not JSON;
    * ``"misshape"`` — answer ``ok: true`` with a well-formed matrix
      spec of the wrong dimensions;
    * ``"stale-plan-version"`` — answer ``ok: true`` with a matrix of
      the *correct* shape but computed "from" a stale plan: the echoed
      fingerprint hashes a doctored plan spec.  Before fingerprint
      checking this was the silent-corruption hole — a shape check
      alone accepts the frame and stacks wrong numbers into the answer;
    * ``"plan-evicted"`` — answer *every* sweep job with a structured
      plan-miss frame, even one that just shipped the full plan.  The
      executor owes exactly one re-ship; a worker that claims eviction
      forever must become a local re-sweep, never a loop;
    * ``"steal-crash"`` — accept one job off the shared queue, then
      die completely: no answer, listener closed, every later connect
      refused.  The worst work-stealing case — a worker that grabs a
      block and takes it to the grave mid-sweep.

    Deliberately implemented on plain blocking sockets and threads, not
    asyncio: it must be able to violate the protocol in ways the real
    worker's framing never would.
    """

    def __init__(self, mode: str = "kill") -> None:
        self.mode = mode
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self.address = f"127.0.0.1:{self.port}"
        self.jobs_seen = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="faulty-worker", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _peer = self._sock.accept()
            except OSError:  # listener closed
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _read_frame(self, conn) -> bytes | None:
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(1 << 16)
            if not chunk:
                return None
            data += chunk
        return data

    def _handle(self, conn) -> None:
        try:
            conn.settimeout(10)
            data = self._read_frame(conn)
            if data is None:
                return
            self.jobs_seen += 1
            mode = self.mode
            if mode == "hang":
                # Hold the connection until the double is closed: the
                # executor must recover via its own timeout, whatever
                # that timeout is — never via a premature EOF.
                self._stop.wait()
            elif mode == "corrupt":
                conn.sendall(b"{this is not json\n")
            elif mode == "misshape":
                request = json.loads(data)
                response = {
                    "id": request.get("id"),
                    "ok": True,
                    "result": {
                        "kind": "int64_matrix",
                        "rows": 1,
                        "cols": 1,
                        "data": "AAAAAAAAAAA=",  # one packed int64 zero
                    },
                }
                conn.sendall(json.dumps(response).encode() + b"\n")
            elif mode == "stale-plan-version":
                request = json.loads(data)
                plan_spec = request.get("plan") or {}
                sources = request.get("sources") or []
                # Right shape, wrong contents: zeros for the block, and
                # a fingerprint honestly computed — but from a plan one
                # version behind the one the executor shipped.
                stale_spec = dict(plan_spec)
                stale_spec["start"] = int(plan_spec.get("start", 0) or 0) - 1
                result = matrix_to_spec(
                    np.zeros((len(sources), int(plan_spec.get("n", 0) or 0)),
                             dtype=np.int64)
                )
                result["fingerprint"] = plan_fingerprint(stale_spec, (sources,))
                response = {"id": request.get("id"), "ok": True, "result": result}
                conn.sendall(json.dumps(response).encode() + b"\n")
            elif mode == "plan-evicted":
                # Claim eviction forever, even for jobs that carry the
                # full plan — including the executor's one repair
                # re-ship on this same connection.
                while data is not None:
                    request = json.loads(data)
                    response = {
                        "id": request.get("id"),
                        "ok": False,
                        "error": "PlanMissError: plan evicted (chaos)",
                    }
                    conn.sendall(json.dumps(response).encode() + b"\n")
                    data = self._read_frame(conn)
            elif mode == "steal-crash":
                # Die with the accepted block: close this connection
                # unanswered AND stop accepting new ones.  close() is
                # idempotent, so a second crash is a no-op.
                self.close()
            # "kill": fall through and close without a byte in reply.
        except OSError:  # pragma: no cover — peer raced the fault
            pass
        finally:
            conn.close()

    def __enter__(self) -> "FaultyWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._stop.set()
        self._sock.close()
