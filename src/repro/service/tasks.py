"""The bounded background-task table behind the ``submit`` op family.

Expensive cold queries must not hold a connection open while the event
loop serializes everyone else behind the sweep.  Instead the service
*submits* them here: :meth:`TaskTable.submit` takes a zero-argument
compute callable (the service builds it over a private **snapshot** of
the graph, so the running sweep never shares mutable state with the
live graph, engine, or cache), runs it on one worker thread, and
hands back a task id immediately.  Clients poll ``status`` and
fetch ``result``; ``cancel`` flips a task to its terminal ``cancelled``
state — a queued task never starts, a running one keeps computing but
its result is discarded on arrival (the kernel sweep is not
interruptible mid-pass; what is guaranteed is that a cancelled id never
yields a result).

The table is bounded: when ``max_tasks`` live entries exist, submitting
first evicts finished tasks oldest-first; if every entry is still
queued or running the submit is refused with a structured
:class:`~repro.errors.ServiceError` (backpressure, not unbounded
memory).  All state transitions happen under one lock — the worker
thread and the event-loop thread race on nothing else.

Task states: ``queued -> running -> done | error``, with ``cancelled``
reachable from ``queued`` and ``running``.  ``done``, ``error``, and
``cancelled`` are terminal.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.errors import REQUEST_ERRORS, ServiceError

#: Terminal task states — the only ones eviction may reclaim.
FINISHED_STATES = frozenset({"done", "error", "cancelled"})

#: Default bound on live (unfinished + finished-but-unclaimed) tasks.
DEFAULT_MAX_TASKS = 64


class BackgroundTask:
    """One submitted computation and its lifecycle state."""

    __slots__ = (
        "task_id", "op", "version", "state", "value", "error", "finished",
    )

    def __init__(self, task_id: str, op: str, version: int) -> None:
        self.task_id = task_id
        self.op = op
        self.version = version
        self.state = "queued"
        self.value: Any = None
        self.error: str | None = None
        #: Set exactly once, when the task enters a terminal state.
        self.finished = threading.Event()

    def status(self) -> dict:
        """The JSON-able ``status`` op payload."""
        report = {
            "task": self.task_id,
            "op": self.op,
            "state": self.state,
            "version": self.version,
        }
        if self.state == "error":
            report["error"] = self.error
        return report

    def __repr__(self) -> str:
        return (
            f"BackgroundTask({self.task_id}, {self.op!r}, {self.state}, "
            f"v{self.version})"
        )


class TaskTable:
    """A bounded table of background tasks over one worker thread.

    ``max_tasks`` bounds live entries (see the module docstring for the
    eviction/backpressure policy).  One thread, so background sweeps
    never oversubscribe the host against the foreground event loop; it
    is started lazily on the first submit and torn down by
    :meth:`shutdown`.
    """

    def __init__(self, max_tasks: int = DEFAULT_MAX_TASKS) -> None:
        if max_tasks <= 0:
            raise ValueError(f"max_tasks must be positive, got {max_tasks}")
        self.max_tasks = max_tasks
        self._tasks: OrderedDict[str, BackgroundTask] = OrderedDict()
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._counter = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.evicted = 0

    # -- lifecycle --------------------------------------------------------------

    def submit(
        self, op: str, version: int, compute: Callable[[], Any]
    ) -> BackgroundTask:
        """Enqueue one computation; returns its task record immediately.

        ``compute`` must be self-contained: it runs on a worker thread
        and may not touch any state shared with the caller (the service
        hands it a closure over a private graph snapshot).
        """
        with self._lock:
            self._evict_finished_locked()
            if len(self._tasks) >= self.max_tasks:
                raise ServiceError(
                    f"task table full ({self.max_tasks} tasks queued or "
                    "running); retry after polling existing tasks"
                )
            self._counter += 1
            task = BackgroundTask(f"t{self._counter}", op, version)
            self._tasks[task.task_id] = task
            self.submitted += 1
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-task"
                )
            executor = self._executor
        executor.submit(self._run, task, compute)
        return task

    def _run(self, task: BackgroundTask, compute: Callable[[], Any]) -> None:
        """Worker-thread body: run one compute, record its outcome."""
        with self._lock:
            if task.state != "queued":  # cancelled before it started
                task.finished.set()
                return
            task.state = "running"
        try:
            value = compute()
        except REQUEST_ERRORS as exc:
            with self._lock:
                if task.state == "running":
                    task.state = "error"
                    task.error = f"{type(exc).__name__}: {exc}"
                    self.failed += 1
                task.finished.set()
        else:
            with self._lock:
                if task.state == "running":
                    task.state = "done"
                    task.value = value
                    self.completed += 1
                # A task cancelled mid-run keeps its cancelled state;
                # the computed value is discarded.
                task.finished.set()

    # -- the op family ----------------------------------------------------------

    def _get(self, task_id: str) -> BackgroundTask:
        task = self._tasks.get(task_id)
        if task is None:
            raise ServiceError(
                f"unknown task {task_id!r} (never submitted, or evicted "
                "from the bounded table)"
            )
        return task

    def status(self, task_id: str) -> dict:
        """The ``status`` payload of one task."""
        with self._lock:
            return self._get(task_id).status()

    def result(self, task_id: str) -> Any:
        """The computed value of a ``done`` task.

        Pending tasks get a structured "still running" error (poll
        ``status``); failed tasks re-raise their recorded error;
        cancelled tasks never yield a value.
        """
        with self._lock:
            task = self._get(task_id)
            if task.state in ("queued", "running"):
                raise ServiceError(
                    f"task {task_id!r} is still {task.state}; poll status "
                    "until it finishes"
                )
            if task.state == "cancelled":
                raise ServiceError(f"task {task_id!r} was cancelled")
            if task.state == "error":
                raise ServiceError(
                    f"task {task_id!r} failed: {task.error}"
                )
            return task.value

    def cancel(self, task_id: str) -> dict:
        """Cancel a task; returns its (possibly unchanged) status.

        Queued tasks never start; running tasks are flipped to
        ``cancelled`` and their eventual value discarded.  Cancelling a
        finished task is a no-op reporting the terminal state.
        """
        with self._lock:
            task = self._get(task_id)
            if task.state in ("queued", "running"):
                if task.state == "queued":
                    task.finished.set()
                task.state = "cancelled"
                self.cancelled += 1
            return task.status()

    def wait(self, task_id: str, timeout: float | None = None) -> bool:
        """Block until the task reaches a terminal state (or ``timeout``
        seconds pass); returns whether it finished.

        This is the synchronous join for in-process callers and tests.
        It must never run on the event loop — the async front end polls
        ``status`` instead (enforced by RL005's blocking-call check on
        ``task_wait``, the service-level name of this join).
        """
        with self._lock:
            task = self._get(task_id)
        return task.finished.wait(timeout)

    # -- bounds and teardown ----------------------------------------------------

    def _evict_finished_locked(self) -> None:
        """Drop oldest finished tasks until the table has a free slot."""
        while len(self._tasks) >= self.max_tasks:
            victim = next(
                (
                    task_id
                    for task_id, task in self._tasks.items()
                    if task.state in FINISHED_STATES
                ),
                None,
            )
            if victim is None:
                return
            del self._tasks[victim]
            self.evicted += 1

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the worker pool (idempotent).  Queued tasks that
        never started are flipped to ``cancelled``."""
        with self._lock:
            executor = self._executor
            self._executor = None
            for task in self._tasks.values():
                if task.state == "queued":
                    task.state = "cancelled"
                    self.cancelled += 1
                    task.finished.set()
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __len__(self) -> int:
        return len(self._tasks)

    def stats(self) -> dict:
        """A JSON-able snapshot of the table counters."""
        with self._lock:
            states: dict[str, int] = {}
            for task in self._tasks.values():
                states[task.state] = states.get(task.state, 0) + 1
            return {
                "max_tasks": self.max_tasks,
                "live": len(self._tasks),
                "states": states,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "evicted": self.evicted,
            }

    def __repr__(self) -> str:
        return (
            f"TaskTable({len(self._tasks)}/{self.max_tasks} live, "
            f"{self.submitted} submitted, {self.completed} completed)"
        )
