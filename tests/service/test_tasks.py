"""Unit tests for the bounded background-task table.

The table is exercised directly with plain callables here — Event-gated
computes make the concurrency deterministic (a task "runs" only while
the test holds its gate open).  Service-level snapshot semantics
(version stamping, staleness, answer equality with the sync path) are
covered in ``test_service.py`` and the property suite.
"""

import threading

import pytest

from repro.errors import ServiceError
from repro.service.tasks import DEFAULT_MAX_TASKS, TaskTable


@pytest.fixture
def table():
    table = TaskTable(max_tasks=4)
    yield table
    table.shutdown(wait=True)


def test_lifecycle_submit_poll_result(table):
    task = table.submit("growth", version=3, compute=lambda: [[0, 0.5]])
    assert table.wait(task.task_id, timeout=5)
    status = table.status(task.task_id)
    assert status == {
        "task": task.task_id, "op": "growth", "state": "done", "version": 3,
    }
    assert table.result(task.task_id) == [[0, 0.5]]


def test_result_before_completion_is_a_structured_error(table):
    gate = threading.Event()
    task = table.submit("reach", version=1, compute=gate.wait)
    try:
        with pytest.raises(ServiceError, match="still (queued|running)"):
            table.result(task.task_id)
    finally:
        gate.set()


def test_failed_compute_records_the_error(table):
    def explode():
        raise ValueError("no such node")

    task = table.submit("reach", version=1, compute=explode)
    assert table.wait(task.task_id, timeout=5)
    status = table.status(task.task_id)
    assert status["state"] == "error"
    assert status["error"] == "ValueError: no such node"
    with pytest.raises(ServiceError, match="failed: ValueError: no such node"):
        table.result(task.task_id)


def test_cancel_queued_task_never_starts():
    # One worker pinned by a gated task => the second submit stays queued.
    table = TaskTable(max_tasks=4)
    gate = threading.Event()
    ran = []
    try:
        blocker = table.submit("reach", version=1, compute=gate.wait)
        queued = table.submit(
            "reach", version=1, compute=lambda: ran.append(True)
        )
        status = table.cancel(queued.task_id)
        assert status["state"] == "cancelled"
        gate.set()
        assert table.wait(blocker.task_id, timeout=5)
        table.shutdown(wait=True)
        assert ran == []
        with pytest.raises(ServiceError, match="was cancelled"):
            table.result(queued.task_id)
    finally:
        gate.set()
        table.shutdown(wait=True)


def test_cancel_running_task_discards_its_value(table):
    gate = threading.Event()
    task = table.submit("reach", version=1, compute=lambda: gate.wait() or 42)
    # Wait for it to actually start so cancel hits the running state.
    for _ in range(500):
        if table.status(task.task_id)["state"] == "running":
            break
        threading.Event().wait(0.005)
    assert table.cancel(task.task_id)["state"] == "cancelled"
    gate.set()
    assert table.wait(task.task_id, timeout=5)
    assert table.status(task.task_id)["state"] == "cancelled"
    with pytest.raises(ServiceError, match="was cancelled"):
        table.result(task.task_id)
    assert task.value is None


def test_cancel_finished_task_is_a_noop(table):
    task = table.submit("ping", version=1, compute=lambda: "pong")
    assert table.wait(task.task_id, timeout=5)
    assert table.cancel(task.task_id)["state"] == "done"
    assert table.result(task.task_id) == "pong"


def test_unknown_task_ids_error(table):
    with pytest.raises(ServiceError, match="unknown task 'nope'"):
        table.status("nope")
    with pytest.raises(ServiceError, match="unknown task"):
        table.result("nope")
    with pytest.raises(ServiceError, match="unknown task"):
        table.cancel("nope")
    with pytest.raises(ServiceError, match="unknown task"):
        table.wait("nope")


def test_eviction_under_churn_drops_oldest_finished():
    table = TaskTable(max_tasks=3)
    try:
        first = table.submit("ping", version=1, compute=lambda: 1)
        assert table.wait(first.task_id, timeout=5)
        for _ in range(2):
            done = table.submit("ping", version=1, compute=lambda: 1)
            assert table.wait(done.task_id, timeout=5)
        assert len(table) == 3
        # Table full of finished tasks: the next submit evicts the oldest.
        table.submit("ping", version=1, compute=lambda: 1)
        assert table.evicted == 1
        with pytest.raises(ServiceError, match="evicted"):
            table.status(first.task_id)
    finally:
        table.shutdown(wait=True)


def test_backpressure_when_full_of_unfinished_tasks():
    table = TaskTable(max_tasks=2)
    gate = threading.Event()
    try:
        table.submit("reach", version=1, compute=gate.wait)
        table.submit("reach", version=1, compute=gate.wait)
        with pytest.raises(ServiceError, match="task table full"):
            table.submit("reach", version=1, compute=lambda: 1)
        assert table.submitted == 2
    finally:
        gate.set()
        table.shutdown(wait=True)


def test_shutdown_cancels_queued_tasks():
    table = TaskTable(max_tasks=4)
    gate = threading.Event()
    blocker = table.submit("reach", version=1, compute=gate.wait)
    queued = table.submit("reach", version=1, compute=lambda: 1)
    gate.set()
    table.shutdown(wait=True)
    assert table.status(queued.task_id)["state"] in ("cancelled", "done")
    assert table.status(blocker.task_id)["state"] == "done"
    table.shutdown(wait=True)  # idempotent


def test_stats_counters():
    table = TaskTable(max_tasks=4)
    try:
        done = table.submit("ping", version=1, compute=lambda: 1)
        assert table.wait(done.task_id, timeout=5)

        def explode():
            raise KeyError("x")

        failed = table.submit("ping", version=1, compute=explode)
        assert table.wait(failed.task_id, timeout=5)
        stats = table.stats()
        assert stats["max_tasks"] == 4
        assert stats["live"] == 2
        assert stats["submitted"] == 2
        assert stats["completed"] == 1
        assert stats["failed"] == 1
        assert stats["states"] == {"done": 1, "error": 1}
    finally:
        table.shutdown(wait=True)


def test_default_bound_and_bad_parameters():
    assert TaskTable().max_tasks == DEFAULT_MAX_TASKS
    with pytest.raises(ValueError):
        TaskTable(max_tasks=0)
