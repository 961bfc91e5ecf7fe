"""Fixture pairs per rule: one clean source, one violating source.

The violating fixtures double as the acceptance pins: removing the
version bump from the *real* ``TimeVaryingGraph`` source must trip
RL002, and adding a ``service`` import to a ``core`` module must trip
RL001 — exactly the regressions the gate exists to catch.
"""

import inspect
from pathlib import Path

from repro.core.tvg import TimeVaryingGraph
from repro.devtools import discover_mutators, lint_source
from repro.devtools.rules import LAYER_RANKS, check_wire_pairs


def rules_fired(source: str, module: str) -> list[str]:
    return [f.rule for f in lint_source(source, module=module)]


class TestRL001Layering:
    def test_clean_downward_import(self):
        src = "from repro.core.tvg import TimeVaryingGraph\n"
        assert rules_fired(src, "repro.service.service") == []

    def test_violating_upward_import(self):
        src = "from repro.service.server import handle_request\n"
        assert rules_fired(src, "repro.core.engine") == ["RL001"]

    def test_real_core_module_with_service_import_fails(self):
        core = Path("src/repro/core/counting.py").read_text()
        src = core + "\nfrom repro.service.server import handle_request\n"
        assert "RL001" in rules_fired(src, "repro.core.counting")

    def test_type_checking_import_is_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.service.cluster import ClusterExecutor\n"
        )
        assert rules_fired(src, "repro.core.engine") == []

    def test_relative_import_resolves_against_own_package(self):
        src = "from ..service import server\n"
        assert rules_fired(src, "repro.core.engine") == ["RL001"]

    def test_upward_lazy_export_entry_is_flagged(self):
        src = (
            "from repro._lazy import lazy_exports\n"
            "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
            "    'repro.analysis.classes': ('classify',),\n"
            "    'repro.service.server': ('handle_request',),\n"
            "})\n"
        )
        findings = lint_source(src, module="repro.analysis")
        assert [(f.rule, f.line) for f in findings] == [("RL001", 4)]
        assert "repro.service.server" in findings[0].message
        assert rules_fired(src, "repro.service") == []

    def test_real_facade_tables_are_read(self):
        facade = Path("src/repro/__init__.py").read_text()
        assert rules_fired(facade, "") == []
        assert rules_fired(facade, "repro.core") == ["RL001"] * 4

    def test_rank_map_matches_the_roadmap_stack(self):
        assert LAYER_RANKS["_lazy"] <= LAYER_RANKS["core"]
        assert LAYER_RANKS["core"] < LAYER_RANKS["automata"]
        assert LAYER_RANKS["automata"] < LAYER_RANKS["service"]
        assert LAYER_RANKS["dynamics"] < LAYER_RANKS["service"]
        assert LAYER_RANKS["service"] < LAYER_RANKS["cli"]


TVG_SOURCE = inspect.getsource(TimeVaryingGraph)


class TestRL002VersionBumps:
    def test_real_tree_mutator_list(self):
        assert discover_mutators(TVG_SOURCE) == {
            "add_node", "add_nodes", "add_edge", "add_edge_object",
            "add_contact", "set_presence", "remove_edge",
        }

    def test_deleting_the_bump_from_the_real_source_fails_the_gate(self):
        broken = TVG_SOURCE.replace("self._version += 1", "pass")
        assert broken != TVG_SOURCE
        findings = lint_source(broken, module="repro.core.tvg")
        assert {f.rule for f in findings} == {"RL002"}
        flagged = {f.message.split()[1].rstrip("()") for f in findings}
        assert flagged == discover_mutators(TVG_SOURCE)

    def test_deleting_the_delta_append_also_fails(self):
        broken = TVG_SOURCE.replace("self._deltas.append(", "list(")
        findings = lint_source(broken, module="repro.core.tvg")
        assert findings and all(f.rule == "RL002" for f in findings)

    def test_clean_minimal_graph_passes(self):
        src = (
            "class TimeVaryingGraph:\n"
            "    def add_node(self, n):\n"
            "        self._nodes[n] = None\n"
            "        self._record('add_node')\n"
            "    def _record(self, kind):\n"
            "        self._version += 1\n"
            "        self._deltas.append(kind)\n"
        )
        assert rules_fired(src, "repro.core.tvg") == []

    def test_writes_to_a_clone_are_not_mutations(self):
        src = (
            "class TimeVaryingGraph:\n"
            "    def copy(self):\n"
            "        clone = TimeVaryingGraph()\n"
            "        clone._nodes['x'] = None\n"
            "        return clone\n"
        )
        assert rules_fired(src, "repro.core.tvg") == []


class TestRL003PlanPurity:
    def test_plain_data_plan_is_clean(self):
        src = (
            "from repro.core.parallel import SweepPlan\n"
            "plan = SweepPlan(n=2, out_edges=((), ()), start_time=0)\n"
        )
        assert rules_fired(src, "repro.core.engine") == []

    def test_lambda_into_plan_is_flagged(self):
        src = (
            "from repro.core.parallel import SweepPlan\n"
            "plan = SweepPlan(n=2, key=lambda e: e.t)\n"
        )
        assert rules_fired(src, "repro.core.engine") == ["RL003"]

    def test_local_function_reference_is_flagged(self):
        src = (
            "from repro.core.parallel import SweepPlan\n"
            "def helper(e):\n"
            "    return e\n"
            "plan = SweepPlan(n=2, key=helper)\n"
        )
        assert rules_fired(src, "repro.service.wire") == ["RL003"]

    def test_parallel_module_lowering_is_sanctioned(self):
        src = "plan = SweepPlan(n=2, key=lambda e: e.t)\n"
        assert rules_fired(src, "repro.core.parallel") == []


class TestRL004BoundaryErrors:
    def test_narrow_except_is_clean(self):
        src = (
            "def pull():\n"
            "    try:\n"
            "        work()\n"
            "    except (ConnectionError, OSError):\n"
            "        return None\n"
        )
        assert rules_fired(src, "repro.service.cluster") == []

    def test_broad_except_with_reraise_is_clean(self):
        src = (
            "def pull():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        raise ServiceError(str(exc)) from exc\n"
        )
        assert rules_fired(src, "repro.service.cluster") == []

    def test_swallowing_broad_except_is_flagged(self):
        src = (
            "def pull():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_fired(src, "repro.service.cluster") == ["RL004"]

    def test_bare_except_is_flagged(self):
        src = (
            "def pull():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        result = None\n"
        )
        assert rules_fired(src, "repro.service.cluster") == ["RL004"]

    def test_rule_only_applies_to_service_modules(self):
        src = (
            "def walk():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_fired(src, "repro.core.traversal") == []


class TestRL005AsyncHygiene:
    def test_offloaded_sweep_is_clean(self):
        src = (
            "import asyncio\n"
            "async def run(plan, block, kernel):\n"
            "    return await asyncio.to_thread(sweep_block, plan, block, kernel)\n"
        )
        assert rules_fired(src, "repro.service.cluster") == []

    def test_time_sleep_in_async_def_is_flagged(self):
        src = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.1)\n"
        )
        assert rules_fired(src, "repro.service.server") == ["RL005"]

    def test_direct_sweep_block_call_is_flagged(self):
        src = (
            "async def run(plan, block, kernel):\n"
            "    return sweep_block(plan, block, kernel=kernel)\n"
        )
        assert rules_fired(src, "repro.service.cluster") == ["RL005"]

    def test_nested_sync_def_is_not_event_loop_context(self):
        src = (
            "import time\n"
            "async def run():\n"
            "    def blocking_probe():\n"
            "        time.sleep(0.1)\n"
            "    return blocking_probe\n"
        )
        assert rules_fired(src, "repro.service.cluster") == []

    def test_sync_code_may_block(self):
        src = "import time\ndef wait():\n    time.sleep(0.1)\n"
        assert rules_fired(src, "repro.service.cluster") == []

    def test_task_wait_join_in_async_def_is_flagged(self):
        """The background-task join blocks the event loop just like a
        direct sweep would — async front ends must poll status."""
        src = (
            "async def collect(service, task_id):\n"
            "    service.task_wait(task_id, timeout=5)\n"
            "    return service.task_result(task_id)\n"
        )
        assert rules_fired(src, "repro.service.server") == ["RL005"]

    def test_bare_task_wait_call_is_flagged(self):
        src = (
            "async def collect(task_id):\n"
            "    task_wait(task_id)\n"
        )
        assert rules_fired(src, "repro.service.server") == ["RL005"]

    def test_task_wait_is_flagged_on_any_receiver(self):
        src = (
            "async def collect(registry, task_id):\n"
            "    registry.services[0].task_wait(task_id)\n"
        )
        assert rules_fired(src, "repro.service.server") == ["RL005"]

    def test_sync_task_wait_caller_is_clean(self):
        src = (
            "def collect(service, task_id):\n"
            "    service.task_wait(task_id, timeout=5)\n"
            "    return service.task_result(task_id)\n"
        )
        assert rules_fired(src, "repro.service.service") == []


class TestRealServiceFilesStayClean:
    """The traffic-hardening modules must stay lint-clean as written:
    RL004 (no swallowed broad excepts) and RL005 (no blocking calls in
    async front ends) both apply to them, and the task runner's narrow
    except tuple plus the server's poll-don't-join discipline are load-
    bearing for that."""

    @staticmethod
    def _lint(relative):
        source = Path("src/repro/service", relative).read_text()
        module = f"repro.service.{relative.removesuffix('.py')}"
        return [f.rule for f in lint_source(source, module=module)]

    def test_limits_module(self):
        assert self._lint("limits.py") == []

    def test_tasks_module(self):
        assert self._lint("tasks.py") == []

    def test_server_module(self):
        assert self._lint("server.py") == []

    def test_swallowing_task_errors_broadly_would_fail(self):
        """Pin the guarantee: if the task runner ever replaced its
        narrow except tuple with a swallowed broad one, RL004 fires."""
        source = Path("src/repro/service/tasks.py").read_text()
        narrow = "except REQUEST_ERRORS as exc:"
        assert narrow in source
        broken = source.replace(narrow, "except Exception as exc:")
        fired = [
            f.rule for f in lint_source(broken, module="repro.service.tasks")
        ]
        assert "RL004" in fired


class TestRL006WireCompleteness:
    CLEAN = (
        "def plan_to_spec(p):\n    return {}\n"
        "def plan_from_spec(s):\n    return None\n"
    )

    def test_paired_and_tested_is_clean(self):
        tests = ["assert plan_to_spec(p) and plan_from_spec(s)"]
        assert check_wire_pairs(self.CLEAN, tests) == []

    def test_missing_twin_is_flagged(self):
        src = "def plan_to_spec(p):\n    return {}\n"
        findings = check_wire_pairs(src, ["plan_to_spec"])
        assert [f.rule for f in findings] == ["RL006"]
        assert "twin" in findings[0].message

    def test_untested_pair_is_flagged(self):
        findings = check_wire_pairs(self.CLEAN, ["plan_to_spec only"])
        assert [f.message for f in findings] == [
            "plan_from_spec() is never exercised by the test tree"
        ]

    def test_real_wire_module_is_complete(self):
        wire = Path("src/repro/service/wire.py").read_text()
        tests = [
            p.read_text()
            for p in sorted(Path("tests").rglob("*.py"))
        ]
        assert check_wire_pairs(wire, tests) == []
