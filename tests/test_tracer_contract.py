"""The benchmark tracer's contract with the code it wraps.

``perfbench/tracing.py`` wraps layer entry points by name from outside
the package and sizes what they return; a renamed entry point, a
module-level import that bypasses the wrapper, or a plan whose
``contacts`` are not sized only breaks the traced benchmark run.  This
pins the contract without sockets: every ``LAYER_POINTS`` entry
resolves, and installing the tracer around a tiny in-process service
records compile, plan and kernel spans with their annotations, in a
dump that encodes as JSON as the launcher sends it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import repro.service.server as server
from repro.core.builders import TVGBuilder
from repro.core.presence import function_presence, periodic_presence
from repro.service.service import TVGService

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture()
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def installed(tracing, monkeypatch):
    """A tracer installed over the live modules; every wrapped name is
    restored afterwards."""
    for module, path, _name in tracing.LAYER_POINTS:
        owner, attribute, target = tracing._resolve(module, path)
        monkeypatch.setattr(owner, attribute, target)
    monkeypatch.setattr(server, "handle_request", server.handle_request)
    monkeypatch.setattr(server, "json", server.json)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _graph():
    return (
        TVGBuilder(name="tiny")
        .lifetime(0, 8)
        .edge("a", "b", present=periodic_presence([0, 2], 4), key="ab")
        .edge("b", "c", present=function_presence(lambda t: t % 3 == 1), key="bc")
        .edge("c", "a", present=[(2, 6)], key="ca")
        .build()
    )


def test_every_layer_point_resolves(tracing):
    for module, path, _name in tracing.LAYER_POINTS:
        _owner, _attribute, target = tracing._resolve(module, path)
        assert callable(target)


def test_traced_service_records_every_pipeline_layer(installed):
    service = TVGService(_graph())
    growth = {"op": "growth", "start": 0, "end": 8}
    assert server.handle_request(service, {"id": 1, **growth})["ok"]
    compiled = service.engine.compiled.contacts
    structured = sum(len(c) for c in compiled if c is not None)
    swap = {"op": "set_presence", "key": "ab",
            "presence": {"kind": "periodic", "pattern": [1], "period": 4}}
    assert server.handle_request(service, {"id": 2, **swap})["ok"]
    assert server.handle_request(service, {"id": 3, **growth})["ok"]
    service.close()

    spans: dict[str, list] = {}
    for request, name, *_times, amount, flag in installed.spans:
        spans.setdefault(name, []).append((request, amount, flag))
    assert spans["index.compile"] == [(1, structured, True)]
    assert spans["index.patch"] == [(3, 0, True)]
    builds = spans["plan.build"]
    assert [(request, flag) for request, _amount, flag in builds] == [
        (1, True), (3, True),
    ]
    plan = service.engine._plan_memo[next(iter(service.engine._plan_memo))][1]
    assert builds[-1][1] == sum(map(len, plan.contacts)) == len(plan.dep)
    assert {request for request, _a, _f in spans["kernel.lower"]} == {1, 3}
    assert [request for request, _a, _f in spans["engine.incremental"]] == [3]
    assert [h[0] for h in installed.handles] == [1, 2, 3]
    # The launcher ships the dump as JSON: every recorded amount must
    # be a plain number.
    json.dumps(installed.dump())


def test_traced_classify_records_every_plan_it_builds(installed):
    # C1 holds and C3 does not, so no sweep builds the whole window's
    # plan: only the schedule checkers do.
    graph = (
        TVGBuilder(name="pair")
        .lifetime(0, 8)
        .edge("a", "b", present=[(0, 6)], key="ab")
        .edge("b", "a", present=[(0, 6)], key="ba")
        .build()
    )
    service = TVGService(graph)
    classify = {"id": 1, "op": "classify", "start": 0, "end": 8}
    assert server.handle_request(service, classify)["ok"]
    service.close()

    names = [name for _request, name, *_rest in installed.spans]
    built = [flag for _r, name, *_t, flag in installed.spans if name == "plan.build"]
    assert sum(built) == len(service.engine._plan_memo)
    assert names.count("derive.classify") == 1
    assert 1 <= names.count("kernel.sweep") <= 4
