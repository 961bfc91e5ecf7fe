"""Tests for the workload registry and the service trace driver."""

import json

import pytest

from repro.analysis.connectivity import classify_connectivity
from repro.dynamics.workloads import (
    all_workloads,
    generate_service_trace,
    make_workload,
    sparse_dtn,
    workload_names,
)
from repro.errors import ReproError
from repro.service.server import handle_request
from repro.service.service import TVGService


class TestRegistry:
    def test_names_sorted_and_nonempty(self):
        names = workload_names()
        assert names == sorted(names)
        assert len(names) >= 6

    def test_make_by_name(self):
        for name in workload_names():
            workload = make_workload(name, seed=1)
            assert workload.name == name
            assert workload.graph.node_count >= 2
            assert workload.start < workload.end

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            make_workload("quantum-teleporter")

    def test_all_workloads(self):
        workloads = all_workloads(seed=2)
        assert len(workloads) == len(workload_names())

    def test_endpoints_exist(self):
        for workload in all_workloads(seed=0):
            assert workload.graph.has_node(workload.source)
            assert workload.graph.has_node(workload.destination)
            assert workload.source != workload.destination


class TestScenarioShapes:
    @pytest.mark.slow
    def test_sparse_dtn_is_paper_regime_often(self):
        hits = 0
        for seed in range(5):
            w = sparse_dtn(seed)
            report = classify_connectivity(w.graph, w.start, w.end)
            if report.never_snapshot_connected:
                hits += 1
        assert hits >= 3  # sparse settings: snapshots essentially never connect

    def test_night_bus_periodic(self):
        w = make_workload("night-bus")
        assert w.graph.period == 8

    def test_determinism(self):
        a = make_workload("bernoulli-cloud", seed=7)
        b = make_workload("bernoulli-cloud", seed=7)
        from repro.core.snapshots import presence_density

        assert presence_density(a.graph, *a.window) == presence_density(
            b.graph, *b.window
        )


class TestServiceTraces:
    def test_generation_is_deterministic_and_jsonable(self):
        workload = make_workload("flaky-backbone")
        first = generate_service_trace(workload, operations=60, seed=3)
        second = generate_service_trace(workload, operations=60, seed=3)
        assert first == second
        assert len(first) == 60
        assert first == json.loads(json.dumps(first))
        assert generate_service_trace(workload, operations=60, seed=4) != first

    def test_trace_mixes_queries_and_mutations(self):
        workload = make_workload("flaky-backbone")
        trace = generate_service_trace(
            workload, operations=50, mutation_every=5, seed=1
        )
        ops = {entry["op"] for entry in trace}
        mutations = [
            e for e in trace
            if e["op"] in ("add_edge", "remove_edge", "set_presence")
        ]
        assert len(mutations) == 10  # every 5th of 50
        assert {"reach", "arrival"} <= ops

    def test_mutation_every_zero_means_queries_only(self):
        workload = make_workload("flaky-backbone")
        trace = generate_service_trace(
            workload, operations=30, mutation_every=0, seed=0
        )
        assert all(
            e["op"] in ("reach", "arrival", "growth", "classify") for e in trace
        )

    def test_replay_twice_yields_identical_answer_streams(self):
        """The determinism guard for the benchmark: a recorded workload
        replayed against two fresh services answers identically."""
        trace = generate_service_trace(
            make_workload("flaky-backbone"), operations=60, seed=9
        )
        streams = [
            [handle_request(service, op) for op in trace]
            for service in (
                TVGService(make_workload("flaky-backbone").graph) for _ in range(2)
            )
        ]
        assert streams[0] == streams[1]
        assert len(streams[0]) == 60
        assert all(response["ok"] for response in streams[0])

    def test_replay_actually_mutates_the_service(self):
        workload = make_workload("night-bus")
        service = TVGService(workload.graph)
        version = service.graph.version
        trace = generate_service_trace(
            workload, operations=20, mutation_every=2, seed=2
        )
        responses = [handle_request(service, op) for op in trace]
        assert service.graph.version > version
        assert service.mutations_applied == 10
        assert all(response["ok"] for response in responses)

    def test_removals_only_name_keys_the_trace_added(self):
        workload = make_workload("flaky-backbone")
        initial_keys = {e.key for e in workload.graph.edges}
        trace = generate_service_trace(
            workload, operations=200, mutation_every=2, seed=11
        )
        added, touched = set(), []
        for entry in trace:
            if entry["op"] == "add_edge":
                added.add(entry["key"])
            elif entry["op"] in ("remove_edge", "set_presence"):
                touched.append(entry["key"])
        assert touched, "a long trace should remove or reschedule something"
        assert all(key in added for key in touched)
        assert not any(key in initial_keys for key in added)
