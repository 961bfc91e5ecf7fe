"""Round-trip tests for the wire specs."""

import base64
import json

import numpy as np
import pytest
from plan_helpers import make_plan

from repro.core.latency import constant_latency, function_latency
from repro.core.parallel import SweepPlan
from repro.core.presence import (
    always,
    at_times,
    function_presence,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.errors import ServiceError
from repro.service.wire import (
    latency_from_spec,
    latency_to_spec,
    matrix_from_spec,
    matrix_to_spec,
    parse_semantics,
    plan_from_spec,
    plan_to_spec,
    presence_from_spec,
    presence_to_spec,
)


class TestPresenceSpecs:
    @pytest.mark.parametrize(
        "presence",
        [
            always(),
            never(),
            periodic_presence([0, 2], 4),
            interval_presence([(0, 3), (7, 9)]),
            at_times([1, 4, 5]),
        ],
    )
    def test_round_trip_preserves_the_schedule(self, presence):
        spec = presence_to_spec(presence)
        json.dumps(spec)  # must be JSON-able
        rebuilt = presence_from_spec(spec)
        for t in range(0, 16):
            assert rebuilt(t) == presence(t)

    def test_none_means_always(self):
        assert presence_from_spec(None)(123)

    def test_blackbox_presence_has_no_wire_form(self):
        with pytest.raises(ServiceError):
            presence_to_spec(function_presence(lambda t: True, "opaque"))

    def test_combined_presence_has_no_wire_form(self):
        with pytest.raises(ServiceError):
            presence_to_spec(always().shifted(2))

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "quantum"},
            {"pattern": [0]},
            "periodic",
            {"kind": "periodic", "pattern": [0]},  # missing period
            {"kind": "periodic", "pattern": [0], "period": 0},
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ServiceError):
            presence_from_spec(spec)


class TestLatencySpecs:
    def test_round_trip(self):
        spec = latency_to_spec(constant_latency(3))
        json.dumps(spec)
        assert latency_from_spec(spec)(7) == 3

    def test_none_means_unit(self):
        assert latency_from_spec(None)(0) == 1

    def test_varying_latency_has_no_wire_form(self):
        with pytest.raises(ServiceError):
            latency_to_spec(function_latency(lambda t: t + 1))

    @pytest.mark.parametrize(
        "spec", [{"kind": "affine"}, {"value": 2}, {"kind": "constant", "value": 0}]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ServiceError):
            latency_from_spec(spec)


class TestSemanticsStrings:
    @pytest.mark.parametrize(
        "semantics", [WAIT, NO_WAIT, bounded_wait(0), bounded_wait(3)]
    )
    def test_str_round_trips(self, semantics):
        assert parse_semantics(str(semantics)) == semantics

    @pytest.mark.parametrize(
        "text", ["perhaps", "wait[x]", "wait[", "WAIT", "wait[-1]", "wait[]"]
    )
    def test_unknown_strings_rejected(self, text):
        with pytest.raises(ServiceError):
            parse_semantics(text)


def _plan():
    """A small but fully-populated plan (three nodes, two scheduled
    edges)."""
    return make_plan(
        n=3,
        out_edges=((0,), (1,), ()),
        target_idx=(1, 2),
        contacts=((0, 2, 5), (4,)),
        arrivals=((1, 3, 7), (6,)),
        start_time=0,
        horizon=8,
        max_wait=2,
    )


def _packed(values):
    return base64.b64encode(np.asarray(values, dtype="<i8").tobytes()).decode()


class TestSweepPlanSpecs:
    def test_round_trip_through_json(self):
        plan = _plan()
        spec = plan_to_spec(plan)
        assert plan_from_spec(json.loads(json.dumps(spec))) == plan

    def test_packed_not_listed(self):
        """Each plan array crosses as one base64 blob, not per-element
        JSON."""
        spec = plan_to_spec(_plan())
        for name in SweepPlan.ARRAYS:
            assert isinstance(spec[name], str), name

    @pytest.mark.parametrize(
        "corruption",
        [
            {"kind": "presence"},                         # wrong kind
            {"n": -1},                                    # negative node count
            {"n": 5},                                     # out_ptr no longer covers n
            {"max_wait": -2},                             # negative waiting bound
            {"max_wait": "x"},                            # non-numeric waiting bound
            {"target_idx": "!!not-base64!!"},             # undecodable payload
            {"target_idx": "AAAA"},                       # not whole int64s
            {"dep": None},                                # missing payload
            {"out_ptr": None},                            # missing offsets
            {"start": 10**30},                            # past int64
            {"start": -10**30},                           # below int64
            {"horizon": 2**63},                           # one past int64
            {"max_wait": 2**63},                          # one past int64
            {"n": 3.9},                                   # float, not int
            {"start": "0"},                               # string, not int
            {"max_wait": True},                           # bool, not int
        ],
    )
    def test_malformed_specs_rejected(self, corruption):
        spec = {**plan_to_spec(_plan()), **corruption}
        with pytest.raises(ServiceError):
            plan_from_spec(spec)

    @pytest.mark.parametrize(
        "name, values",
        [
            pytest.param("edge_ptr", [0, 5, 4], id="edge_ptr-non-monotone"),
            pytest.param("edge_ptr", [0, 3, 3], id="edge_ptr-short-of-dep"),
            pytest.param("edge_ptr", [1, 3, 4], id="edge_ptr-not-from-zero"),
            pytest.param("edge_ptr", [0, 4], id="edge_ptr-too-few-edges"),
            pytest.param("arr", [1, 3, 7], id="arr-shorter-than-dep"),
            pytest.param("dep", [0, 2, 5, 4, 6], id="dep-longer-than-arr"),
            pytest.param("target_idx", [1, 3], id="target-past-n"),
            pytest.param("target_idx", [-1, 2], id="target-negative"),
            pytest.param("out_edge_idx", [0, 2], id="out-edge-past-edges"),
            pytest.param("out_edge_idx", [-1, 1], id="out-edge-negative"),
            pytest.param("out_edge_idx", [0, 0], id="out-edge-listed-twice"),
            pytest.param("out_ptr", [0, 2, 1, 2], id="out_ptr-non-monotone"),
            pytest.param("out_ptr", [0, 1, 2], id="out_ptr-too-few-nodes"),
        ],
    )
    def test_malformed_flat_arrays_rejected(self, name, values):
        spec = plan_to_spec(_plan())
        spec[name] = _packed(values)
        with pytest.raises(ServiceError):
            plan_from_spec(spec)

    def test_truncated_payload_rejected(self):
        spec = plan_to_spec(_plan())
        # Keep valid base64 (a multiple of 4 chars) but drop half the
        # packed values, so the arrivals no longer align with dep.
        spec["arr"] = spec["arr"][: len(spec["arr"]) // 8 * 4]
        with pytest.raises(ServiceError):
            plan_from_spec(spec)

    def test_out_of_range_adjacency_rejected(self):
        spec = plan_to_spec(_plan())
        spec["target_idx"] = _packed([9, 9])
        with pytest.raises(ServiceError):
            plan_from_spec(spec)


class TestMatrixSpecs:
    def test_round_trip_through_json(self):
        matrix = np.arange(12, dtype=np.int64).reshape(3, 4) - 5
        spec = json.loads(json.dumps(matrix_to_spec(matrix)))
        assert np.array_equal(matrix_from_spec(spec), matrix)

    def test_empty_matrix_round_trips(self):
        matrix = np.zeros((0, 7), dtype=np.int64)
        assert matrix_from_spec(matrix_to_spec(matrix)).shape == (0, 7)

    @pytest.mark.parametrize(
        "corruption",
        [
            {"kind": "sweep_plan"},
            {"rows": 99},            # data no longer matches rows*cols
            {"rows": -1},
            {"data": "AAAA"},
            {"data": None},
        ],
    )
    def test_malformed_specs_rejected(self, corruption):
        spec = {**matrix_to_spec(np.zeros((2, 2), dtype=np.int64)), **corruption}
        with pytest.raises(ServiceError):
            matrix_from_spec(spec)
