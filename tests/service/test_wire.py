"""Round-trip tests for the wire's packed sweep-plan and offset-matrix specs."""

import base64
import json

import numpy as np
import pytest
from plan_helpers import make_plan

from repro.core.parallel import SweepPlan, sweep_block
from repro.errors import ServiceError
from repro.service.wire import (
    matrix_from_spec,
    matrix_to_spec,
    plan_from_spec,
    plan_to_spec,
)


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
    @pytest.mark.parametrize("dtype", ["uint8", "uint16", "uint32", "uint64"])
    def test_round_trip_through_json(self, dtype):
        info = np.iinfo(dtype)
        matrix = np.array(
            [[0, 1, info.max - 1], [info.max, 7, info.max]], dtype=dtype
        )
        spec = json.loads(json.dumps(matrix_to_spec(matrix)))
        assert spec["dtype"] == dtype
        back = matrix_from_spec(spec)
        assert back.dtype == matrix.dtype and np.array_equal(back, matrix)

    def test_uint64_offsets_of_a_huge_latency_round_trip(self):
        plan = make_plan(
            n=2, out_edges=[[0], []], target_idx=[1], contacts=[[0, 1]],
            arrivals=[[2**61, 2**61 + 1]], start_time=0, horizon=2, max_wait=None,
        )
        offsets = sweep_block(plan, range(plan.n))
        assert offsets.dtype == np.uint64 and offsets[0, 1] == 2**61
        back = matrix_from_spec(json.loads(json.dumps(matrix_to_spec(offsets))))
        assert back.dtype == np.uint64 and np.array_equal(back, offsets)

    def test_empty_matrix_round_trips(self):
        matrix = np.zeros((0, 7), dtype=np.uint8)
        back = matrix_from_spec(matrix_to_spec(matrix))
        assert back.shape == (0, 7) and back.dtype == np.uint8

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.bool_, np.int8])
    def test_only_offset_dtypes_are_encoded(self, dtype):
        with pytest.raises(ServiceError):
            matrix_to_spec(np.zeros((2, 2), dtype=dtype))

    @pytest.mark.parametrize(
        "corruption",
        [
            {"kind": "sweep_plan"},
            {"kind": "int64_matrix"},  # the old int64 frame's kind
            {"rows": 99},            # data no longer matches rows*cols
            {"rows": -1},
            {"data": "AAAA"},
            {"data": None},
            {"dtype": "int64"},
            {"dtype": "uint128"},
            {"dtype": None},
            {"dtype": ["uint16"]},
            # 4 uint16 values' bytes under a uint32 header: the byte
            # count is not rows x cols x itemsize.
            {"dtype": "uint32"},
            # An odd byte count under a uint16 header.
            {"data": base64.b64encode(bytes(7)).decode("ascii")},
        ],
    )
    def test_malformed_specs_rejected(self, corruption):
        spec = {**matrix_to_spec(np.zeros((2, 2), dtype=np.uint16)), **corruption}
        with pytest.raises(ServiceError):
            matrix_from_spec(spec)

    def test_the_old_int64_frame_is_refused(self):
        legacy = {
            "kind": "int64_matrix",
            "rows": 1,
            "cols": 1,
            "data": base64.b64encode(np.zeros(1, dtype="<i8").tobytes()).decode(),
        }
        with pytest.raises(ServiceError):
            matrix_from_spec(legacy)
