"""Self-tests of the benchmark, on the tiny size of every workload.

Run from the repository root: ``python3 -m pytest perfbench -q``
(about a minute; each case starts real server processes).
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from loadgen import Record  # noqa: E402
from workloads import make_workloads  # noqa: E402

WORKLOADS = sorted(make_workloads())


def _result(capsys, *args: str) -> dict:
    code = run.main(["--tiny", "--seed", "5", "--seconds", "1", *args])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = _result(capsys, "--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_corrupted_answer_is_counted_as_failed():
    result = run.run("hot-read", seed=5, seconds=1, trace=True, tiny=True, corrupt=1)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["failed_fraction"]["value"] == 1 / result["attempted"]


def test_refuses_to_run_with_overridden_defaults(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SWEEP_KERNEL", "bignum")
    code = run.main(["--workload", "hot-read", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_a_renamed_entry_point_fails_the_trace():
    with pytest.raises(tracing.TraceError, match="no longer exists"):
        tracing._resolve("repro.core.parallel", "build_sweep_plan_renamed")


def test_a_wrong_traced_answer_fails_the_trace():
    phase = run.Phase()
    phase.records = [
        Record(op={"op": "reach"}, id=1, due=0.0, ok=True, result=True),
        Record(op={"op": "reach"}, id=2, due=0.0, error="unknown op"),
    ]
    with pytest.raises(tracing.TraceError, match="1 of 2 requests wrongly"):
        run.layers(phase, phase, make_workloads(tiny=True)["hot-read"])


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()
    module = types.SimpleNamespace()

    def inner():
        sum(range(20000))

    def outer():
        module.inner()
        sum(range(20000))

    module.inner = tracer.layer("inner", inner)
    module.outer = tracer.layer("outer", outer)
    module.outer()
    (inner_span, outer_span) = tracer.spans
    assert inner_span[2] == "outer" and outer_span[2] is None
    assert outer_span[4] == pytest.approx(outer_span[3] - inner_span[3])
    assert inner_span[4] == inner_span[3]


def test_benchmark_json_names_what_the_benchmark_emits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(make_workloads())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
