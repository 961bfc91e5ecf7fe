"""Frame fuzzer: arbitrary JSON in every field of every protocol op.

Each example sends one request through
:func:`~repro.service.server.handle_request` on a fresh three-node
service.  Every field of the op's :data:`~repro.service.server.OPS`
entry is left out, set to an arbitrary JSON value, or set to a value
near what its kind accepts (a schedule spec with a known or unknown
kind, a semantics string, a node name).  Date fields are drawn from the
small window [-4, 40] or from values the date kind refuses, so no
request buys a large sweep.

Every request must get a response dict within :data:`TIME_BOUND`
seconds; a value a field kind refuses must come back as
``ServiceError: op '<op>' field '<field>'``; no refusal may be a
``KeyError``, ``TypeError``, ``ValueError`` or ``AttributeError``; and
a refused mutation must leave the graph's version as it was.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builders import TVGBuilder
from repro.errors import ReproError
from repro.service.server import OPS, REQUIRED, handle_request
from repro.service.service import TVGService

#: Seconds any one request may take on the fuzzer's small service.
TIME_BOUND = 5.0

MUTATIONS = ("add_edge", "remove_edge", "set_presence")
RAW_ERRORS = ("KeyError:", "TypeError:", "ValueError:", "AttributeError:")
ABSENT = object()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
small = st.integers(-3, 12)


def _near(fields: dict) -> dict:
    """Each strategy of ``fields``, or an arbitrary JSON value instead."""
    return {name: strategy | json_values for name, strategy in fields.items()}


presence_kinds = ["always", "never", "periodic", "intervals", "at", "quantum"]
presence_specs = st.fixed_dictionaries(
    {"kind": st.sampled_from(presence_kinds)},
    optional=_near({
        "pattern": st.lists(small, max_size=4),
        "period": small,
        "pairs": st.lists(st.lists(small, max_size=3), max_size=3),
        "times": st.lists(small, max_size=4),
    }),
)
latency_specs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["constant", "affine", "table", "vibes"])},
    optional=_near({
        "value": small,
        "slope": small,
        "intercept": small,
        "entries": st.lists(st.lists(small, max_size=3), max_size=3),
        "default": small,
    }),
)
refused_dates = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.lists(json_values, max_size=2)
    | st.dictionaries(st.text(max_size=3), json_values, max_size=2)
    | st.integers(min_value=2**62) | st.integers(max_value=-(2**62))
)
dates = st.integers(-4, 40) | refused_dates

#: Per field name, the values worth sending besides arbitrary JSON.
FIELD_VALUES = {
    "source": st.sampled_from(["a", "b", "c", "x"]),
    "target": st.sampled_from(["a", "b", "c", "x"]),
    "key": st.sampled_from(["ab", "bc", "zz"]),
    "label": st.sampled_from(["x", None]),
    "presence": presence_specs,
    "latency": latency_specs,
    "semantics": st.sampled_from(
        ["wait", "nowait", "wait[0]", "wait[3]", "wait[-1]", "wait[x]", "WAIT",
         "wait[99999999999999999999999]"]
    ),
    "workers": st.lists(
        st.sampled_from(
            ["127.0.0.1:7713", "[::1]:7713", "::1:7713", "no-port", "127.0.0.1:99999"]
        ),
        max_size=3,
    ),
    "task": st.sampled_from(["t0", "t1", ""]),
    "request": st.deferred(lambda: nested_requests),
}
DATE_FIELDS = ("start", "end", "horizon")


def requests_for(op: str) -> st.SearchStrategy:
    """One request of ``op``: each field absent, arbitrary or near valid."""
    fields = {}
    for name, _kind, _default in OPS[op].fields:
        if name in DATE_FIELDS:
            fields[name] = st.just(ABSENT) | dates
        else:
            fields[name] = st.just(ABSENT) | json_values | FIELD_VALUES[name]
    return st.fixed_dictionaries(fields).map(
        lambda drawn: {
            "op": op, **{k: v for k, v in drawn.items() if v is not ABSENT}
        }
    )


nested_requests = st.sampled_from(
    sorted(op for op, spec in OPS.items() if spec.background)
).flatmap(requests_for)


def small_service() -> TVGService:
    return TVGService(
        TVGBuilder(name="line")
        .lifetime(0, 10)
        .edge("a", "b", present=[(0, 2)], key="ab")
        .edge("b", "c", present=[(5, 7)], key="bc")
        .build()
    )


def refused_field(op: str, request: dict) -> str | None:
    """The first field whose kind refuses the request's value, if any."""
    for name, kind, default in OPS[op].fields:
        value = request.get(name, default)
        if value is REQUIRED:
            continue
        try:
            kind(value)
        except ReproError:
            return name
    return None


@pytest.mark.parametrize("op", sorted(OPS))
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True, print_blob=True)
def test_every_request_gets_one_structured_frame(op, data):
    request = data.draw(requests_for(op), label="request")
    service = small_service()
    try:
        version = service.graph.version
        began = time.perf_counter()
        response = handle_request(service, request)
        elapsed = time.perf_counter() - began
        assert isinstance(response, dict) and response["ok"] in (True, False)
        assert elapsed < TIME_BOUND, f"{op} took {elapsed:.2f} s"
        if response["ok"]:
            return
        error = response["error"]
        assert isinstance(error, str) and not error.startswith(RAW_ERRORS), error
        field = refused_field(op, request)
        if field is not None:
            prefix = f"ServiceError: op '{op}' field '{field}': "
            assert error.startswith(prefix), error
        if op in MUTATIONS:
            assert service.graph.version == version
    finally:
        service.close()
