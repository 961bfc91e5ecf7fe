"""Tests for TVG JSON serialization and the schedule codec."""

import json

import pytest

from repro.core.builders import TVGBuilder
from repro.core.latency import (
    affine_latency,
    constant_latency,
    function_latency,
    table_latency,
)
from repro.core.presence import (
    always,
    at_times,
    function_presence,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.serialize import (
    decode_latency,
    decode_presence,
    dumps,
    encode_latency,
    encode_presence,
    from_dict,
    load,
    loads,
    sampled,
    save,
    to_dict,
)
from repro.errors import ReproError, TraceFormatError


@pytest.fixture()
def graph():
    return (
        TVGBuilder(name="demo")
        .lifetime(0, 30)
        .periodic(6)
        .edge("a", "b", label="x", present=[(0, 3), (8, 10)], latency=2, key="ab")
        .edge("b", "c", label="y", period=(1, 6), key="bc")
        .edge("c", "a", latency=affine_latency(1, 1), key="ca")
        .build()
    )


class TestRoundTrip:
    def test_dict_round_trip(self, graph):
        again = from_dict(to_dict(graph))
        assert again.name == graph.name
        assert again.lifetime == graph.lifetime
        assert again.period == graph.period
        assert set(again.nodes) == set(graph.nodes)
        assert {e.key for e in again.edges} == {e.key for e in graph.edges}

    def test_schedules_survive(self, graph):
        again = loads(dumps(graph))
        original_ab, again_ab = graph.edge("ab"), again.edge("ab")
        for t in range(0, 12):
            assert original_ab.present_at(t) == again_ab.present_at(t), t
        assert again_ab.latency(0) == 2
        assert again.edge("ca").latency(5) == 6  # affine 1*t + 1

    def test_labels_survive(self, graph):
        again = loads(dumps(graph))
        assert again.edge("ab").label == "x"
        assert again.edge("ca").label is None

    def test_file_round_trip(self, graph, tmp_path):
        path = tmp_path / "graph.json"
        save(graph, path)
        again = load(path)
        assert again.edge_count == graph.edge_count

    def test_unbounded_lifetime(self):
        g = TVGBuilder().edge("a", "b", key="e").build()
        again = loads(dumps(g))
        assert not again.lifetime.bounded


class TestEncoders:
    def test_unknown_presence_kind(self):
        with pytest.raises(TraceFormatError):
            decode_presence({"kind": "astrology"})

    def test_unknown_latency_kind(self):
        with pytest.raises(TraceFormatError):
            decode_latency({"kind": "vibes"})

    @pytest.mark.parametrize(
        "presence",
        [function_presence(lambda t: True), always().shifted(2)],
        ids=["black-box", "combined"],
    )
    def test_black_box_presence_rejected(self, presence):
        with pytest.raises(ReproError, match="no finite description"):
            encode_presence(presence)

    def test_black_box_latency_rejected(self):
        with pytest.raises(ReproError):
            encode_latency(function_latency(lambda t: 1))

    def test_table_latency_round_trip(self):
        lat = table_latency({0: 3, 7: 2}, default=5)
        again = decode_latency(encode_latency(lat))
        assert again(0) == 3 and again(7) == 2 and again(1) == 5

    def test_wrong_format_rejected(self):
        with pytest.raises(TraceFormatError):
            from_dict({"format": "not-a-tvg"})

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceFormatError):
            from_dict({"format": "repro-tvg", "version": 99})


class TestScheduleCodec:
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
    def test_presence_round_trip_preserves_the_schedule(self, presence):
        spec = encode_presence(presence)
        json.dumps(spec)  # must be JSON-able
        rebuilt = decode_presence(spec)
        for t in range(0, 16):
            assert rebuilt(t) == presence(t)
        assert encode_presence(rebuilt) == spec

    def test_at_decodes_to_exactly_its_dates(self):
        presence = decode_presence({"kind": "at", "times": [5, 1, 4]})
        assert [t for t in range(10) if presence(t)] == [1, 4, 5]

    def test_at_decodes_from_a_graph_file(self):
        edge = {**_EDGE, "presence": {"kind": "at", "times": [2, 5]}}
        graph = loads(json.dumps({**_DOCUMENT, "edges": [edge]}))
        assert [t for t in range(8) if graph.edge("e").present_at(t)] == [2, 5]

    @pytest.mark.parametrize(
        "latency",
        [
            constant_latency(3),
            affine_latency(2, 1),
            table_latency({7: 2}),
        ],
    )
    def test_latency_round_trip(self, latency):
        spec = encode_latency(latency)
        rebuilt = decode_latency(json.loads(json.dumps(spec)))
        assert rebuilt(7) == latency(7)
        assert encode_latency(rebuilt) == spec


#: A valid document and edge, which the malformed cases below spoil one
#: field at a time.
_DOCUMENT = {"format": "repro-tvg", "version": 1, "lifetime": [0, None]}
_EDGE = {
    "key": "e", "source": "a", "target": "b",
    "presence": {"kind": "always"}, "latency": {"kind": "constant", "value": 1},
}


class TestMalformedInput:
    """Malformed specs and documents raise library errors, never a raw
    ``KeyError``, ``AttributeError``, ``TypeError`` or ``ValueError``,
    and no message names a line the input does not have."""

    def test_periodic_spec_without_its_pattern(self):
        with pytest.raises(TraceFormatError, match="no 'pattern' field"):
            decode_presence({"kind": "periodic"})

    @pytest.mark.parametrize("text", ["[]", "5", '"repro-tvg"', "null"])
    def test_document_that_is_not_an_object(self, text):
        with pytest.raises(TraceFormatError, match="not a repro-tvg document"):
            loads(text)

    def test_scalar_lifetime(self):
        with pytest.raises(TraceFormatError, match="lifetime must be a list of 2"):
            from_dict({**_DOCUMENT, "lifetime": 5})

    def test_interval_with_one_end(self):
        with pytest.raises(TraceFormatError, match="an interval must be a list of 2"):
            decode_presence({"kind": "intervals", "pairs": [[1]]})

    def test_edge_entry_without_target(self):
        edge = {k: v for k, v in _EDGE.items() if k != "target"}
        with pytest.raises(TraceFormatError, match="edge 0: .*no 'target' field"):
            from_dict({**_DOCUMENT, "edges": [edge]})

    def test_bad_json_names_its_line(self):
        with pytest.raises(TraceFormatError) as info:
            loads('{\n  "format": \n}')
        assert info.value.line_number == 3

    @pytest.mark.parametrize(
        "spec",
        [
            None, 5, "periodic", [], {}, {"kind": "quantum"}, {"pattern": [0]},
            {"kind": "periodic", "pattern": [0]},
            {"kind": "periodic", "pattern": 0, "period": 4},
            {"kind": "periodic", "pattern": "", "period": 4},
            {"kind": "periodic", "pattern": [[0]], "period": 4},
            {"kind": "periodic", "pattern": [0.5], "period": 4},
            {"kind": "periodic", "pattern": [0], "period": 0},
            {"kind": "periodic", "pattern": [0], "period": None},
            {"kind": "intervals"},
            {"kind": "intervals", "pairs": 3},
            {"kind": "intervals", "pairs": [None]},
            {"kind": "intervals", "pairs": [[1, 2, 3]]},
            {"kind": "intervals", "pairs": [["a", 2]]},
            {"kind": "at"},
            {"kind": "at", "times": 4},
            {"kind": "at", "times": [None]},
        ],
    )
    def test_malformed_presence_spec(self, spec):
        with pytest.raises(ReproError) as info:
            decode_presence(spec)
        assert "line" not in str(info.value)

    @pytest.mark.parametrize(
        "spec",
        [
            None, 5, [], {"kind": "vibes"},
            {"kind": "constant"},
            {"kind": "constant", "value": 0},
            {"kind": "constant", "value": 1.5},
            {"kind": "constant", "value": True},
            {"kind": "constant", "value": [1]},
            {"kind": "affine", "slope": 1},
            {"kind": "affine", "slope": "1", "intercept": 0},
            {"kind": "table", "entries": []},
            {"kind": "table", "entries": {}, "default": 1},
            {"kind": "table", "entries": [[1]], "default": None},
            {"kind": "table", "entries": [[1, 2.5]], "default": None},
            {"kind": "table", "entries": [], "default": "x"},
        ],
    )
    def test_malformed_latency_spec(self, spec):
        with pytest.raises(ReproError) as info:
            decode_latency(spec)
        assert "line" not in str(info.value)

    @pytest.mark.parametrize(
        "change",
        [
            {"lifetime": None},
            {"lifetime": [0]},
            {"lifetime": ["a", None]},
            {"lifetime": [5, 1]},
            {"period": "x"},
            {"period": 0},
            {"nodes": 5},
            {"nodes": [[1]]},
            {"edges": 5},
            {"edges": [5]},
            {"edges": [{**_EDGE, "key": ["e"]}]},
            {"edges": [{**_EDGE, "label": {"x": 1}}]},
            {"edges": [{**_EDGE, "presence": None}]},
            {"edges": [{**_EDGE, "latency": {"kind": "constant", "value": -1}}]},
            {"edges": [_EDGE, _EDGE]},
        ],
    )
    def test_malformed_document(self, change):
        with pytest.raises(ReproError) as info:
            from_dict({**_DOCUMENT, **change})
        assert "line" not in str(info.value)

    def test_missing_lifetime(self):
        document = {k: v for k, v in _DOCUMENT.items() if k != "lifetime"}
        with pytest.raises(TraceFormatError, match="no 'lifetime' field"):
            from_dict(document)


class TestSampled:
    def test_clockwork_graph_becomes_serializable(self):
        """Figure 1 has black-box schedules; sampling a window makes a
        faithful, serializable finite view."""
        from repro.constructions.figure1 import figure1_graph

        fig1 = figure1_graph()
        finite = sampled(fig1, 1, 40)
        text = dumps(finite)  # must not raise
        again = loads(text)
        for t in range(1, 40):
            for key in ("e0", "e1", "e2", "e3", "e4"):
                assert fig1.edge(key).present_at(t) == again.edge(key).present_at(t)

    def test_sampled_latencies_match(self):
        from repro.constructions.figure1 import figure1_graph

        fig1 = figure1_graph()
        finite = sampled(fig1, 1, 20)
        assert finite.edge("e0").latency(4) == fig1.edge("e0").latency(4)

    def test_empty_window_rejected(self, graph):
        with pytest.raises(ReproError):
            sampled(graph, 5, 5)
