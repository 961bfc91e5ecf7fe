"""Tests for contact-trace I/O."""

import io

import pytest

from repro.core.builders import TVGBuilder
from repro.dynamics.traces import load_trace, parse_trace, save_trace, write_trace
from repro.errors import TraceFormatError


SAMPLE = """
# a tiny trace
n1 n2 0 3
n2 n3 5 8
n1 n2 10 12
"""


class TestParse:
    def test_round_structure(self):
        g = parse_trace(SAMPLE.splitlines())
        assert g.node_count == 3
        assert g.edge_count == 4  # two pairs, both directions
        assert g.lifetime.end == 12

    def test_windows(self):
        g = parse_trace(SAMPLE.splitlines())
        edge = g.edges_between("n1", "n2")[0]
        assert edge.present_at(0) and edge.present_at(2)
        assert not edge.present_at(3)
        assert edge.present_at(10)

    def test_symmetry(self):
        g = parse_trace(SAMPLE.splitlines())
        forward = g.edges_between("n1", "n2")[0]
        backward = g.edges_between("n2", "n1")[0]
        assert forward.present_at(1) == backward.present_at(1)

    def test_comments_and_blanks_ignored(self):
        g = parse_trace(["# only a comment", "", "a b 0 1"])
        assert g.edge_count == 2

    def test_bad_field_count(self):
        with pytest.raises(TraceFormatError) as info:
            parse_trace(["a b 0"])
        assert info.value.line_number == 1

    def test_non_integer(self):
        with pytest.raises(TraceFormatError):
            parse_trace(["a b zero 5"])

    def test_empty_window(self):
        with pytest.raises(TraceFormatError):
            parse_trace(["a b 5 5"])

    def test_self_contact(self):
        with pytest.raises(TraceFormatError):
            parse_trace(["a a 0 1"])


class TestWrite:
    def test_round_trip(self):
        g = parse_trace(SAMPLE.splitlines())
        buffer = io.StringIO()
        write_trace(g, buffer)
        reparsed = parse_trace(buffer.getvalue().splitlines())
        assert reparsed.node_count == g.node_count
        assert reparsed.edge_count == g.edge_count
        for t in (0, 2, 3, 5, 10, 11):
            original = {e.key for e in g.edges_at(t)}
            again = {e.key for e in reparsed.edges_at(t)}
            assert len(original) == len(again), t

    def test_write_requires_horizon_for_unbounded(self):
        g = TVGBuilder().contact("a", "b").build()
        with pytest.raises(TraceFormatError):
            write_trace(g, io.StringIO())
        buffer = io.StringIO()
        write_trace(g, buffer, horizon=5)
        assert "a b 0 5" in buffer.getvalue()

    def test_missing_horizon_names_no_line(self):
        """Nothing was parsed, so the refusal cites no line."""
        g = TVGBuilder().contact("a", "b").build()
        with pytest.raises(TraceFormatError) as refused:
            write_trace(g, io.StringIO())
        assert refused.value.line_number is None
        assert str(refused.value) == "an explicit horizon is required"
        assert "line" not in str(refused.value)

    def test_file_round_trip(self, tmp_path):
        g = parse_trace(SAMPLE.splitlines())
        path = tmp_path / "contacts.trace"
        save_trace(g, path)
        again = load_trace(path)
        assert again.node_count == 3
