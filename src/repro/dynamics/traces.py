"""Contact-trace I/O.

A minimal line format for undirected contact traces, compatible with the
shape DTN datasets are distributed in::

    # comment
    u v start end

meaning nodes ``u`` and ``v`` are in contact over the half-open window
``[start, end)``.  Node names are arbitrary tokens without whitespace.
The paper has no datasets of its own; this format lets users bring any
contact trace to the library and is how the examples persist generated
scenarios.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, TextIO

from repro.core.builders import from_contact_table
from repro.core.intervals import Interval
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph
from repro.errors import TraceFormatError


def parse_trace(lines: Iterable[str]) -> TimeVaryingGraph:
    """Build a contact TVG from trace lines."""
    contacts: dict[tuple[str, str], list[tuple[int, int]]] = {}
    horizon = 0
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(number, f"expected 'u v start end', got {line!r}")
        u, v, start_text, end_text = parts
        try:
            start, end = int(start_text), int(end_text)
        except ValueError:
            raise TraceFormatError(number, f"non-integer window in {line!r}") from None
        if end <= start:
            raise TraceFormatError(number, f"empty window [{start}, {end})")
        if u == v:
            raise TraceFormatError(number, f"self-contact {u!r}")
        key = (u, v) if u <= v else (v, u)
        contacts.setdefault(key, []).append((start, end))
        horizon = max(horizon, end)
    graph = from_contact_table(
        contacts, lifetime=Lifetime(0, horizon), name="trace"
    )
    return graph


def load_trace(path: str | Path) -> TimeVaryingGraph:
    """Read a trace file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trace(handle)


def write_trace(graph: TimeVaryingGraph, handle: TextIO, horizon: int | None = None) -> None:
    """Serialize a TVG's undirected contacts as trace lines.

    Each symmetric edge pair is written once (the lexicographically
    smaller direction).  Presence is sampled over the lifetime (or the
    explicit horizon) and written as maximal intervals.
    """
    if horizon is None:
        if not graph.lifetime.bounded:
            raise TraceFormatError(None, "an explicit horizon is required")
        horizon = int(graph.lifetime.end)
    handle.write(f"# trace of {graph.name or 'tvg'}\n")
    written: set[tuple[str, str]] = set()
    for edge in graph.edges:
        u, v = str(edge.source), str(edge.target)
        key = (u, v) if u <= v else (v, u)
        if key in written:
            continue
        written.add(key)
        support = edge.presence.support(Interval(graph.lifetime.start, horizon))
        for interval in support:
            handle.write(f"{key[0]} {key[1]} {interval.start} {interval.end}\n")


def save_trace(graph: TimeVaryingGraph, path: str | Path, horizon: int | None = None) -> None:
    """Write a trace file to disk."""
    with open(path, "w", encoding="utf-8") as handle:
        write_trace(graph, handle, horizon)
