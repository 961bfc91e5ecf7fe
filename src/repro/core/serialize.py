"""JSON (de)serialization of time-varying graphs and their schedules.

Round-trippable persistence for the schedule shapes that have an exact
finite description — interval sets, periodic patterns, constant/affine/
table latencies.  Black-box callables (the Theorem 2.1 clockwork) have no
finite description by design; serializing them raises, with a pointer
to sampling into intervals via :func:`sampled` instead.

The schedule specs are the package's one presence/latency codec: graph
files and the service protocol (:mod:`repro.service.server`) both read
them through :func:`decode_presence` and :func:`decode_latency`.

* presence — ``{"kind": "always" | "never"}``,
  ``{"kind": "periodic", "pattern": [r, ...], "period": p}``,
  ``{"kind": "intervals", "pairs": [[a, b], ...]}`` (half-open), or
  ``{"kind": "at", "times": [t, ...]}`` (decoded only; it encodes as
  intervals);
* latency — ``{"kind": "constant", "value": v}``,
  ``{"kind": "affine", "slope": a, "intercept": b}``, or
  ``{"kind": "table", "entries": [[t, v], ...], "default": v | null}``.

Malformed input of any shape raises a :class:`~repro.errors.ReproError`:
a :class:`~repro.errors.TraceFormatError` for the shape of a spec or
document, or the schedule factories' own
:class:`~repro.errors.TimeDomainError` for a value they refuse (a
fractional residue, say).

Graph format (version 1)::

    {
      "format": "repro-tvg",
      "version": 1,
      "name": "...", "lifetime": [0, 60] | [0, null], "period": 6 | null,
      "nodes": [...],
      "edges": [
        {"key": "e0", "source": "a", "target": "b", "label": "x",
         "presence": {"kind": "intervals", "pairs": [[0, 3], [8, 9]]},
         "latency": {"kind": "constant", "value": 1}},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.intervals import Interval, IntervalSet
from repro.core.latency import (
    AffineLatency,
    ConstantLatency,
    LatencyFunction,
    TableLatency,
    affine_latency,
    constant_latency,
    table_latency,
)
from repro.core.presence import (
    IntervalPresence,
    PeriodicPresence,
    PresenceFunction,
    _AlwaysPresence,
    _NeverPresence,
    always,
    at_times,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.time_domain import INFINITY, Lifetime
from repro.core.tvg import TimeVaryingGraph
from repro.errors import ReproError, TraceFormatError

FORMAT = "repro-tvg"
VERSION = 1


# -- shape checks ---------------------------------------------------------------------


def _object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise TraceFormatError(
            None, f"{what} must be an object, not {type(value).__name__}"
        )
    return value


def _field(spec: dict, name: str, what: str) -> Any:
    if name not in spec:
        raise TraceFormatError(None, f"{what} has no {name!r} field")
    return spec[name]


def _list(value: Any, what: str, length: int | None = None) -> list | tuple:
    """``value`` if it is a list (of ``length`` items, when given)."""
    if not isinstance(value, (list, tuple)) or (
        length is not None and len(value) != length
    ):
        shape = "a list" if length is None else f"a list of {length}"
        raise TraceFormatError(None, f"{what} must be {shape}, not {value!r:.60}")
    return value


def _int(value: Any, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass
        raise TraceFormatError(None, f"{what} must be an integer, not {value!r:.60}")
    return value


def _scalar(value: Any, what: str = "the value") -> Any:
    """``value`` unless it is a list or object: what a node id, edge key
    or label may be, in a graph file and on the wire alike."""
    if isinstance(value, (list, dict)):
        raise TraceFormatError(
            None, f"{what} must be a JSON scalar, not {type(value).__name__}"
        )
    return value


# -- schedule codec -------------------------------------------------------------------


def encode_presence(presence: PresenceFunction) -> dict[str, Any]:
    if isinstance(presence, _AlwaysPresence):
        return {"kind": "always"}
    if isinstance(presence, _NeverPresence):
        return {"kind": "never"}
    if isinstance(presence, IntervalPresence):
        return {
            "kind": "intervals",
            "pairs": [[iv.start, iv.end] for iv in presence.intervals],
        }
    if isinstance(presence, PeriodicPresence):
        return {
            "kind": "periodic",
            "pattern": sorted(presence.pattern),
            "period": presence.period,
        }
    raise ReproError(
        f"{type(presence).__name__} has no finite description; sample it "
        "into intervals first (repro.core.serialize.sampled)"
    )


def decode_presence(spec: Any) -> PresenceFunction:
    """The presence a spec describes (see the module docstring)."""
    kind = _object(spec, "a presence spec").get("kind")
    what = f"the {kind} presence spec"
    if kind == "always":
        return always()
    if kind == "never":
        return never()
    if kind == "periodic":
        pattern = _list(_field(spec, "pattern", what), "a periodic pattern")
        return periodic_presence(pattern, _field(spec, "period", what))
    if kind == "intervals":
        pairs = _list(_field(spec, "pairs", what), "interval pairs")
        return interval_presence(_list(pair, "an interval", 2) for pair in pairs)
    if kind == "at":
        return at_times(_list(_field(spec, "times", what), "presence times"))
    raise TraceFormatError(None, f"unknown presence kind {kind!r:.60}")


def encode_latency(latency: LatencyFunction) -> dict[str, Any]:
    if isinstance(latency, ConstantLatency):
        return {"kind": "constant", "value": latency.value}
    if isinstance(latency, AffineLatency):
        return {
            "kind": "affine",
            "slope": latency.slope,
            "intercept": latency.intercept,
        }
    if isinstance(latency, TableLatency):
        return {
            "kind": "table",
            "entries": sorted(latency.table.items()),
            "default": latency.default,
        }
    raise ReproError(
        f"{type(latency).__name__} has no finite description; use a "
        "constant/affine/table latency for serializable graphs"
    )


def decode_latency(spec: Any) -> LatencyFunction:
    """The latency a spec describes (see the module docstring)."""
    kind = _object(spec, "a latency spec").get("kind")
    what = f"the {kind} latency spec"
    if kind == "constant":
        return constant_latency(_field(spec, "value", what))
    if kind == "affine":
        return affine_latency(
            _int(_field(spec, "slope", what), "a slope"),
            _int(_field(spec, "intercept", what), "an intercept"),
        )
    if kind == "table":
        entries = _list(_field(spec, "entries", what), "table entries")
        default = _field(spec, "default", what)
        return table_latency(
            {
                _int(t, "a table date"): _int(v, "a table latency")
                for t, v in (_list(entry, "a table entry", 2) for entry in entries)
            },
            None if default is None else _int(default, "a table default"),
        )
    raise TraceFormatError(None, f"unknown latency kind {kind!r:.60}")


# -- graph level ----------------------------------------------------------------------


def to_dict(graph: TimeVaryingGraph) -> dict[str, Any]:
    """The JSON-ready dictionary form of a graph."""
    end = None if not graph.lifetime.bounded else int(graph.lifetime.end)
    return {
        "format": FORMAT,
        "version": VERSION,
        "name": graph.name,
        "lifetime": [graph.lifetime.start, end],
        "period": graph.period,
        "nodes": [str(node) for node in graph.nodes],
        "edges": [
            {
                "key": edge.key,
                "source": str(edge.source),
                "target": str(edge.target),
                "label": edge.label,
                "presence": encode_presence(edge.presence),
                "latency": encode_latency(edge.latency),
            }
            for edge in graph.edges
        ],
    }


def from_dict(data: Any) -> TimeVaryingGraph:
    """Rebuild a graph from its dictionary form."""
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise TraceFormatError(None, f"not a {FORMAT} document")
    if data.get("version") != VERSION:
        version = data.get("version")
        raise TraceFormatError(None, f"unsupported version {version!r:.60}")
    start, end = _list(_field(data, "lifetime", "the document"), "the lifetime", 2)
    period = data.get("period")
    graph = TimeVaryingGraph(
        lifetime=Lifetime(start, INFINITY if end is None else end),
        period=None if period is None else _int(period, "the period"),
        name=data.get("name", ""),
    )
    graph.add_nodes(
        _scalar(node, "a node") for node in _list(data.get("nodes", []), "the nodes")
    )
    for number, entry in enumerate(_list(data.get("edges", []), "the edges")):
        try:
            entry = _object(entry, "the entry")
            source, target, key = (
                _scalar(_field(entry, name, "the entry"), name)
                for name in ("source", "target", "key")
            )
            graph.add_edge(
                source,
                target,
                label=_scalar(entry.get("label"), "label"),
                presence=decode_presence(_field(entry, "presence", "the entry")),
                latency=decode_latency(_field(entry, "latency", "the entry")),
                key=key,
            )
        except ReproError as exc:
            raise TraceFormatError(None, f"edge {number}: {exc}") from None
    return graph


def dumps(graph: TimeVaryingGraph, indent: int | None = 2) -> str:
    """Serialize to a JSON string."""
    return json.dumps(to_dict(graph), indent=indent)


def loads(text: str) -> TimeVaryingGraph:
    """Deserialize from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(exc.lineno, f"bad JSON: {exc.msg}") from None
    return from_dict(data)


def save(graph: TimeVaryingGraph, path: str | Path) -> None:
    """Write the JSON form to disk."""
    Path(path).write_text(dumps(graph), encoding="utf-8")


def load(path: str | Path) -> TimeVaryingGraph:
    """Read a JSON graph from disk."""
    return loads(Path(path).read_text(encoding="utf-8"))


def sampled(
    graph: TimeVaryingGraph, start: int, end: int, name: str | None = None
) -> TimeVaryingGraph:
    """A serializable snapshot of any graph over a window.

    Black-box presences are sampled into interval sets and latencies into
    tables over the present dates — the lossless finite view of the
    window, and the escape hatch for persisting clockwork graphs.
    """
    if end <= start:
        raise ReproError(f"empty window [{start}, {end})")
    window = Interval(start, end)
    result = TimeVaryingGraph(
        lifetime=Lifetime(start, end),
        period=graph.period,
        name=name if name is not None else f"{graph.name}@[{start},{end})",
    )
    result.add_nodes(graph.nodes)
    for edge in graph.edges:
        support = edge.presence.support(window)
        latencies = {t: edge.latency(t) for t in support.times()}
        result.add_edge(
            edge.source,
            edge.target,
            label=edge.label,
            presence=IntervalPresence(IntervalSet(list(support))),
            latency=table_latency(latencies, default=1),
            key=edge.key,
        )
    return result
