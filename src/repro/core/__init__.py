"""Core time-varying-graph substrate.

This package implements the TVG model of Casteigts, Flocchini,
Quattrociocchi and Santoro ("Time-varying graphs and dynamic networks",
ADHOC-NOW 2011), which the paper under reproduction uses as its formal
foundation: a graph whose edges carry a *presence* function (is the edge
available at time ``t``?) and a *latency* function (how long does crossing
it take when started at time ``t``?), together with journeys — paths over
time — under three waiting semantics.
"""

from repro.core.builders import TVGBuilder
from repro.core.edges import Edge
from repro.core.engine import UNREACHED, TemporalEngine
from repro.core.index import CompiledTVG, LazyContactCache
from repro.core.intervals import Interval, IntervalSet
from repro.core.journeys import Hop, Journey
from repro.core.latency import (
    LatencyFunction,
    affine_latency,
    constant_latency,
    function_latency,
    table_latency,
)
from repro.core.parallel import ProcessShards, SweepPlan
from repro.core.presence import (
    PresenceFunction,
    always,
    at_times,
    function_presence,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.semantics import (
    BOUNDED_WAIT,
    NO_WAIT,
    WAIT,
    WaitingSemantics,
    bounded_wait,
    parse_semantics,
)
from repro.core.time_domain import INFINITY, Lifetime, require_window
from repro.core.tvg import TimeVaryingGraph

__all__ = [
    "BOUNDED_WAIT",
    "CompiledTVG",
    "Edge",
    "Hop",
    "INFINITY",
    "Interval",
    "IntervalSet",
    "Journey",
    "LazyContactCache",
    "LatencyFunction",
    "Lifetime",
    "NO_WAIT",
    "PresenceFunction",
    "ProcessShards",
    "SweepPlan",
    "TemporalEngine",
    "UNREACHED",
    "TVGBuilder",
    "TimeVaryingGraph",
    "WAIT",
    "WaitingSemantics",
    "affine_latency",
    "always",
    "at_times",
    "bounded_wait",
    "constant_latency",
    "function_latency",
    "function_presence",
    "interval_presence",
    "never",
    "parse_semantics",
    "periodic_presence",
    "require_window",
    "table_latency",
]
