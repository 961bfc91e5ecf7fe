"""Analysis layer: reachability matrices, temporal connectivity classes,
and the expressivity-gap measurements behind the headline benchmarks."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.classes": ("ClassReport", "classify"),
    "repro.analysis.connectivity": (
        "ConnectivityReport",
        "classify_connectivity",
        "is_temporally_connected",
    ),
    "repro.analysis.evolution": (
        "WaitingValue",
        "reachability_growth",
        "value_of_waiting",
    ),
    "repro.analysis.expressivity": (
        "ExpressivityReport",
        "language_gap",
        "nerode_lower_bound",
        "regularity_certificate",
    ),
    "repro.analysis.reachability": (
        "reachability_matrix",
        "reachability_ratio",
        "semantics_gap_matrix",
    ),
    "repro.analysis.spanners": (
        "BroadcastTree",
        "foremost_broadcast_tree",
        "tree_subgraph",
    ),
})
