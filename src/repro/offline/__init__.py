"""The paper's offline optimal algorithm (Section III)."""

from repro.offline.algorithm import (
    OfflineResult,
    optimal_clock_size,
    optimal_components_for_computation,
    optimal_components_for_graph,
    timestamp_offline,
)

__all__ = [
    "OfflineResult",
    "optimal_clock_size",
    "optimal_components_for_computation",
    "optimal_components_for_graph",
    "timestamp_offline",
]
