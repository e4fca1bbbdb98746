"""Online mechanisms (Section IV) and the online simulation driver."""

from repro.online.adaptive import (
    EpochRotatingHybridMechanism,
    LifecycleClockDriver,
    WindowedPopularityMechanism,
)
from repro.online.base import (
    OBJECT,
    THREAD,
    Decision,
    OnlineMechanism,
    Retirement,
    popularity_choice,
)
from repro.online.hybrid import HybridMechanism
from repro.online.naive import NaiveMechanism
from repro.online.popularity import PopularityMechanism
from repro.online.protocol import OnlineClockProtocol
from repro.online.random_choice import RandomMechanism
from repro.online.sensitivity import (
    SensitivityResult,
    compare_order_sensitivity,
    order_sensitivity,
)
from repro.online.simulator import (
    OFFLINE_LABEL,
    OnlineRunResult,
    compare_mechanisms,
    compare_mechanisms_on_stream,
    reveal_order,
    run_mechanism,
    run_mechanism_on_computation,
    run_mechanism_on_graph,
    seed_mechanism_factories,
)

__all__ = [
    "Decision",
    "EpochRotatingHybridMechanism",
    "HybridMechanism",
    "LifecycleClockDriver",
    "NaiveMechanism",
    "OBJECT",
    "OFFLINE_LABEL",
    "OnlineClockProtocol",
    "OnlineMechanism",
    "OnlineRunResult",
    "PopularityMechanism",
    "RandomMechanism",
    "Retirement",
    "SensitivityResult",
    "THREAD",
    "WindowedPopularityMechanism",
    "compare_mechanisms",
    "compare_mechanisms_on_stream",
    "compare_order_sensitivity",
    "order_sensitivity",
    "popularity_choice",
    "reveal_order",
    "run_mechanism",
    "run_mechanism_on_computation",
    "run_mechanism_on_graph",
    "seed_mechanism_factories",
]
