"""Routing strategies: DCRD lives in :mod:`repro.core`; baselines live here."""

from repro.routing.base import ProtocolParams, RoutingStrategy, RuntimeContext
from repro.routing.multipath import MultipathStrategy
from repro.routing.oracle import OracleStrategy
from repro.routing.paths import (
    k_shortest_delay_paths,
    path_delay,
    select_diverse_paths,
    shared_links,
)
from repro.routing.trees import DTreeStrategy, RTreeStrategy, TreeStrategy

__all__ = [
    "DTreeStrategy",
    "MultipathStrategy",
    "OracleStrategy",
    "ProtocolParams",
    "RTreeStrategy",
    "RoutingStrategy",
    "RuntimeContext",
    "TreeStrategy",
    "k_shortest_delay_paths",
    "path_delay",
    "select_diverse_paths",
    "shared_links",
]
