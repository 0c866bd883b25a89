"""Overlay-network substrate: topologies, links, failures, monitoring."""

from repro.overlay.failures import FailureSchedule, NodeFailureSchedule
from repro.overlay.links import FrameKind, LinkStats, OverlayNetwork
from repro.overlay.monitor import LinkEstimate, LinkMonitor
from repro.overlay.topology import (
    Topology,
    clustered,
    erdos_renyi,
    full_mesh,
    line,
    random_regular,
    ring,
    star,
    waxman,
)

__all__ = [
    "FailureSchedule",
    "FrameKind",
    "LinkEstimate",
    "LinkMonitor",
    "LinkStats",
    "NodeFailureSchedule",
    "OverlayNetwork",
    "Topology",
    "clustered",
    "erdos_renyi",
    "full_mesh",
    "line",
    "random_regular",
    "ring",
    "star",
    "waxman",
]
