"""repro — a reproduction of DCRD (Delay-Cognizant Reliable Delivery).

Implements the ICDCS 2011 paper "Delay-Cognizant Reliable Delivery for
Publish/Subscribe Overlay Networks" end to end: the discrete-event
simulation substrate, the broker overlay with transient link failures, the
DCRD algorithm (Eq. 1–3, Theorem 1, Algorithms 1–2), the four baselines the
paper compares against, and the full evaluation harness that regenerates
every figure of §IV.

Quickstart
----------
>>> from repro import ExperimentConfig, run_comparison
>>> config = ExperimentConfig(
...     topology_kind="regular", degree=5, failure_probability=0.04,
...     duration=30.0,
... )
>>> results = run_comparison(config, seed=7)
>>> sorted(results)
['D-Tree', 'DCRD', 'Multipath', 'ORACLE', 'R-Tree']
"""

from repro.core.computation import (
    ControlPlaneSolver,
    DrTable,
    NodeState,
    ViaNeighbor,
    compute_dr_table,
    compute_dr_tables,
)
from repro.core.forwarding import DcrdStrategy
from repro.perf import PerfStats
from repro.core.linkmath import expected_delay_m, expected_delivery_ratio_m
from repro.experiments.config import ExperimentConfig, paper_config
from repro.experiments.runner import (
    DEFAULT_STRATEGIES,
    STRATEGIES,
    build_environment,
    run_comparison,
    run_single,
)
from repro.experiments.sweeps import SweepResult, run_repetitions, sweep
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import MetricsSummary, mean_summaries, summarize
from repro.overlay.failures import FailureSchedule, NodeFailureSchedule
from repro.overlay.links import FrameKind, OverlayNetwork
from repro.overlay.monitor import LinkEstimate, LinkMonitor
from repro.overlay.topology import (
    Topology,
    full_mesh,
    random_regular,
    waxman,
)
from repro.pubsub.topics import Subscription, TopicSpec, Workload, generate_workload
from repro.routing.base import ProtocolParams, RoutingStrategy, RuntimeContext
from repro.routing.multipath import MultipathStrategy
from repro.routing.oracle import OracleStrategy
from repro.routing.trees import DTreeStrategy, RTreeStrategy
from repro.record import RunRecord
from repro.sanity import InvariantViolation
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

# Importing the extensions package registers the extension strategies.
import repro.extensions  # noqa: E402,F401  (registration side effect)
from repro.system import Delivery, PubSubSystem  # noqa: E402

__version__ = "1.0.0"

__all__ = [
    "ControlPlaneSolver",
    "DEFAULT_STRATEGIES",
    "DcrdStrategy",
    "PerfStats",
    "Delivery",
    "PubSubSystem",
    "DrTable",
    "DTreeStrategy",
    "ExperimentConfig",
    "FailureSchedule",
    "FrameKind",
    "LinkEstimate",
    "LinkMonitor",
    "MetricsCollector",
    "MetricsSummary",
    "MultipathStrategy",
    "NodeFailureSchedule",
    "NodeState",
    "OracleStrategy",
    "OverlayNetwork",
    "ProtocolParams",
    "RTreeStrategy",
    "RandomStreams",
    "RoutingStrategy",
    "RuntimeContext",
    "STRATEGIES",
    "Simulator",
    "Subscription",
    "SweepResult",
    "Topology",
    "TopicSpec",
    "ViaNeighbor",
    "Workload",
    "build_environment",
    "compute_dr_table",
    "compute_dr_tables",
    "expected_delay_m",
    "expected_delivery_ratio_m",
    "full_mesh",
    "generate_workload",
    "mean_summaries",
    "paper_config",
    "random_regular",
    "run_comparison",
    "run_single",
    "run_repetitions",
    "summarize",
    "sweep",
    "waxman",
]
