"""Experiment configuration.

One :class:`ExperimentConfig` captures everything that defines a run except
the strategy and the seed: topology family, hazard rates, workload shape,
protocol knobs, and the measurement window. The defaults are the paper's
§IV-A settings, with one deliberate exception — ``duration``: the paper
simulates 2 hours per run, which pure Python cannot afford across all
sweeps; the default measurement window is shorter but every driver accepts
``paper_scale=True`` to restore it (identical code paths, more samples).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.overlay.links import QUEUE_DISCIPLINES
from repro.util.validation import (
    require,
    require_positive,
    require_probability,
)

#: The paper's simulated duration per run (§IV-A): two hours.
PAPER_DURATION = 7200.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one simulation run (minus strategy and seed)."""

    # --- overlay -----------------------------------------------------
    topology_kind: str = "full_mesh"  # "full_mesh" | "regular" | "waxman" | ...
    num_nodes: int = 20
    degree: Optional[int] = None
    delay_range: Tuple[float, float] = (0.010, 0.050)

    # --- hazards -----------------------------------------------------
    loss_rate: float = 1e-4
    # Optional heterogeneity: each link draws its own loss rate uniformly
    # from this range (overrides loss_rate). None = uniform loss.
    loss_rate_range: Optional[Tuple[float, float]] = None
    failure_probability: float = 0.0
    failure_epoch: float = 1.0
    node_failure_probability: float = 0.0
    # Finite link capacity (seconds of serialisation per DATA frame);
    # None reproduces the paper's infinite-capacity links.
    link_service_time: Optional[float] = None
    # How busy links order waiting frames: "fifo", "edf" (earliest
    # deadline first, by frame priority) or "edf+drop" (EDF that drops
    # frames which can no longer meet their deadline instead of wasting
    # capacity serving them). Only meaningful with finite capacity.
    queue_discipline: str = "fifo"

    # --- workload ----------------------------------------------------
    num_topics: int = 10
    publish_interval: float = 1.0
    ps_range: Tuple[float, float] = (0.2, 0.6)
    deadline_factor: float = 3.0
    # Optional per-topic urgency classes (each topic draws its deadline
    # factor from these); None = uniform deadline_factor.
    deadline_factor_choices: Optional[Tuple[float, ...]] = None

    # --- protocol ----------------------------------------------------
    m: int = 1
    ack_timeout_factor: float = 2.0
    # Opt-in delivery-ordering guarantee, as "LEVEL[:topic,...]" with
    # LEVEL one of repro.ordering.LEVELS ("fifo" | "causal" | "total");
    # no topic list covers every topic. None (the default) keeps the
    # paper's unordered delivery and the bit-identical fast path.
    ordering: Optional[str] = None

    # --- monitoring --------------------------------------------------
    monitor_period: float = 300.0
    monitor_mode: str = "analytic"

    # --- measurement window -------------------------------------------
    duration: float = 120.0
    drain: float = 10.0

    # --- debugging ----------------------------------------------------
    # Either flag attaches the run's one record (repro.record) to the
    # repro.probes bus; both set, it does both jobs.
    # Sanitize: live invariant checks (repro.sanity) plus end-of-drain
    # conservation accounting. Observation-only — the event trace is
    # bit-identical either way — but costs time and memory, so it
    # defaults to off.
    sanitize: bool = False
    # Trace: ring-buffered per-frame lifecycle events (publish, transmit,
    # ack, failover, deliver, ...) queryable after the run (repro.trace)
    # and exportable as JSONL. Observation-only, same bit-identical
    # guarantee; defaults to off.
    trace: bool = False

    def __post_init__(self) -> None:
        require(self.num_nodes >= 2, "num_nodes must be >= 2")
        require(
            self.topology_kind
            in ("full_mesh", "regular", "waxman", "erdos_renyi", "ring", "line", "star"),
            f"unknown topology_kind {self.topology_kind!r}",
        )
        if self.topology_kind == "regular":
            require(self.degree is not None, "regular topology needs a degree")
        if self.topology_kind in ("regular", "erdos_renyi") and self.degree is not None:
            require(
                1 <= self.degree < self.num_nodes,
                f"degree must be in [1, {self.num_nodes - 1}] on {self.num_nodes} "
                f"nodes, got {self.degree}",
            )
        require_probability(self.loss_rate, "loss_rate")
        if self.loss_rate_range is not None:
            low, high = self.loss_rate_range
            require_probability(low, "loss_rate_range[0]")
            require_probability(high, "loss_rate_range[1]")
            require(low <= high, "loss_rate_range must be non-decreasing")
        require_probability(self.failure_probability, "failure_probability")
        require_probability(self.node_failure_probability, "node_failure_probability")
        require_positive(self.failure_epoch, "failure_epoch")
        if self.link_service_time is not None:
            require_positive(self.link_service_time, "link_service_time")
        require(
            self.queue_discipline in QUEUE_DISCIPLINES,
            f"unknown queue_discipline {self.queue_discipline!r}",
        )
        require(self.num_topics >= 1, "num_topics must be >= 1")
        require_positive(self.publish_interval, "publish_interval")
        require_positive(self.deadline_factor, "deadline_factor")
        if self.deadline_factor_choices is not None:
            require(len(self.deadline_factor_choices) >= 1,
                    "deadline_factor_choices must be non-empty")
            for choice in self.deadline_factor_choices:
                require(choice >= 1.0, "deadline factors must be >= 1")
        require(self.m >= 1, "m must be >= 1")
        require_positive(self.ack_timeout_factor, "ack_timeout_factor")
        if self.ordering is not None:
            # Eager validation: an unknown level fails here, at config
            # build time, with an error naming the valid levels.
            from repro.ordering.spec import parse_ordering

            parse_ordering(self.ordering)
        require_positive(self.monitor_period, "monitor_period")
        require(self.monitor_mode in ("analytic", "sampled"), "bad monitor_mode")
        require_positive(self.duration, "duration")
        require(self.drain >= 0, "drain must be >= 0")

    # ------------------------------------------------------------------
    def with_updates(self, **changes: object) -> "ExperimentConfig":
        """A modified copy (frozen dataclass convenience)."""
        return dataclasses.replace(self, **changes)

    @property
    def end_time(self) -> float:
        """Virtual time at which the run stops (publish window + drain)."""
        return self.duration + self.drain

    def describe(self) -> str:
        """One-line human-readable summary for reports."""
        topo = self.topology_kind
        if self.degree is not None:
            topo += f"(deg={self.degree})"
        return (
            f"{topo} n={self.num_nodes} Pf={self.failure_probability} "
            f"Pl={self.loss_rate} m={self.m} deadline={self.deadline_factor}x "
            f"T={self.duration}s"
        )


def paper_config(**overrides: object) -> ExperimentConfig:
    """The paper's §IV-A setting (2-hour runs); override freely."""
    base = ExperimentConfig(duration=PAPER_DURATION)
    return base.with_updates(**overrides) if overrides else base
