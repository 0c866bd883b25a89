"""Assemble and execute one simulation run.

The runner builds what is an experiment's own — the topology, the
hazard schedules, the simulated network and the workload — hands them to
the shared composition root (:func:`repro.stack.wire_stack`) for the
broker stack of the strategy under test, adds the periodic processes
(publishers, the monitoring cycle), runs the event loop inside one
:class:`~repro.stack.observed` session, and reduces the collector into a
:class:`~repro.metrics.summary.MetricsSummary`.

Fairness across strategies: everything environmental — topology, link
delays, workload placement, the *entire failure schedule* — derives from
the run seed alone, so every strategy faces the identical world; only the
strategy's own behaviour (and hence which random-loss draws it consumes)
differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro import probes as _probes
from repro.core.forwarding import DcrdStrategy
from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import MetricsSummary, summarize
from repro.ordering.plan import OrderingPlan
from repro.overlay.failures import FailureSchedule, NodeFailureSchedule
from repro.overlay.links import OverlayNetwork
from repro.overlay.topology import (
    Topology,
    erdos_renyi,
    full_mesh,
    line,
    random_regular,
    ring,
    star,
    waxman,
)
from repro.pubsub.broker import BrokerRuntime
from repro.pubsub.endpoints import PublisherProcess
from repro.pubsub.topics import Workload, generate_workload
from repro.record import RunRecord
from repro.routing.base import ProtocolParams, RoutingStrategy, RuntimeContext
from repro.routing.multipath import MultipathStrategy
from repro.routing.oracle import OracleStrategy
from repro.routing.trees import DTreeStrategy, PriorityDTreeStrategy, RTreeStrategy
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import RandomStreams
from repro.stack import observed, wire_stack
from repro.util.errors import ConfigurationError

#: All strategies of the paper's comparison, by report name.
STRATEGIES: Dict[str, Callable[[RuntimeContext], RoutingStrategy]] = {
    "DCRD": DcrdStrategy,
    "R-Tree": RTreeStrategy,
    "D-Tree": DTreeStrategy,
    "ORACLE": OracleStrategy,
    "Multipath": MultipathStrategy,
    # The intro's "priority-based queueing + shortest path tree" approach;
    # only differs from D-Tree on EDF links (queue_discipline "edf" or
    # "edf+drop").
    "P-DTree": PriorityDTreeStrategy,
    # "DCRD+persist" and the other extension strategies are appended by
    # repro.extensions at import time to keep this module cycle-free.
}

#: The comparison order used in the paper's figures.
DEFAULT_STRATEGIES = ("DCRD", "R-Tree", "D-Tree", "ORACLE", "Multipath")


def build_topology(config: ExperimentConfig, streams: RandomStreams) -> Topology:
    """Instantiate the configured topology family."""
    rng = streams.get("topology")
    kind = config.topology_kind
    if kind == "full_mesh":
        return full_mesh(config.num_nodes, rng, config.delay_range)
    if kind == "regular":
        assert config.degree is not None  # validated by the config
        return random_regular(config.num_nodes, config.degree, rng, config.delay_range)
    if kind == "waxman":
        return waxman(config.num_nodes, rng, delay_range=config.delay_range)
    if kind == "erdos_renyi":
        probability = (
            config.degree / (config.num_nodes - 1) if config.degree else 0.3
        )
        return erdos_renyi(config.num_nodes, probability, rng, config.delay_range)
    if kind == "ring":
        return ring(config.num_nodes, rng, config.delay_range)
    if kind == "line":
        return line(config.num_nodes, rng, config.delay_range)
    if kind == "star":
        return star(config.num_nodes, rng, config.delay_range)
    raise ConfigurationError(f"unknown topology kind {kind!r}")


@dataclass
class SimulationEnvironment:
    """A fully wired run, ready to execute."""

    config: ExperimentConfig
    seed: int
    ctx: RuntimeContext
    strategy: RoutingStrategy
    brokers: List[BrokerRuntime]
    publishers: List[PublisherProcess]
    monitor_process: PeriodicProcess
    record: Optional[RunRecord] = None

    def execute(self) -> MetricsSummary:
        """Run to the configured end time and summarise.

        Runs inside one :class:`~repro.stack.observed` session with the
        environment's :class:`~repro.record.RunRecord` (present when
        ``config.sanitize`` or ``config.trace`` is on): sanitizing,
        invariant violations raise
        :class:`~repro.sanity.InvariantViolation` mid-run and the
        end-of-drain checks (timer orphans, frame conservation) run before
        the summary is assembled; tracing, the record keeps the run's
        lifecycle events for :mod:`repro.trace`.
        """
        with observed(self.ctx, self.record):
            for publisher in self.publishers:
                publisher.start()
            self.monitor_process.start()
            self.ctx.sim.run(until=self.config.end_time)
        return summarize(
            self.ctx.metrics,
            self.ctx.network.stats.data_sent(),
            strategy=self.strategy.name,
            data_volume=self.ctx.network.stats.data_volume(),
            perf=self._perf_snapshot(),
        )

    def _perf_snapshot(self) -> Dict[str, float]:
        """Assemble the run's perf counters (strategy + simulator)."""
        perf = self.strategy.perf_counters()
        sim = self.ctx.sim
        perf["sim.events_processed"] = float(sim.processed_events)
        perf["sim.heap_compactions"] = float(sim.heap_compactions)
        perf["sim.tombstones_reaped"] = float(sim.tombstones_reaped)
        wall = sim.run_wall_s
        perf["sim.run_wall_s"] = wall
        if wall > 0.0:
            perf["sim.events_per_s"] = sim.processed_events / wall
        perf["monitor.refreshes"] = float(self.ctx.monitor.refreshes)
        # Flat-path statistics: interned-table sizes, subgroup lookups, and
        # facade fallbacks (directions resolved outside the prewarmed
        # table — the benchmark's timed region asserts this stays zero).
        network = self.ctx.network
        perf["flat.dir_fallbacks"] = float(network.dir_fallbacks)
        perf["flat.interned_directions"] = float(len(network._dir_cache))
        index = self.ctx.workload.index()
        perf["flat.subgroup_lookups"] = float(index.lookups)
        perf["flat.subgroup_topics"] = float(len(index._members))
        if self.record is not None:
            perf.update(self.record.perf_counters())
        if self.ctx.ordering is not None:
            perf.update(self.ctx.ordering.perf_counters())
        # External bus observers (attached via repro.probes.attach) surface
        # their counters too, e.g. ProbeCounters' probes.* entries.
        for observer in _probes.observers():
            if observer is self.record:
                continue
            counters = getattr(observer, "perf_counters", None)
            if callable(counters):
                perf.update(counters())
        return perf


def build_environment(
    config: ExperimentConfig,
    strategy_name: str,
    seed: int,
    topology: Optional[Topology] = None,
    workload: Optional[Workload] = None,
) -> SimulationEnvironment:
    """Wire up one run of *strategy_name* under *config* with *seed*.

    ``topology``/``workload`` may be injected (tests, custom studies);
    by default both derive deterministically from the seed.
    """
    if strategy_name not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {strategy_name!r}; known: {sorted(STRATEGIES)}"
        )
    streams = RandomStreams(seed)
    if topology is None:
        topology = build_topology(config, streams)
    if workload is None:
        workload = generate_workload(
            topology,
            streams.get("workload"),
            num_topics=config.num_topics,
            publish_interval=config.publish_interval,
            ps_range=config.ps_range,
            deadline_factor=config.deadline_factor,
            deadline_factor_choices=config.deadline_factor_choices,
        )
    sim = Simulator()
    failures = (
        FailureSchedule(
            topology, config.failure_probability, seed=seed, epoch=config.failure_epoch
        )
        if config.failure_probability > 0.0
        else None
    )
    node_failures = (
        NodeFailureSchedule(
            topology,
            config.node_failure_probability,
            seed=seed,
            epoch=config.failure_epoch,
        )
        if config.node_failure_probability > 0.0
        else None
    )
    link_loss_rates = None
    if config.loss_rate_range is not None:
        low, high = config.loss_rate_range
        loss_rng = streams.get("link_loss")
        link_loss_rates = {
            edge: float(loss_rng.uniform(low, high))
            for edge in sorted(topology.edges())
        }
    network = OverlayNetwork(
        sim,
        topology,
        streams,
        loss_rate=config.loss_rate,
        failures=failures,
        node_failures=node_failures,
        service_time=config.link_service_time,
        link_loss_rates=link_loss_rates,
        queue_discipline=config.queue_discipline,
    )
    # The record must watch the *build* too: strategy.setup() solves the
    # initial control tables (Theorem-1 order checks) right here.
    record = (
        RunRecord(sanitize=config.sanitize, trace=config.trace)
        if config.sanitize or config.trace
        else None
    )
    with observed(record=record):
        ctx, strategy, brokers = wire_stack(
            sim,
            topology,
            network,
            streams,
            workload,
            ProtocolParams(m=config.m, ack_timeout_factor=config.ack_timeout_factor),
            strategy=STRATEGIES[strategy_name],
            monitor_mode=config.monitor_mode,
            ordering=OrderingPlan.from_text(config.ordering),
        )
    publishers = [
        PublisherProcess(ctx, strategy, spec, stop_time=config.duration)
        for spec in workload.topics
    ]

    def monitor_cycle() -> None:
        ctx.monitor.refresh()
        strategy.on_monitor_refresh()

    monitor_process = PeriodicProcess(sim, config.monitor_period, monitor_cycle)
    return SimulationEnvironment(
        config=config,
        seed=seed,
        ctx=ctx,
        strategy=strategy,
        brokers=brokers,
        publishers=publishers,
        monitor_process=monitor_process,
        record=record,
    )


def run_single(
    config: ExperimentConfig,
    strategy_name: str,
    seed: int,
    topology: Optional[Topology] = None,
    workload: Optional[Workload] = None,
) -> MetricsSummary:
    """Build and execute one run; return its summary."""
    env = build_environment(config, strategy_name, seed, topology, workload)
    return env.execute()


def run_comparison(
    config: ExperimentConfig,
    seed: int,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> Mapping[str, MetricsSummary]:
    """Run every strategy against the identical world; return summaries."""
    return {name: run_single(config, name, seed) for name in strategies}
