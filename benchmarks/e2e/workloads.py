"""The six workloads and what one repetition of each measures.

Every workload runs DCRD. A repetition is *build* (timed as ``setup_s``)
then *execute* (the timed region). Only public entry points are called:
``ExperimentConfig``, ``build_topology``, ``generate_workload``,
``build_environment`` and ``SimulationEnvironment.execute`` on the
simulator; ``make_scenario``/``Scenario``, ``run_live_scenario``,
``run_sim_scenario`` and ``LiveConfig`` on the socket substrate; the probe
bus for counts.

What ``--seed`` drives. The overlay and the subscription set of a
simulated workload are part of the workload's definition and are drawn
once from :data:`WORLD_SEED`; the run seed drives everything that happens
*to* that world — the per-epoch link-failure schedule, every random-loss
draw, the sampled link estimates. Measured over seeds 1..6 with the world
drawn from the run seed instead, ``on_time_ratio`` on ``total_order``
ranged 0.058..0.190 and ``delivery_ratio`` on ``congested_links``
0.33..0.39: a different overlay is a different workload, and no bound
tighter than that spread could ever catch a regression. On ``live_ring``
the seed perturbs each link's imposed delay by up to 2 %.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from machine import Stopwatch
from repro import probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, build_topology
from repro.live.config import LiveConfig
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import make_scenario, run_sim_scenario
from repro.pubsub.topics import generate_workload
from repro.sim.random import RandomStreams

#: Seed of every simulated workload's overlay and subscription set.
WORLD_SEED = 1

#: Live link delays are scaled by ``1 + U(-x, x)`` drawn from the run seed.
LIVE_DELAY_JITTER = 0.02


@dataclass
class Rep:
    """What one build → execute repetition produced."""

    substrate: str  # "sim" | "live"
    #: The build, and the timed region (execute / the live run).
    setup: Stopwatch
    timed: Stopwatch
    expected: int
    delivered: int
    on_time: int
    data_transmissions: int
    delay_p50_s: float
    delay_p95_s: float
    delay_p99_s: float
    delay_samples: int
    #: Output-check failures (empty = all checks passed).
    problems: List[str] = field(default_factory=list)
    #: Counters for the per-layer pass (``MetricsSummary.perf`` and friends).
    facts: Dict[str, Any] = field(default_factory=dict)

    @property
    def simulated(self) -> Tuple[Any, ...]:
        """Everything that must repeat exactly for a fixed seed on the simulator."""
        return (
            self.expected,
            self.delivered,
            self.on_time,
            self.data_transmissions,
            self.delay_p50_s,
            self.delay_p95_s,
            self.delay_p99_s,
            self.facts.get("events"),
            self.facts.get("timers_elided"),
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quantiles(delays: List[float]) -> Tuple[float, float, float]:
    """The 50th, 95th and 99th percentile of *delays*."""
    if not delays:
        return 0.0, 0.0, 0.0
    p50, p95, p99 = np.quantile(np.asarray(delays), (0.5, 0.95, 0.99))
    return float(p50), float(p95), float(p99)


def _stat_total(stats: Any, name: str) -> Optional[int]:
    """Sum over frame kinds of one ``LinkStats`` counter, if it exists."""
    counters = getattr(stats, name, None)
    if counters is None:
        return None
    return int(sum(counters.values()))


@dataclass(frozen=True)
class SimWorkload:
    """One simulated workload: a fixed world plus a seed-driven hazard schedule."""

    name: str
    why: str
    config: ExperimentConfig
    #: Build → execute repetitions of one run at the default ``--seconds``.
    reps: int
    #: ``delivery_ratio`` must reach this (1.0 = every pair).
    min_delivery: Optional[float] = None
    #: The flat link table must never fall back to lazy resolution.
    no_dir_fallbacks: bool = False
    substrate: str = "sim"

    def build(self, seed: int) -> Any:
        """The wired environment (this is what ``setup_s`` times)."""
        config = self.config
        world = RandomStreams(WORLD_SEED)
        topology = build_topology(config, world)
        workload = generate_workload(
            topology,
            world.get("workload"),
            num_topics=config.num_topics,
            publish_interval=config.publish_interval,
            ps_range=config.ps_range,
            deadline_factor=config.deadline_factor,
            deadline_factor_choices=config.deadline_factor_choices,
        )
        return build_environment(config, "DCRD", seed, topology=topology, workload=workload)

    def setup_only(self, seed: int, after: Optional[Stopwatch] = None) -> Stopwatch:
        gc.collect()
        watch = Stopwatch(after)
        self.build(seed)
        return watch.stop()

    def rep(self, seed: int) -> Rep:
        gc.collect()
        setup = Stopwatch()
        env = self.build(seed)
        setup.stop()
        strategy_perf = getattr(env.strategy, "perf", None)
        before = strategy_perf.snapshot() if strategy_perf is not None else {}
        gc.collect()
        timed = Stopwatch(after=setup)
        summary = env.execute()
        timed.stop()

        collector = env.ctx.metrics
        outcomes = collector.outcomes()
        delays = collector.delays()
        p50, p95, p99 = _quantiles(delays)
        perf = dict(summary.perf)
        stats = env.ctx.network.stats
        rep = Rep(
            substrate="sim",
            setup=setup,
            timed=timed,
            expected=summary.expected_deliveries,
            delivered=summary.delivered,
            on_time=summary.on_time,
            data_transmissions=summary.data_transmissions,
            delay_p50_s=p50,
            delay_p95_s=p95,
            delay_p99_s=p99,
            delay_samples=len(delays),
            facts={
                "perf": perf,
                "perf_before": before,
                "events": perf.get("sim.events_processed"),
                "timers_elided": perf.get("arq.timers_elided"),
                "lost_failure": _stat_total(stats, "lost_failure"),
                "lost_random": _stat_total(stats, "lost_random"),
                "dropped_expired": _stat_total(stats, "dropped_expired"),
            },
        )
        pairs = {(o.msg_id, o.subscriber) for o in outcomes}
        if len(pairs) != len(outcomes):
            rep.problems.append("a (message, subscriber) pair was registered twice")
        if sum(1 for o in outcomes if o.delivered) != summary.delivered:
            rep.problems.append("delivered count disagrees with the outcome table")
        if summary.expected_deliveries != len(outcomes):
            rep.problems.append("expected count disagrees with the outcome table")
        if self.no_dir_fallbacks and perf.get("flat.dir_fallbacks", 0.0) != 0.0:
            rep.problems.append(
                f"links.dir_fallbacks = {perf['flat.dir_fallbacks']:.0f}, expected 0"
            )
        _check_delivery(rep, self.min_delivery)
        return rep


def _check_delivery(rep: Rep, min_delivery: Optional[float]) -> None:
    if rep.expected < 1:
        rep.problems.append("no deliveries were expected")
        return
    if rep.delivered > rep.expected:
        rep.problems.append("more pairs delivered than expected")
    ratio = rep.delivered / rep.expected
    if min_delivery is not None and ratio < min_delivery:
        rep.problems.append(f"delivery_ratio {ratio:.5f} < {min_delivery}")


class _DataFrames:
    """Counts DATA transmissions on the live transport (it has no summary)."""

    def __init__(self) -> None:
        self.count = 0

    def on_transmit(self, *_args: Any) -> None:
        self.count += 1


@dataclass(frozen=True)
class LiveWorkload:
    """The clean 6-node ring over loopback TCP, all brokers on one event loop."""

    name: str
    why: str
    # Seven short repetitions, not one long one: a host stall of a few tens
    # of milliseconds sets the wall-clock tail of whichever repetition it
    # lands in, and the median over repetitions has to outvote those.
    reps: int = 7
    publishes: int = 800
    publish_interval: float = 0.001
    deadline_factor: float = 1.5
    min_delivery: Optional[float] = 1.0
    substrate: str = "live"

    def scenario(self, seed: int, publishes: int) -> Any:
        rng = random.Random(seed)
        base = make_scenario("clean")
        edges = tuple(
            (u, v, delay * (1.0 + rng.uniform(-LIVE_DELAY_JITTER, LIVE_DELAY_JITTER)))
            for u, v, delay in base.edges
        )
        jittered = dataclasses.replace(base, edges=edges)
        topology = jittered.topology()
        subscribers = tuple(
            (node, self.deadline_factor * topology.shortest_delay(base.publisher, node))
            for node, _deadline in base.subscribers
        )
        return dataclasses.replace(
            jittered,
            name=self.name,
            subscribers=subscribers,
            publishes=publishes,
            publish_interval=self.publish_interval,
        )

    def setup_only(self, seed: int, after: Optional[Stopwatch] = None) -> Stopwatch:
        """Boot, connect, settle and tear down with nothing published."""
        gc.collect()
        watch = Stopwatch(after)
        run_live_scenario(self.scenario(seed, 0), seed=seed, sanitize=False, config=LiveConfig())
        return watch.stop()

    def rep(self, seed: int) -> Rep:
        setup = self.setup_only(seed)
        scenario = self.scenario(seed, self.publishes)
        frames = _DataFrames()
        gc.collect()
        probes.attach(frames)
        try:
            timed = Stopwatch(after=setup)
            result = run_live_scenario(scenario, seed=seed, sanitize=False, config=LiveConfig())
            timed.stop()
        finally:
            probes.detach(frames)
        deadlines = dict(scenario.subscribers)
        delays = [delay for _msg, _node, delay in result["delays"]]
        p50, p95, p99 = _quantiles(delays)
        rep = Rep(
            substrate="live",
            setup=setup,
            timed=timed,
            expected=result["expected"],
            delivered=len(result["delivered"]),
            on_time=sum(1 for _m, node, delay in result["delays"] if delay <= deadlines[node]),
            data_transmissions=frames.count,
            delay_p50_s=p50,
            delay_p95_s=p95,
            delay_p99_s=p99,
            delay_samples=len(delays),
            facts={
                "perf": {
                    "arq.retransmissions": float(result["retransmissions"]),
                    "data_plane.abandoned": float(result["abandoned"]),
                },
                "perf_before": {},
                "publish_interval": scenario.publish_interval,
                "scenario": scenario,
                "seed": seed,
            },
        )
        deliveries = result["deliveries"]
        if len(set(deliveries)) != len(deliveries):
            rep.problems.append("a (message, subscriber) pair was delivered twice")
        if result["max_accepts_per_transfer"] > 1:
            rep.problems.append("a transfer passed a broker's dedup twice")
        if result["in_flight"]:
            rep.problems.append(f"{result['in_flight']} ARQ copies still in flight")
        _check_delivery(rep, self.min_delivery)
        return rep

    def sim_delay_quantiles(self, rep: Rep) -> Tuple[float, float, float]:
        """The simulator's delay quantiles for the scenario *rep* ran."""
        result = run_sim_scenario(rep.facts["scenario"], seed=rep.facts["seed"], sanitize=False)
        return _quantiles([delay for _m, _n, delay in result["delays"]])


def _sim(
    name: str, why: str, reps: int, min_delivery: Optional[float],
    no_dir_fallbacks: bool = False, **config: Any,
) -> SimWorkload:
    return SimWorkload(
        name=name,
        why=why,
        config=ExperimentConfig(**config),
        reps=reps,
        min_delivery=min_delivery,
        no_dir_fallbacks=no_dir_fallbacks,
    )


WORKLOADS: Tuple[Any, ...] = (
    _sim(
        "dense_dataplane",
        "160-node degree-8 overlay at 5 msg/s per topic: the interned-link, elided-timer, "
        "flow-cache fast path; kernel, links, ARQ, broker and forwarding share the time, solver idle",
        3, 0.99, no_dir_fallbacks=True,
        topology_kind="regular", degree=8, num_nodes=160, num_topics=4,
        publish_interval=0.2, failure_probability=0.06, duration=60.0,
    ),
    _sim(
        "refresh_controlplane",
        "sampled link monitor every 10 s re-solves all 201 tables warm: the solver does over "
        "90% of the work and the data plane almost none, the mirror of dense_dataplane",
        3, 0.99,
        topology_kind="regular", degree=6, num_nodes=80, num_topics=6,
        monitor_mode="sampled", monitor_period=10.0, failure_probability=0.06, duration=20.0,
    ),
    _sim(
        "lossy_failover",
        "5% random loss, Pf 0.1, m=2: the same data-plane layers on their slow path - "
        "materialised timers, retransmission, failover, upstream bounce",
        4, 0.97,
        topology_kind="regular", degree=5, num_nodes=20, failure_probability=0.1,
        loss_rate=0.05, m=2, duration=900.0,
    ),
    _sim(
        "total_order",
        "total-order hold-back on the 20-node mesh: the only workload where the ordering "
        "pipeline runs; its headline is simulated delay (about 10x unordered), not host time",
        5, 1.0,
        # The paper's 3x deadline cannot be met behind a 0.25 s hold-back:
        # what meets it is the stall-released share, 1.6..8.1 % by seed,
        # which no bound can gate. 20x is a deadline a held frame can meet.
        failure_probability=0.06, ordering="total", deadline_factor=20.0, duration=900.0,
    ),
    _sim(
        "congested_links",
        "finite-capacity links at 4 msg/s per topic: the retransmission storm (about 195 packets "
        "per pair, a third delivered); the only workload on the queueing path",
        2, None,
        topology_kind="regular", degree=5, num_nodes=20, failure_probability=0.0,
        publish_interval=0.25, link_service_time=0.02, duration=5.0,
    ),
    LiveWorkload(
        name="live_ring",
        why="6-node ring over loopback TCP, 800 messages paced at 1 kHz on one event loop: codec, "
        "sockets, wall-clock timers and pacing lag; delays are wall-clock",
    ),
)

BY_NAME: Dict[str, Any] = {workload.name: workload for workload in WORKLOADS}
