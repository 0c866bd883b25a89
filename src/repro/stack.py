"""The composition root: one stack builder, one observer session.

Every broker runs the same hop-by-hop stack whatever hosts it, so every
world-builder — the experiment runner (which also builds
:class:`~repro.system.PubSubSystem`'s world), the scripted sim
scenarios, the live partitions — goes through this
module and keeps only what is its own (hazard schedules, publishers,
fault scripts, sockets, pacing): :func:`wire_stack` assembles the stack
over whatever clock/transport pair the caller brought
(:mod:`repro.substrate`) together with the run's identities (message
ids unique within a run, transfer ids unique within a run and striped
across a fleet), and :class:`observed` owns the process-global
observer state of a run — its record and extra observers attached on
entry, idle state restored on every exit path.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Sequence

from repro import probes as _probes
from repro.core.forwarding import DcrdStrategy
from repro.metrics.collector import MetricsCollector
from repro.ordering.plan import OrderingPlan
from repro.overlay.monitor import LinkMonitor
from repro.overlay.topology import Topology
from repro.pubsub.broker import BrokerRuntime
from repro.pubsub.topics import Workload
from repro.record import RunRecord
from repro.routing.arq import ArqSender
from repro.routing.base import ProtocolParams, RoutingStrategy, RuntimeContext
from repro.sim.random import RandomStreams

#: Seconds added to the longest spread of a transfer's arrivals to give
#: the dedup horizon: orders of magnitude above the float rounding of a
#: timer schedule, and long enough that a broker retires a generation
#: rarely next to how often it accepts an id.
DEDUP_MARGIN_S = 1.0

#: Seconds added to the strategy's proven span of a message's copies to
#: give the message horizon: orders of magnitude above the float
#: rounding of a chain of timer schedules.
MESSAGE_MARGIN_S = 1.0


class Stack(NamedTuple):
    """What :func:`wire_stack` hands back to its composition root."""

    ctx: RuntimeContext
    strategy: RoutingStrategy
    brokers: List[BrokerRuntime]


def wire_stack(
    clock: Any,
    topology: Topology,
    network: Any,
    streams: RandomStreams,
    workload: Workload,
    params: ProtocolParams,
    strategy: Callable[[RuntimeContext], RoutingStrategy] = DcrdStrategy,
    monitor_mode: str = "analytic",
    ordering: Optional[OrderingPlan] = None,
    nodes: Optional[Iterable[int]] = None,
    first_transfer_id: int = 1,
) -> Stack:
    """``LinkMonitor`` → ``MetricsCollector`` → ``RuntimeContext`` →
    *strategy* (a constructor; then ``setup()``) → one ``BrokerRuntime``
    per hosted node (*nodes*; default: every node of *topology*).

    The context's message ids count from 1 and its transfer ids from
    *first_transfer_id* — a fleet partition passes the start of its
    stripe so co-operating processes never collide.

    The substrate's fast paths — interned link directions, latent ARQ
    timers — are switched on whenever every node is hosted here and the
    transport states its round trips in advance (``ack_round_trip``):
    the simulated links of infinite capacity or with a FIFO queue, whose
    copies' waits are known at hand-over. EDF queues, node crashes and
    the live sockets keep eager timers. Every broker's dedup window
    reaches back :func:`dedup_horizon`, and the ordering stage's
    per-message state :func:`message_horizon` (``ctx.message_horizon``).
    """
    ctx = RuntimeContext(
        sim=clock,
        topology=topology,
        network=network,
        monitor=LinkMonitor(topology, network, streams, mode=monitor_mode),
        workload=workload,
        metrics=MetricsCollector(),
        streams=streams,
        params=params,
        ordering=ordering,
        transfer_ids=itertools.count(first_transfer_id),
    )
    routing = strategy(ctx)
    routing.setup()
    hosted = topology.nodes if nodes is None else sorted(nodes)
    brokers = [BrokerRuntime(node, ctx, routing) for node in hosted]
    every_node = len(hosted) == len(topology.nodes)
    if every_node:
        # Every handler of the run is attached: intern the link table so
        # the run never falls back to lazy resolution.
        network.prewarm_directions()
    round_trips = all(
        network.ack_round_trip(u, v) is not None
        and network.ack_round_trip(v, u) is not None
        for u, v in topology.edges()
    )
    if every_node and round_trips and routing.arq is not None:
        # Every receiver ACKs delivered DATA synchronously, and the
        # transport reports each round trip (the simulated links without
        # an EDF queue or node crashes), so ACK timeouts may stay latent.
        routing.arq.enable_timer_elision()
    horizon = dedup_horizon(topology, params, routing.arq, round_trips)
    for broker in brokers:
        broker.bound_window(horizon)
    ctx.message_horizon = message_horizon(topology, params, routing, round_trips)
    if ordering is not None:
        ordering.bound_horizon(ctx.message_horizon, clock.now)
    return Stack(ctx, routing, brokers)


def dedup_horizon(
    topology: Topology,
    params: ProtocolParams,
    arq: Optional[ArqSender],
    round_trips: bool,
) -> float:
    """The dedup horizon of a world: how long a broker must remember an id.

    It is the longest time that can separate two arrivals of one transfer
    at its receiver, plus :data:`DEDUP_MARGIN_S`. A transfer id repeats
    only when *arq* retransmits it over the same direction — every other
    sender draws a fresh id from ``ctx.transfer_ids`` — and successive
    copies are handed to the link one ACK timeout apart, each then taking
    the link's fixed delay. The timeout is a function of the monitor's
    alpha, which is the configured link delay in both monitor modes, so
    all ``m`` copies arrive within ``(m - 1)`` timeouts of the slowest
    link; with ``m = 1`` (or no ARQ) no id ever repeats. The bound needs
    copies handed straight to their link on time. Where a retransmission
    can wait in its sender's queue (finite-capacity links: the ARQ's
    ``wire_reported``) or the transport states no round trip in advance
    (*round_trips* false: the wall clock, whose timers have no lateness
    ceiling), none exists and the horizon is ``math.inf``.

    It spans the copies of one *transfer*, so it is short (one or two
    timeouts); :func:`message_horizon` spans every copy of a *message*,
    whatever its transfer, and is far longer.
    """
    spread = 0.0
    if arq is not None and params.m > 1:
        if arq.wire_reported or not round_trips:
            return math.inf
        slowest = max((topology.delay(u, v) for u, v in topology.edges()), default=0.0)
        spread = (params.m - 1) * params.ack_timeout(slowest)
    return spread + DEDUP_MARGIN_S


def message_horizon(
    topology: Topology,
    params: ProtocolParams,
    routing: RoutingStrategy,
    round_trips: bool,
) -> float:
    """The message horizon of a world: how long a message's state may matter.

    It is the longest time from a message's publish to the arrival of
    any copy of it at a broker, plus :data:`MESSAGE_MARGIN_S`. After it,
    no pipeline can be offered the message again, so a pipeline forgets
    its released id and the plan its tag one horizon on
    (:class:`~repro.util.generations.Generations`) and no release,
    stall or delivery changes.

    The span is the running strategy's (:meth:`RoutingStrategy.copy_span
    <repro.routing.base.RoutingStrategy.copy_span>`; for DCRD
    ``2 (N - 1)`` hops of ``(Δ m - 1)`` ACK timeouts plus a link delay,
    proven at :meth:`DcrdStrategy.copy_span
    <repro.core.forwarding.DcrdStrategy.copy_span>`), asked with the
    ACK timeout and the delay of the slowest link. The monitor's alpha
    is the configured link delay in both monitor modes, so no timeout
    is longer. That bound needs timers that fire on time and copies
    handed straight to their link. Where a copy can wait in its
    sender's queue (finite-capacity links: the ARQ's ``wire_reported``)
    or the transport states no round trip in advance (*round_trips*
    false: the wall clock and the fleet, whose timers have no lateness
    ceiling, EDF queues, node crashes), none exists and the horizon is
    ``math.inf``; so it is for every strategy that proves no span
    (the baselines, and custody, whose store holds a copy for later).
    """
    arq = routing.arq
    if not round_trips or (arq is not None and arq.wire_reported):
        return math.inf
    slowest = max((topology.delay(u, v) for u, v in topology.edges()), default=0.0)
    span = routing.copy_span(params.ack_timeout(slowest), slowest)
    return span + MESSAGE_MARGIN_S


class observed:
    """Context manager owning one run's process-global observer state.

    Entry attaches the run's *record* — its one
    :class:`~repro.record.RunRecord`, sanitizing and/or tracing — and the
    extra *observers* to the probe bus. Exit detaches exactly what entry
    attached: a ``None`` record detaches nothing, and observers attached
    to the bus directly are left untouched. The context's ordering plan
    stamps from its construction on; :meth:`close` only disarms its
    pipelines.

    :meth:`finish` ends a run that completed: hold-back state is flushed
    while the record watches, then its end-of-run checks run. A clean
    ``with`` exit calls it; an owner whose run spans several calls (a
    live partition) enters, calls :meth:`finish` once settled, and
    :meth:`close` on every path — a run that failed is torn down, not
    checked. Without a *ctx* the session only watches (a build, say).
    """

    def __init__(
        self,
        ctx: Optional[RuntimeContext] = None,
        record: Optional[RunRecord] = None,
        observers: Sequence[Any] = (),
    ) -> None:
        self.ctx = ctx
        self.record = record
        #: Everything this session attaches.
        self.observers = tuple(o for o in (record, *observers) if o is not None)
        self.plan: Optional[OrderingPlan] = ctx.ordering if ctx is not None else None
        self._finished = False
        if ctx is not None and record is not None:
            # The record checks every arrival against the run's horizon.
            record.message_horizon = ctx.message_horizon

    def __enter__(self) -> "observed":
        for observer in self.observers:
            _probes.attach(observer)
        return self

    def finish(self) -> None:
        """Flush hold-back state, then run the end-of-run checks (once)."""
        if self._finished or self.ctx is None:
            return
        self._finished = True
        if self.plan is not None:
            self.plan.flush()
        if self.record is not None:
            self.record.finish(self.ctx.metrics, self.ctx.sim.now)

    def close(self) -> None:
        """Disarm the ordering pipelines and detach every observer."""
        if self.plan is not None:
            self.plan.close()
        for observer in self.observers:
            _probes.detach(observer)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if exc_type is None:
                self.finish()
        finally:
            self.close()
