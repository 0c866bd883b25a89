"""The composition root: one stack builder, one observer session.

Every broker runs the same hop-by-hop stack whatever hosts it, so every
world-builder — the experiment runner, :class:`~repro.system.PubSubSystem`,
the scripted sim scenarios, the live partitions — goes through this
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
from repro.routing.base import ProtocolParams, RoutingStrategy, RuntimeContext
from repro.sim.random import RandomStreams


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
    timers — are switched on whenever every node is hosted here; a
    substrate without them answers those calls trivially.
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
    if len(hosted) == len(topology.nodes):
        # Every handler of the run is attached: intern the link table so
        # the run never falls back to lazy resolution ...
        network.prewarm_directions()
        # ... and every receiver ACKs delivered DATA synchronously, so ACK
        # timeouts may stay latent (where the transport reports a round
        # trip: the simulated links only).
        if routing.arq is not None:
            routing.arq.enable_timer_elision()
    return Stack(ctx, routing, brokers)


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
