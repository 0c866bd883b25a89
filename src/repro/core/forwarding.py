"""DCRD forwarding: Algorithms 1 and 2 as an event-driven strategy.

Algorithm 1 (routing setup) runs at :meth:`DcrdStrategy.setup` and again
for every link-monitoring cycle that moved the estimates: for every
(topic, subscriber) pair the strategy solves the ``<d, r>`` recursion and
stores the resulting :class:`~repro.core.computation.DrTable` (per-broker
sending lists in Theorem 1 order). After setup it runs on demand: a
refresh that moved the estimates only marks the tables stale, and the
first read of a table (a dispatch, :meth:`DcrdStrategy.table`,
:meth:`DcrdStrategy.sending_list` or a join) solves every stale table in
one batch. Estimates change only inside a refresh, so that solve sees
exactly the inputs an eager one would have, and a refresh no packet reads
is never solved.

Algorithm 2 (the per-packet while loop) cannot block in a discrete-event
world, so each received packet becomes a :class:`_DeliveryTask` — a state
machine at broker ``X`` whose one piece of memory is ``failed_neighbors``:
the neighbours that exhausted their ``m``-transmission budget within this
task (the "X has tried" memory of the while loop).

Dispatch groups destinations by their next hop — the first node on each
destination's sending list that is neither on the routing path nor already
failed (lines 8–19) — and sends one copy per distinct hop through the
shared ARQ layer. The paper's ``flag[i]`` (lines 23–26) needs no set here:
each copy carries its own destinations, and the copies of a task carry
disjoint ones, so the destinations still unflagged are exactly those of
the copies the ARQ still holds. An ACK therefore only releases the ARQ's
copy; an ARQ failure reports the copy and its hop, marks the neighbour
failed and re-dispatches that copy's destinations — all still unflagged,
since no other copy carries them. A destination with no qualified next
hop is bounced to the upstream broker read from the routing path (lines
10–12); when even that is impossible (the broker is the origin, or the
upstream link failed too) the destination is abandoned and recorded as
given up.

Receiving a bounced packet simply starts a new task at the upstream broker —
"the upstream node running the same DCRD algorithm tries the next node on
its sending list" (§III) falls out naturally because the bounced copy's
routing path disqualifies everything already explored.

The whole state machine is event-driven against the
:mod:`repro.substrate` contract — timing flows exclusively through the
shared :class:`~repro.routing.arq.ArqSender` and transmission through
``ctx.network`` — so the identical forwarding logic runs on the
discrete-event kernel and on the live asyncio TCP transport; the
conformance suite (``tests/integration/test_live_conformance.py``)
asserts both substrates deliver the same pairs under the same scripted
faults.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro import probes as _probes
from repro.core.computation import ControlPlaneSolver, DrTable
from repro.perf import PerfStats
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.arq import ArqSender
from repro.routing.base import RoutingStrategy, RuntimeContext


#: A task's failed neighbours before its first failover (shared: a
#: failover replaces the task's set instead of adding to it).
_NONE_FAILED: FrozenSet[int] = frozenset()


class _DeliveryTask:
    """Algorithm 2 running for one received packet copy at one broker.

    Constructing the task runs it (and counts it in the strategy's
    ``tasks_started``); it stays alive only as the ARQ's failure callback
    of the copies it sent.
    """

    __slots__ = ("strategy", "node", "frame", "failed_neighbors", "upstream")

    def __init__(self, strategy: "DcrdStrategy", node: int, frame: PacketFrame) -> None:
        strategy.tasks_started += 1
        self.strategy = strategy
        self.node = node
        self.frame = frame
        self.failed_neighbors: FrozenSet[int] = _NONE_FAILED
        # Lazily resolved by _dispatch (-2 = unset): replayed dispatches
        # never consult the upstream at all.
        self.upstream = -2
        # Flow cache: the initial dispatch (empty failed set) is a pure
        # function of the control state and the frame's (topic, routing
        # path, destination) flow signature, so the computed plan —
        # next-hop groups plus abandoned destinations — is memoised on the
        # strategy and replayed for every later copy of the same flow.
        # Table changes, and refreshes that move the estimates, clear it;
        # per-frame side effects (forwarded copies, ARQ sends, abandon
        # bookkeeping, probes) are re-executed in the recorded order, so a
        # replay is trace-identical to a recomputation. The child copies'
        # routing path is part of the plan too: the key fixes it.
        cache = strategy._dispatch_cache
        key = (frame.topic, node, frame.routing_path, frame.destinations)
        plan = cache.get(key)
        if plan is None:
            plan = self._dispatch(frame.destinations, record=True)
            if len(cache) < strategy.DISPATCH_CACHE_CAP:
                cache[key] = plan
        else:
            self._replay(plan)

    # ------------------------------------------------------------------
    def _dispatch(
        self, subscribers: FrozenSet[int], record: bool = False
    ) -> Optional[tuple]:
        """Assign each destination to a next hop and send copies.

        The next hop of a destination (lines 9–12) is the first node on its
        sending list that is neither on the routing path nor already
        failed, else the upstream broker. The selection is inlined here
        with its loop invariants (path set, failed set, upstream fallback,
        table plumbing) hoisted out of the per-subscriber iteration.

        With ``record=True`` (initial dispatch only) the computed plan is
        returned for the strategy's flow cache: ``(abandons, groups)``
        where ``groups`` is ``((hop, destinations, is_bounce,
        routing_path), ...)`` in send order, ``routing_path`` being the
        child copies' path.
        """
        groups: Dict[int, Set[int]] = {}
        abandoned = [] if record else None
        frame = self.frame
        # One set per dispatch: dispatches run on flow-cache misses and
        # failovers only, so no forwarded copy carries one.
        path = set(frame.routing_path)
        node = self.node
        failed = self.failed_neighbors
        upstream = self.upstream
        if upstream == -2:
            upstream = self.upstream = frame.upstream_of(node)
        bounce = upstream if upstream >= 0 and upstream not in failed else None
        tables_get = self.strategy._fresh_tables().get
        # Packed (topic, subscriber) key — matches the interning used for
        # link directions: one int hash per lookup, no tuple allocation.
        topic_key = frame.topic << 21
        for subscriber in subscribers:
            hop = bounce
            table = tables_get(topic_key | subscriber)
            if table is not None:
                sending_list = table._orders.get(node)
                if sending_list is None:
                    sending_list = table.sending_list(node)
                for candidate in sending_list:
                    if candidate in path or candidate in failed or candidate == node:
                        continue
                    hop = candidate
                    break
            if hop is None:
                self.strategy.abandon(self.node, self.frame, subscriber)
                if abandoned is not None:
                    abandoned.append(subscriber)
                continue
            group = groups.get(hop)
            if group is None:
                groups[hop] = {subscriber}
            else:
                group.add(subscriber)
        if not groups:
            return (tuple(abandoned), ()) if record else None
        strategy = self.strategy
        strategy.frames_forwarded += len(groups)
        arq_send = strategy.arq.send
        transfer_ids = strategy.ctx.transfer_ids
        node = self.node
        frame = self.frame
        probe_bounce = _probes.on_bounce
        plan = [] if record else None
        for hop, dests in groups.items():
            destinations = frozenset(dests)
            copy = frame.forwarded(next(transfer_ids), node, destinations)
            is_bounce = hop == bounce
            if probe_bounce is not None and is_bounce:
                # The upstream fallback won over every sending-list
                # candidate: this copy is a §III-D bounce.
                probe_bounce(strategy.ctx.sim._now, node, hop, copy)
            if plan is not None:
                plan.append((hop, destinations, is_bounce, copy.routing_path))
            arq_send(node, hop, copy, self._on_failed)
        return (tuple(abandoned), tuple(plan)) if record else None

    def _replay(self, plan: tuple) -> None:
        """Re-execute a cached dispatch plan for a fresh frame of the flow."""
        abandons, groups = plan
        strategy = self.strategy
        node = self.node
        frame = self.frame
        for subscriber in abandons:
            strategy.abandon(node, frame, subscriber)
        if not groups:
            return
        strategy.frames_forwarded += len(groups)
        arq_send = strategy.arq.send
        transfer_ids = strategy.ctx.transfer_ids
        probe_bounce = _probes.on_bounce
        on_failed = self._on_failed
        forwarded = frame.forwarded
        for hop, destinations, is_bounce, routing_path in groups:
            copy = forwarded(
                next(transfer_ids), node, destinations, routing_path=routing_path
            )
            if is_bounce and probe_bounce is not None:
                probe_bounce(strategy.ctx.sim._now, node, hop, copy)
            arq_send(node, hop, copy, on_failed)

    # ------------------------------------------------------------------
    def _on_failed(self, copy: PacketFrame, hop: int) -> None:
        """m transmissions went unACKed: mark the hop dead, re-dispatch."""
        self.failed_neighbors = self.failed_neighbors | {hop}
        probe = _probes.on_failover
        if probe is not None:
            probe(self.strategy.ctx.sim._now, self.node, hop, copy)
        self._dispatch(copy.destinations)


class DcrdStrategy(RoutingStrategy):
    """Delay-Cognizant Reliable Delivery (the paper's contribution)."""

    name = "DCRD"
    uses_acks = True
    #: Upper bound on memoised dispatch plans (safety valve for workloads
    #: with unbounded flow diversity; steady-state runs stay far below it).
    DISPATCH_CACHE_CAP = 65536

    #: Reuse tables no changed estimate can reach between refreshes. Flip
    #: to False (per instance) to force the from-scratch reference
    #: behaviour: every refresh with changed estimates re-solves every
    #: pair, exactly like the original per-pair Algorithm 1.
    incremental = True

    def __init__(self, ctx: RuntimeContext) -> None:
        super().__init__(ctx)
        self.arq = ArqSender(ctx)
        # Keyed by the packed pair id ``(topic << 21) | subscriber`` (node
        # ids fit 21 bits, like the overlay's packed direction ids), so the
        # per-subscriber dispatch lookup hashes one int instead of building
        # a tuple.
        self._tables: Dict[int, DrTable] = {}
        # The solver of the monitor's current estimates, shared by the
        # refresh and any subscription that joins before the next one.
        self._solver: Optional[ControlPlaneSolver] = None
        self._solver_version: int = -1
        # Flow cache for initial dispatch plans (see _DeliveryTask); any
        # table change clears it, so cached plans never outlive the control
        # state they were computed from.
        self._dispatch_cache: Dict[tuple, tuple] = {}
        # The estimates version the tables were solved for, and the one the
        # latest refresh (or solve) saw: the tables are stale while the two
        # differ, from a refresh that moved the estimates to the next read.
        self._monitor_version: int = -1
        self._refreshed_version: int = -1
        self.perf = PerfStats()
        self.tasks_started = 0
        self.table_rebuilds = 0

    # ------------------------------------------------------------------
    # Control plane (Algorithm 1)
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Solve the ``<d, r>`` recursion for every (topic, subscriber) pair."""
        self._rebuild_tables()
        # handle_ack is a pure delegation to the ARQ layer; skip the hop on
        # the per-ACK hot path unless a subclass overrides it.
        if type(self).handle_ack is DcrdStrategy.handle_ack:
            self.handle_ack = self.arq.handle_ack

    def on_monitor_refresh(self) -> None:
        """Mark the tables stale when the monitor published new estimates.

        Nothing is solved here: the next read of a table (:meth:`_fresh_tables`)
        re-runs Algorithm 1 for whatever the latest refresh left, so a
        refresh that no packet reads before the next one costs nothing. A
        refresh that changed no estimate keeps the tables and the flow cache.
        """
        version = self.ctx.monitor.version
        if version == self._refreshed_version:
            self.perf.incr("control_plane.refreshes_noop")
            return
        self._refreshed_version = version
        self._dispatch_cache.clear()

    def _fresh_tables(self) -> Dict[int, DrTable]:
        """The tables, solved for the latest refresh's estimates first if
        they are stale."""
        if self._refreshed_version != self._monitor_version:
            self._rebuild_tables()
        return self._tables

    def _current_solver(self) -> ControlPlaneSolver:
        """The solver for the monitor's current estimates (one per version)."""
        monitor = self.ctx.monitor
        if self._solver is None or self._solver_version != monitor.version:
            self._solver = ControlPlaneSolver(
                self.ctx.topology,
                monitor.estimates(),
                m=self.ctx.params.m,
                perf=self.perf,
            )
            self._solver_version = monitor.version
        return self._solver

    def _publish_table(self, key: int, table: DrTable) -> None:
        probe = _probes.on_table_solved
        if probe is not None:
            # Raw solver output, before any subclass reorders its
            # published copy (the naive-order ablation violates Theorem 1
            # on purpose).
            probe(table)
        self._tables[key] = table

    def _rebuild_tables(self) -> None:
        monitor = self.ctx.monitor
        version = monitor.version
        self._refreshed_version = version
        if version == self._monitor_version:
            # Estimates unchanged since the last rebuild: every table is
            # still the exact solution. O(1) thanks to the version counter.
            self.perf.incr("control_plane.refreshes_noop")
            return
        # Change tracking is only valid across a single version step with
        # incrementality on; anything else (first build, missed refreshes,
        # moved latency estimates) falls back to treating every edge as
        # changed, which disables reuse below.
        track_changes = (
            self.incremental
            and self._monitor_version == version - 1
            and not monitor.last_alpha_changed
        )
        changed = monitor.last_changed if track_changes else None
        self._monitor_version = version
        self.table_rebuilds += 1
        self._dispatch_cache.clear()
        self.perf.incr("control_plane.refreshes")
        with self.perf.timer("control_plane.solve_time_s"):
            solver = self._current_solver()
            # Per publisher, the delay to the nearest changed edge: a table
            # whose deadline does not exceed it is out of the change's reach
            # (ControlPlaneSolver.change_distance).
            reach: Dict[int, float] = {}
            keys = []
            pairs = []
            for spec in self.ctx.workload.topics:
                topic_key = spec.topic << 21
                publisher = spec.publisher
                for sub in spec.subscriptions:
                    key = topic_key | sub.node
                    previous = self._tables.get(key)
                    if (
                        changed is not None
                        and previous is not None
                        and previous.deadline == sub.deadline
                    ):
                        nearest = reach.get(publisher)
                        if nearest is None:
                            nearest = reach[publisher] = solver.change_distance(
                                publisher, changed
                            )
                        if sub.deadline <= nearest:
                            # No changed edge can reach this table's positive-
                            # budget region: the from-scratch solve would
                            # reproduce it bit for bit, so keep it.
                            self.perf.incr("control_plane.tables_reused")
                            continue
                    keys.append(key)
                    pairs.append((publisher, sub.node, sub.deadline))
            # Everything that survived is solved as one batch; tables are
            # published in workload order.
            for key, table in zip(keys, solver.solve(pairs)):
                self._publish_table(key, table)

    def copy_span(self, timeout: float, delay: float) -> float:
        """Algorithm 2's bound: ``2 (N - 1)`` hops of ``(Δ m - 1) timeout + delay``.

        Follow one copy back through the copies it descends from: each
        was sent by a task that a copy's arrival started (the first by
        the publish). *N* is the number of brokers, *Δ* the largest
        degree, *m* the transmissions per link.

        *One hop.* A task hands a destination to neighbour after
        neighbour, each only once the previous one failed — ``m``
        unACKed transmissions, ``m * timeout`` — and a failed neighbour
        joins the task's failed set, which only grows, so the hops are
        distinct neighbours: at most *Δ*. The last is handed over within
        ``(Δ - 1) m timeout`` of the task's start, transmitted for the
        last time ``(m - 1) timeout`` later and lands ``delay`` after
        that: every copy a task sends arrives within
        ``(Δ m - 1) timeout + delay`` of its start, and so does the next
        task's start.

        *Hops per chain.* A forward goes to a node not on the copy's
        routing path, which then joins the path when it sends — so no
        node is forwarded to twice in a chain, and not the publisher:
        at most ``N - 1`` forwards. A bounce goes from a node to the
        one it was first forwarded from, its parent in the chain's
        forward tree. Once a node has bounced, the chain is above it and
        can only re-enter its subtree by a forward into it, whose nodes
        are all on the path already: so each node but the publisher
        bounces at most once, ``N - 1`` bounces. A chain of ``2 (N - 1)``
        hops or fewer ends within the bound of its publish.
        """
        topology = self.ctx.topology
        nodes = topology.nodes
        degree = max((topology.degree(node) for node in nodes), default=0)
        per_hop = (degree * self.ctx.params.m - 1) * timeout + delay
        return 2 * (len(nodes) - 1) * per_hop

    def perf_counters(self) -> Dict[str, float]:
        """The control plane's counters, the tasks started and the table
        rebuilds, then the shared data-plane and ARQ counters."""
        perf = self.perf.snapshot()
        perf["data_plane.tasks_started"] = float(self.tasks_started)
        perf["control_plane.table_rebuilds"] = float(self.table_rebuilds)
        perf.update(super().perf_counters())
        return perf

    def table(self, topic: int, subscriber: int) -> DrTable:
        """The control state of one (topic, subscriber) pair."""
        try:
            return self._fresh_tables()[(topic << 21) | subscriber]
        except KeyError:
            raise KeyError((topic, subscriber)) from None

    def sending_list(self, topic: int, subscriber: int, node: int) -> Tuple[int, ...]:
        """Node *node*'s ordered candidates for *subscriber* of *topic*.

        Unknown pairs (e.g. a subscriber that unsubscribed while copies
        were in flight) yield an empty list, so the forwarding task
        abandons the destination cleanly.
        """
        table = self._fresh_tables().get((topic << 21) | subscriber)
        if table is None:
            return ()
        return table.sending_list(node)

    # ------------------------------------------------------------------
    # Subscription churn (incremental Algorithm 1)
    # ------------------------------------------------------------------
    def on_subscription_added(self, topic: int, subscription) -> None:
        """Solve the recursion for just the new (topic, subscriber) pair.

        While the tables are stale the workload already lists the new pair,
        so the pending rebuild solves it in one batch with every other
        stale table, once for the current estimates.
        """
        if self._refreshed_version != self._monitor_version:
            self._rebuild_tables()
            return
        spec = self.ctx.workload.topic(topic)
        with self.perf.timer("control_plane.solve_time_s"):
            (table,) = self._current_solver().solve(
                [(spec.publisher, subscription.node, subscription.deadline)]
            )
        self._publish_table((topic << 21) | subscription.node, table)
        self._dispatch_cache.clear()

    def on_subscription_removed(self, topic: int, node: int) -> None:
        """Drop the pair's control state; in-flight copies self-abandon."""
        self._tables.pop((topic << 21) | node, None)
        self._dispatch_cache.clear()

    # ------------------------------------------------------------------
    # Data plane (Algorithm 2)
    # ------------------------------------------------------------------
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Inject a fresh packet at the publisher's broker.

        The fan-out set comes from the workload's shared
        :class:`~repro.pubsub.topics.SubscriptionIndex` when *spec* is the
        workload's current spec for the topic — one indexed lookup instead
        of rebuilding a frozenset per publish, which keeps publish cost
        independent of subscriber count. Foreign specs (tests injecting
        synthetic topics) fall back to the direct construction.
        """
        index = self.ctx.workload.index()
        index.refresh()
        if index._specs.get(spec.topic) is spec:
            destinations = index._members[spec.topic]
        else:
            destinations = frozenset(spec.subscriber_nodes)
        destinations = self.deliver_at_origin(spec, msg_id, destinations)
        if not destinations:
            return
        ctx = self.ctx
        frame = PacketFrame.fresh(
            msg_id=msg_id,
            transfer_id=next(ctx.transfer_ids),
            topic=spec.topic,
            origin=spec.publisher,
            publish_time=ctx.sim.now,
            destinations=destinations,
            ordering=ctx.ordering,
        )
        _DeliveryTask(self, spec.publisher, frame)

    def handle_data(self, node: int, sender: int, frame: PacketFrame) -> None:
        """A copy arrived (fresh or bounced): run Algorithm 2 at *node*."""
        _DeliveryTask(self, node, frame)

    def handle_ack(self, node: int, sender: int, ack: AckFrame) -> None:
        """Route hop-by-hop ACKs into the ARQ layer."""
        self.arq.handle_ack(node, sender, ack)

    def _start_task(self, node: int, frame: PacketFrame) -> None:
        """Run Algorithm 2 for a copy no neighbour sent (the persistency
        mode's redelivery)."""
        _DeliveryTask(self, node, frame)

    # ------------------------------------------------------------------
    def abandon(self, node: int, frame: PacketFrame, subscriber: int) -> None:
        """Record a destination no broker could make progress on.

        The persistency-mode extension overrides this hook to store the
        packet instead of dropping it (§III's persistency mode).
        """
        probe = _probes.on_abandon
        if probe is not None:
            probe(self.ctx.sim._now, node, frame, subscriber)
        self.give_up(frame.msg_id, (subscriber,))
