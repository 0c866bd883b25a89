"""Multipath baseline: fixed duplicate paths per subscriber (§IV-B).

For every (publisher, subscriber) pair the publisher sends each packet as
two copies: one down the shortest-delay path, one down the path — among the
five shortest-delay simple paths — sharing the fewest links with the first.
Both copies are source-routed and forwarded with hop-by-hop ARQ; like the
trees, Multipath never reroutes, so a failure on both chosen paths loses
the packet. The redundancy roughly doubles traffic (Figure 2c).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.arq import ArqSender
from repro.routing.base import RoutingStrategy, RuntimeContext
from repro.routing.paths import (
    k_shortest_delay_paths,
    least_overlapping_path,
)
from repro.util.errors import RoutingError


class MultipathStrategy(RoutingStrategy):
    """The paper's Multipath comparison point."""

    name = "Multipath"
    uses_acks = True

    #: Candidate pool size for the secondary path (paper: top 5).
    candidate_pool = 5

    def __init__(self, ctx: RuntimeContext) -> None:
        super().__init__(ctx)
        self.arq = ArqSender(ctx)
        # (topic, subscriber) -> (primary path, secondary path)
        self._paths: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}
        self.abandoned = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Fix the two paths of every (topic, subscriber) pair."""
        estimates = self.ctx.monitor.estimates()
        for spec in self.ctx.workload.topics:
            for sub in spec.subscriptions:
                if sub.node == spec.publisher:
                    continue
                candidates = k_shortest_delay_paths(
                    self.ctx.topology,
                    spec.publisher,
                    sub.node,
                    self.candidate_pool,
                    estimates,
                )
                primary = candidates[0]
                secondary = least_overlapping_path(
                    self.ctx.topology, primary, candidates
                )
                self._paths[(spec.topic, sub.node)] = (primary, secondary)

    def paths_for(self, topic: int, subscriber: int) -> Tuple[List[int], List[int]]:
        """The fixed (primary, secondary) paths of one pair."""
        return self._paths[(topic, subscriber)]

    # ------------------------------------------------------------------
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Emit two source-routed copies per subscriber."""
        now = self.ctx.sim.now
        for sub in spec.subscriptions:
            if sub.node == spec.publisher:
                self.ctx.metrics.record_delivery(msg_id, sub.node, now)
                continue
            primary, secondary = self._paths[(spec.topic, sub.node)]
            routes = [primary]
            if secondary != primary:
                routes.append(secondary)
            for route in routes:
                frame = PacketFrame.fresh(
                    msg_id=msg_id,
                    transfer_id=next(self.ctx.transfer_ids),
                    topic=spec.topic,
                    origin=spec.publisher,
                    publish_time=now,
                    destinations=frozenset({sub.node}),
                    source_route=tuple(route[1:]),
                    ordering=self.ctx.ordering,
                )
                self._forward(spec.publisher, frame)

    def handle_data(self, node: int, sender: int, frame: PacketFrame) -> None:
        """Advance the copy along its source route."""
        self._forward(node, frame)

    def handle_ack(self, node: int, sender: int, ack: AckFrame) -> None:
        """Route hop-by-hop ACKs into the ARQ layer."""
        self.arq.handle_ack(node, sender, ack)

    # ------------------------------------------------------------------
    def _forward(self, node: int, frame: PacketFrame) -> None:
        if not frame.source_route:
            raise RoutingError(
                f"multipath copy of msg {frame.msg_id} stranded at {node}"
            )
        hop = frame.source_route[0]
        copy = frame.forwarded(
            next(self.ctx.transfer_ids),
            node,
            frame.destinations,
            source_route=frame.source_route[1:],
        )
        self.frames_forwarded += 1
        self.arq.send(node, hop, copy, self._on_acked, self._on_failed)

    def _on_acked(self, copy: PacketFrame) -> None:
        """Responsibility moved downstream; nothing to do."""

    def _on_failed(self, copy: PacketFrame) -> None:
        """Fixed paths cannot reroute: this copy dies here."""
        self.abandoned += 1
        # The twin copy may still make it; give-up is advisory and only
        # marks destinations that never get delivered.
        for subscriber in copy.destinations:
            self.ctx.metrics.record_give_up(copy.msg_id, subscriber)
