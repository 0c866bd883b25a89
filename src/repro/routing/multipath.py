"""Multipath baseline: fixed, diverse source routes per subscriber (§IV-B).

For every (publisher, subscriber) pair the publisher sends each message as
``n = k + r`` copies, one down each of the ``n`` most link-disjoint of the
``candidate_pool`` shortest-delay simple paths
(:func:`~repro.routing.paths.select_diverse_paths`). The paper's Multipath
is ``k = 1, r = 1`` over the top five: one copy down the shortest-delay
path, one down the path sharing the fewest links with it. With ``k > 1``
the copies are the fragments of an (n, k) erasure code — the FEC preset in
:mod:`repro.extensions.fec` — each carrying ``1/k`` of the message.

Copies are source-routed and forwarded with hop-by-hop ARQ. Like the
trees, the scheme never reroutes: a copy whose link attempt fails dies
there and gives up its destination, so a failure on every chosen path
loses the packet. The redundancy roughly doubles traffic (Figure 2c).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.arq import ArqSender
from repro.routing.base import RoutingStrategy, RuntimeContext
from repro.routing.paths import k_shortest_delay_paths, select_diverse_paths
from repro.util.errors import RoutingError
from repro.util.validation import require


class MultipathStrategy(RoutingStrategy):
    """The paper's Multipath comparison point, and its (n, k) coded form."""

    name = "Multipath"
    uses_acks = True

    #: Code parameters: any ``k`` distinct copies deliver the message, and
    #: ``r`` more are redundancy. Plain duplication is ``k = 1, r = 1``.
    k = 1
    r = 1

    #: Candidate pool of shortest-delay paths to pick from (paper: top 5).
    candidate_pool = 5

    def __init__(self, ctx: RuntimeContext) -> None:
        require(self.k >= 1, "k must be >= 1")
        require(self.r >= 0, "r must be >= 0")
        super().__init__(ctx)
        self.arq = ArqSender(ctx)
        # (topic, subscriber) -> one fixed path per copy.
        self._paths: Dict[Tuple[int, int], List[List[int]]] = {}

    @property
    def n(self) -> int:
        """Copies per message per subscriber."""
        return self.k + self.r

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Fix the copy paths of every (topic, subscriber) pair."""
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
                self._paths[(spec.topic, sub.node)] = select_diverse_paths(
                    candidates, self.n
                )

    def paths_for(self, topic: int, subscriber: int) -> List[List[int]]:
        """The fixed per-copy paths of one pair, shortest-delay first."""
        return self._paths[(topic, subscriber)]

    # ------------------------------------------------------------------
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Send each remote subscriber a copy per fragment, or per distinct route."""
        now = self.ctx.sim.now
        remote = self.deliver_at_origin(spec, msg_id, frozenset(spec.subscriber_nodes))
        coded = self.k > 1
        for sub in spec.subscriptions:
            if sub.node not in remote:
                continue
            paths = self._paths[(spec.topic, sub.node)]
            for index, route in enumerate(paths):
                if not coded and route in paths[:index]:
                    continue
                frame = PacketFrame.fresh(
                    msg_id=msg_id,
                    transfer_id=next(self.ctx.transfer_ids),
                    topic=spec.topic,
                    origin=spec.publisher,
                    publish_time=now,
                    destinations=frozenset({sub.node}),
                    source_route=tuple(route[1:]),
                    fragment_index=index if coded else -1,
                    fragments_needed=self.k if coded else 0,
                    size=1.0 / self.k,
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
        self.arq.send(node, hop, copy, self._on_failed)

    def _on_failed(self, copy: PacketFrame, hop: int) -> None:
        """Fixed paths cannot reroute: this copy dies here.

        The give-up is advisory: a twin copy may still deliver, or enough
        fragments still decode, and a delivered pair is never given up.
        """
        self.give_up(copy.msg_id, copy.destinations)
