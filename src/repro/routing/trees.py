"""Tree baselines: R-Tree (shortest hops) and D-Tree (shortest delay).

Both build one *fixed* routing tree per topic — the union of per-subscriber
shortest paths from the publisher — and forward along it with hop-by-hop
ARQ (``m`` transmissions per link). They never reroute: when a link attempt
fails, the destinations behind it are abandoned (§IV-B: "both tree-based
approaches do not reroute the packets when a failure occurs").

* **R-Tree** minimises hop count per publisher→subscriber pair, which makes
  it the more failure-robust tree (fewer links that can fail).
* **D-Tree** minimises end-to-end delay per pair.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, FrozenSet, Set, Tuple

from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.arq import ArqSender
from repro.routing.base import RoutingStrategy, RuntimeContext
from repro.routing.paths import build_path_tree, delay_graph
from repro.util.errors import RoutingError


class TreeStrategy(RoutingStrategy):
    """Common machinery of the fixed-tree baselines."""

    name = "Tree"
    uses_acks = True

    #: Subclasses pick the per-pair path metric: "hops" or "delay".
    metric = "delay"

    def __init__(self, ctx: RuntimeContext) -> None:
        super().__init__(ctx)
        self.arq = ArqSender(ctx)
        # topic -> node -> subscriber -> next hop
        self._tables: Dict[int, Dict[int, Dict[int, int]]] = {}

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Build the per-topic routing trees."""
        topology = self.ctx.topology
        if self.metric == "delay":
            import networkx as nx

            # One estimate-weighted graph for every path of this setup.
            graph = delay_graph(topology, self.ctx.monitor.estimates())
            path = partial(nx.dijkstra_path, graph, weight="weight")
        elif self.metric == "hops":
            path = topology.shortest_hop_path
        else:
            raise RoutingError(f"unknown tree metric {self.metric!r}")
        for spec in self.ctx.workload.topics:
            paths = {
                sub.node: path(spec.publisher, sub.node)
                for sub in spec.subscriptions
                if sub.node != spec.publisher
            }
            self._tables[spec.topic] = build_path_tree(paths)

    def next_hop(self, topic: int, node: int, subscriber: int) -> int:
        """The fixed tree's next hop at *node* toward *subscriber*."""
        return self._tables[topic][node][subscriber]

    def tree_edges(self, topic: int) -> Set[Tuple[int, int]]:
        """All directed (node, next_hop) edges of one topic's tree."""
        edges = set()
        for node, routes in self._tables[topic].items():
            for next_hop in routes.values():
                edges.add((node, next_hop))
        return edges

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Send a fresh packet down the topic's tree from the publisher."""
        destinations = self.deliver_at_origin(
            spec, msg_id, frozenset(spec.subscriber_nodes)
        )
        if not destinations:
            return
        frame = PacketFrame.fresh(
            msg_id=msg_id,
            transfer_id=next(self.ctx.transfer_ids),
            topic=spec.topic,
            origin=spec.publisher,
            publish_time=self.ctx.sim.now,
            destinations=destinations,
            priority=self._copy_priority(spec.topic, self.ctx.sim.now, destinations),
            ordering=self.ctx.ordering,
        )
        self._forward(spec.publisher, frame)

    def _copy_priority(
        self, topic: int, publish_time: float, destinations: FrozenSet[int]
    ) -> float:
        """Urgency stamped on frame copies (inf = no deadline awareness).

        Priority-queueing variants override this; it only matters when the
        network runs an EDF link discipline.
        """
        return float("inf")

    def handle_data(self, node: int, sender: int, frame: PacketFrame) -> None:
        """Continue down the tree."""
        self._forward(node, frame)

    def handle_ack(self, node: int, sender: int, ack: AckFrame) -> None:
        """Route hop-by-hop ACKs into the ARQ layer."""
        self.arq.handle_ack(node, sender, ack)

    def _forward(self, node: int, frame: PacketFrame) -> None:
        groups: Dict[int, Set[int]] = {}
        for subscriber in frame.destinations:
            hop = self._tables[frame.topic].get(node, {}).get(subscriber)
            if hop is None:
                # The tree has no route from here; fixed topologies cannot
                # recover (should not happen with consistent trees).
                self.give_up(frame.msg_id, (subscriber,))
                continue
            groups.setdefault(hop, set()).add(subscriber)
        self.frames_forwarded += len(groups)
        transfer_ids = self.ctx.transfer_ids
        for hop, dests in groups.items():
            subset = frozenset(dests)
            copy = frame.forwarded(
                next(transfer_ids),
                node,
                subset,
                priority=self._copy_priority(frame.topic, frame.publish_time, subset),
            )
            self.arq.send(node, hop, copy, self._on_failed)

    def _on_failed(self, copy: PacketFrame, hop: int) -> None:
        """Fixed trees do not reroute: abandon the subtree's destinations."""
        self.give_up(copy.msg_id, copy.destinations)


class RTreeStrategy(TreeStrategy):
    """Most Reliable Tree: shortest-hop-count paths (paper baseline 1)."""

    name = "R-Tree"
    metric = "hops"


class DTreeStrategy(TreeStrategy):
    """Shortest-Delay-Path Tree (paper baseline 2)."""

    name = "D-Tree"
    metric = "delay"


class PriorityDTreeStrategy(DTreeStrategy):
    """D-Tree with earliest-deadline frame priorities.

    The paper's introduction names "priority-based queuing and shortest
    path tree" as the standard timely-delivery approach that ignores
    reliability. This is that approach: the shortest-delay tree, with every
    frame stamped with its earliest destination deadline so an EDF link
    discipline (``queue_discipline`` ``"edf"`` or ``"edf+drop"``) serves
    urgent traffic first. On FIFO links it behaves exactly like D-Tree.
    """

    name = "P-DTree"

    def _copy_priority(
        self, topic: int, publish_time: float, destinations: FrozenSet[int]
    ) -> float:
        spec = self.ctx.workload.topic(topic)
        deadlines = [
            sub.deadline for sub in spec.subscriptions if sub.node in destinations
        ]
        if not deadlines:
            return float("inf")
        return publish_time + min(deadlines)
