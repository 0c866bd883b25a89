"""ORACLE baseline: the performance upper bound (§IV-B).

The oracle knows the entire failure schedule — present *and future* — and
routes every packet along the shortest-delay path that avoids every link
that would be failed at the moment the packet crosses it. It is implemented
as a time-dependent Dijkstra over the deterministic
:class:`~repro.overlay.failures.FailureSchedule`: relaxing edge ``(u, v)``
from an arrival time ``t`` at ``u`` is allowed only if the link is up at
``t``. Packets do not wait at brokers; if no currently feasible path exists
the packet is dropped (this matches Figure 4, where even ORACLE falls below
85% on degree-3 overlays).

Being an upper bound, the oracle sends without ACKs and its transmissions
skip the recoverable random-loss draw (``reliable=True``); transient
failures and node crashes still apply — but by construction it never meets
one. Copies for subscribers that share a path prefix are merged, like the
tree baselines, so the traffic metric stays comparable.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.overlay.failures import FailureSchedule, NodeFailureSchedule
from repro.overlay.topology import Topology
from repro.pubsub.messages import PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.base import RoutingStrategy, RuntimeContext
from repro.util.errors import RoutingError

#: How long per-message path state is retained before garbage collection.
_PATH_STATE_TTL = 120.0


def time_dependent_paths(
    topology: Topology,
    failures: Optional[FailureSchedule],
    source: int,
    start_time: float,
    node_failures: Optional[NodeFailureSchedule] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Single-source earliest-arrival search avoiding failed links.

    Returns ``(arrival_time, parent)`` maps. A link can be taken only if it
    is not failed at the departure instant (= the arrival time at its tail;
    brokers forward immediately and never wait out a failure). When a
    node-crash schedule is supplied (extension study), the sender must be
    alive at departure and the receiver alive at arrival — mirroring
    exactly when :class:`~repro.overlay.links.OverlayNetwork` drops frames.
    """
    if node_failures is not None and node_failures.is_failed(source, start_time):
        return {}, {}
    arrival: Dict[int, float] = {source: start_time}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(start_time, source)]
    settled: Set[int] = set()
    while heap:
        time, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node_failures is not None and node_failures.is_failed(node, time):
            # The broker is down when the frame would pass through it.
            continue
        for neighbor in topology.neighbors(node):
            if neighbor in settled:
                continue
            if failures is not None and failures.is_failed(node, neighbor, time):
                continue
            candidate = time + topology.delay(node, neighbor)
            if node_failures is not None and node_failures.is_failed(
                neighbor, candidate
            ):
                continue
            if candidate < arrival.get(neighbor, float("inf")):
                arrival[neighbor] = candidate
                parent[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return arrival, parent


def extract_path(parent: Dict[int, int], source: int, target: int) -> Optional[List[int]]:
    """Rebuild the path from a parent map; ``None`` if unreachable."""
    if target == source:
        return [source]
    if target not in parent:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class OracleStrategy(RoutingStrategy):
    """Failure-clairvoyant shortest-delay routing."""

    name = "ORACLE"
    uses_acks = False

    def __init__(self, ctx: RuntimeContext) -> None:
        super().__init__(ctx)
        # msg_id -> {subscriber: full path}
        self._routes: Dict[int, Dict[int, List[int]]] = {}

    # ------------------------------------------------------------------
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Choose clairvoyant paths for all subscribers and start sending."""
        now = self.ctx.sim.now
        _, parent = time_dependent_paths(
            self.ctx.topology,
            self.ctx.network.failures,
            spec.publisher,
            now,
            node_failures=self.ctx.network.node_failures,
        )
        routes: Dict[int, List[int]] = {}
        remote = self.deliver_at_origin(spec, msg_id, frozenset(spec.subscriber_nodes))
        for subscriber in remote:
            path = extract_path(parent, spec.publisher, subscriber)
            if path is None:
                self.give_up(msg_id, (subscriber,))
            else:
                routes[subscriber] = path
        if not routes:
            return
        self._routes[msg_id] = routes
        self.ctx.sim.schedule(_PATH_STATE_TTL, self._routes.pop, msg_id, None)
        frame = PacketFrame.fresh(
            msg_id=msg_id,
            transfer_id=next(self.ctx.transfer_ids),
            topic=spec.topic,
            origin=spec.publisher,
            publish_time=now,
            destinations=frozenset(routes),
            ordering=self.ctx.ordering,
        )
        self._forward(spec.publisher, frame)

    def handle_data(self, node: int, sender: int, frame: PacketFrame) -> None:
        """Continue along each destination's precomputed path."""
        self._forward(node, frame)

    # ------------------------------------------------------------------
    def _forward(self, node: int, frame: PacketFrame) -> None:
        routes = self._routes.get(frame.msg_id)
        if routes is None:
            raise RoutingError(f"oracle lost path state of msg {frame.msg_id}")
        groups: Dict[int, Set[int]] = {}
        for subscriber in frame.destinations:
            path = routes[subscriber]
            position = path.index(node)
            groups.setdefault(path[position + 1], set()).add(subscriber)
        self.frames_forwarded += len(groups)
        transfer_ids = self.ctx.transfer_ids
        for hop, dests in groups.items():
            copy = frame.forwarded(next(transfer_ids), node, frozenset(dests))
            self.ctx.network.send_data(node, hop, copy, reliable=True)
