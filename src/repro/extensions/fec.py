"""FEC baseline: path diversity with forward error correction.

The paper's related work cites Nguyen & Zakhor's PDF system [5] — packet-
level FEC over diverse paths — as the other classical way of buying
reliability with redundancy. This extension implements the idea so the
redundancy/reliability trade-off can be measured against DCRD and plain
Multipath:

* each published message is expanded into ``n = k + r`` fragments
  (``k`` data + ``r`` parity, an (n, k) erasure code — we simulate the
  combinatorics, not the Galois-field arithmetic: *any* ``k`` distinct
  fragments decode the message);
* the ``n`` fragments are source-routed over the ``n`` most link-disjoint
  of the shortest-delay paths (greedy selection, same spirit as the
  Multipath baseline's secondary-path rule);
* fragments are forwarded hop-by-hop with the shared ARQ; the subscriber's
  broker runtime reassembles — delivery happens when the ``k``-th distinct
  fragment arrives;
* like the other fixed-path schemes, FEC never reroutes: a fragment whose
  path fails is lost, and the message survives only while at least ``k``
  fragment paths stay alive.

Per-subscriber traffic is ~``n/k`` of a tree's (for same-length paths),
tunable between Multipath's 2x (``k=1, r=1`` duplicates) and thinner
redundancy like (3, 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import ProgressHook, SweepExecutor, SweepResult, sweep
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.arq import ArqSender
from repro.routing.base import RoutingStrategy, RuntimeContext
from repro.routing.paths import k_shortest_delay_paths, path_links
from repro.util.errors import RoutingError
from repro.util.validation import require


def select_diverse_paths(candidates: Sequence[List[int]], count: int) -> List[List[int]]:
    """Greedily pick *count* paths minimising pairwise link overlap.

    Starts from the shortest candidate, then repeatedly adds the candidate
    sharing the fewest links with everything already chosen (ties resolve
    toward shorter delay, i.e. earlier candidates). Candidates may repeat
    if the topology offers fewer distinct paths than requested.
    """
    if not candidates:
        raise RoutingError("select_diverse_paths needs at least one candidate")
    chosen: List[List[int]] = [list(candidates[0])]
    chosen_links = set(path_links(candidates[0]))
    while len(chosen) < count:
        best = None
        best_overlap = None
        for candidate in candidates:
            if list(candidate) in chosen:
                continue
            overlap = len(path_links(candidate) & chosen_links)
            if best_overlap is None or overlap < best_overlap:
                best = list(candidate)
                best_overlap = overlap
        if best is None:
            # Topology exhausted: reuse paths round-robin.
            best = chosen[len(chosen) % len(set(map(tuple, chosen)))]
        chosen.append(best)
        chosen_links |= path_links(best)
    return chosen


class FecMultipathStrategy(RoutingStrategy):
    """(n, k) erasure-coded delivery over diverse fixed paths."""

    name = "FEC"
    uses_acks = True

    #: Code parameters: k data fragments, r parity fragments.
    k = 2
    r = 1

    #: Candidate pool of shortest-delay paths to pick from.
    candidate_pool = 8

    def __init__(self, ctx: RuntimeContext) -> None:
        require(self.k >= 1, "k must be >= 1")
        require(self.r >= 0, "r must be >= 0")
        super().__init__(ctx)
        self.arq = ArqSender(ctx)
        # (topic, subscriber) -> one fixed path per fragment.
        self._paths: Dict[Tuple[int, int], List[List[int]]] = {}
        self.abandoned_fragments = 0

    @property
    def n(self) -> int:
        """Total fragments per message per subscriber."""
        return self.k + self.r

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Fix the fragment paths of every (topic, subscriber) pair."""
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
        """The fixed per-fragment paths of one pair."""
        return self._paths[(topic, subscriber)]

    # ------------------------------------------------------------------
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Emit n source-routed fragments per subscriber."""
        now = self.ctx.sim.now
        for sub in spec.subscriptions:
            if sub.node == spec.publisher:
                self.ctx.metrics.record_delivery(msg_id, sub.node, now)
                continue
            paths = self._paths[(spec.topic, sub.node)]
            for index, route in enumerate(paths):
                frame = PacketFrame.fresh(
                    msg_id=msg_id,
                    transfer_id=next(self.ctx.transfer_ids),
                    topic=spec.topic,
                    origin=spec.publisher,
                    publish_time=now,
                    destinations=frozenset({sub.node}),
                    source_route=tuple(route[1:]),
                    fragment_index=index,
                    fragments_needed=self.k,
                    size=1.0 / self.k,
                    ordering=self.ctx.ordering,
                )
                self._forward(spec.publisher, frame)

    def handle_data(self, node: int, sender: int, frame: PacketFrame) -> None:
        """Advance the fragment along its source route."""
        self._forward(node, frame)

    def handle_ack(self, node: int, sender: int, ack: AckFrame) -> None:
        """Route hop-by-hop ACKs into the ARQ layer."""
        self.arq.handle_ack(node, sender, ack)

    # ------------------------------------------------------------------
    def _forward(self, node: int, frame: PacketFrame) -> None:
        if not frame.source_route:
            raise RoutingError(
                f"FEC fragment of msg {frame.msg_id} stranded at {node}"
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
        """Fixed paths cannot reroute: this fragment dies here."""
        self.abandoned_fragments += 1
        # Only the erasure code's slack is lost; metrics-level give-up is
        # not recorded per fragment (the message may still decode).


def fec_study(
    duration: float = 30.0,
    seeds: Sequence[int] = (0, 1),
    failure_probabilities: Sequence[float] = (0.0, 0.02, 0.06, 0.1),
    degree: int = 5,
    strategies: Sequence[str] = ("DCRD", "Multipath", "FEC", "D-Tree"),
    progress: Optional[ProgressHook] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Redundancy trade-off sweep: FEC vs Multipath vs DCRD under failures."""
    configs = {
        pf: ExperimentConfig(
            topology_kind="regular",
            degree=degree,
            duration=duration,
            failure_probability=pf,
        )
        for pf in failure_probabilities
    }
    return sweep(
        "Extension: FEC redundancy",
        "failure probability",
        configs,
        seeds,
        strategies,
        progress,
        executor=executor,
    )
