"""Topics, subscriptions, and the paper's workload generator.

Paper workload (§IV-A): 10 topics, each with one publisher placed on a
randomly chosen broker, publishing at 1 packet/s (the ADS-B air-surveillance
rate). For each topic a subscriber-placement probability ``Ps`` is drawn
uniformly from [0.2, 0.6]; every broker then hosts a subscriber for that
topic with probability ``Ps``. Each publisher→subscriber pair has a delay
requirement equal to ``deadline_factor`` (default 3) times the shortest-path
delay between the two brokers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.topology import Topology
from repro.util.validation import (
    require,
    require_in_range,
    require_positive,
    require_probability,
)


@dataclass(frozen=True)
class Subscription:
    """One subscriber of one topic.

    Attributes
    ----------
    node:
        Broker hosting the subscriber.
    deadline:
        End-to-end delay requirement ``D_PS`` in seconds, measured from
        publish time.
    """

    node: int
    deadline: float


@dataclass(frozen=True)
class TopicSpec:
    """A topic: its publisher, its subscribers, and the publish schedule."""

    topic: int
    publisher: int
    subscriptions: Tuple[Subscription, ...]
    publish_interval: float = 1.0
    phase: float = 0.0

    @property
    def subscriber_nodes(self) -> Tuple[int, ...]:
        """Broker ids of all subscribers, in subscription order."""
        return tuple(sub.node for sub in self.subscriptions)

    def deadline_of(self, node: int) -> float:
        """The delay requirement of the subscriber hosted at *node*."""
        for sub in self.subscriptions:
            if sub.node == node:
                return sub.deadline
        raise KeyError(f"node {node} does not subscribe to topic {self.topic}")


class SubscriptionIndex:
    """Solve-time aggregation of the workload's subscriber sets.

    The broker data plane answers the same three questions for every
    arriving frame — *is this node subscribed to this topic?*, *who are all
    the subscribers?*, *what are their deadlines?* — and before this index
    existed each broker derived its own answer by iterating subscription
    specs. The index aggregates them once per workload version into flat
    per-topic structures shared by every broker:

    * ``members(topic)`` — a frozenset (int-set) of subscriber broker ids,
      giving O(1) membership subgroup lookups;
    * ``destinations(topic)`` / ``deadlines(topic)`` — the publish-time
      fan-out set (the same frozenset ``members`` returns) and deadline
      map, cached so one publish resolves all subscribers with one indexed
      lookup instead of rebuilding per-subscription collections.

    The index rebuilds lazily when :attr:`Workload.version` moves (churn),
    so steady-state lookups never touch the specs. ``lookups`` counts
    subgroup membership queries for the perf layer.
    """

    __slots__ = (
        "workload",
        "version",
        "lookups",
        "_specs",
        "_members",
        "_deadlines",
    )

    def __init__(self, workload: "Workload") -> None:
        self.workload = workload
        self.version = -1
        self.lookups = 0
        self._rebuild()

    def _rebuild(self) -> None:
        """Re-aggregate every per-topic subgroup (one pass over the specs)."""
        self.version = self.workload.version
        self._specs: Dict[int, TopicSpec] = {}
        self._members: Dict[int, frozenset] = {}
        self._deadlines: Dict[int, Dict[int, float]] = {}
        for spec in self.workload.topics:
            topic = spec.topic
            self._specs[topic] = spec
            self._members[topic] = frozenset(spec.subscriber_nodes)
            self._deadlines[topic] = {
                sub.node: sub.deadline for sub in spec.subscriptions
            }

    def refresh(self) -> None:
        """Rebuild if the workload churned since the last aggregation."""
        if self.version != self.workload.version:
            self._rebuild()

    def spec(self, topic: int) -> TopicSpec:
        """O(1) topic lookup (the list scan only runs on rebuild)."""
        self.refresh()
        try:
            return self._specs[topic]
        except KeyError:
            raise KeyError(f"unknown topic {topic}") from None

    def members(self, topic: int) -> frozenset:
        """Subscriber broker ids of *topic* as a frozenset (empty if unknown)."""
        self.refresh()
        self.lookups += 1
        return self._members.get(topic, frozenset())

    def destinations(self, topic: int) -> frozenset:
        """The publish-time fan-out set of *topic* (cached frozenset)."""
        self.refresh()
        return self._members[topic]

    def deadlines(self, topic: int) -> Dict[int, float]:
        """Per-subscriber deadline map of *topic* (cached; treat as read-only)."""
        self.refresh()
        return self._deadlines[topic]


@dataclass
class Workload:
    """The full pub/sub population of one experiment.

    The population may change at runtime (subscriber churn):
    :meth:`add_subscription` / :meth:`remove_subscription` swap the affected
    :class:`TopicSpec` for an updated copy and bump :attr:`version` so
    cached views (broker-local topic sets, the shared
    :class:`SubscriptionIndex`) can refresh lazily.
    """

    topics: List[TopicSpec] = field(default_factory=list)
    version: int = 0

    def index(self) -> SubscriptionIndex:
        """The shared :class:`SubscriptionIndex` over this workload.

        Created on first use and cached on the instance; the index itself
        refreshes lazily via :attr:`version`, so callers may hold it for
        the whole run.
        """
        try:
            return self._index
        except AttributeError:
            self._index = SubscriptionIndex(self)
            return self._index

    @property
    def num_topics(self) -> int:
        """Number of topics."""
        return len(self.topics)

    @property
    def total_subscriptions(self) -> int:
        """Total (topic, subscriber) pairs across the workload."""
        return sum(len(t.subscriptions) for t in self.topics)

    def topic(self, topic_id: int) -> TopicSpec:
        """Look up a topic by id."""
        for spec in self.topics:
            if spec.topic == topic_id:
                return spec
        raise KeyError(f"unknown topic {topic_id}")

    def pairs(self) -> List[Tuple[int, int, int, float]]:
        """All (topic, publisher, subscriber, deadline) tuples."""
        result = []
        for spec in self.topics:
            for sub in spec.subscriptions:
                result.append((spec.topic, spec.publisher, sub.node, sub.deadline))
        return result

    # ------------------------------------------------------------------
    # Runtime churn
    # ------------------------------------------------------------------
    def _replace_topic(self, updated: TopicSpec) -> None:
        for index, spec in enumerate(self.topics):
            if spec.topic == updated.topic:
                self.topics[index] = updated
                self.version += 1
                return
        raise KeyError(f"unknown topic {updated.topic}")

    def add_subscription(self, topic_id: int, subscription: Subscription) -> None:
        """Subscribe ``subscription.node`` to *topic_id* (idempotent-safe)."""
        spec = self.topic(topic_id)
        if subscription.node in spec.subscriber_nodes:
            raise KeyError(
                f"node {subscription.node} already subscribes to topic {topic_id}"
            )
        subscriptions = tuple(
            sorted(spec.subscriptions + (subscription,), key=lambda s: s.node)
        )
        self._replace_topic(
            TopicSpec(
                topic=spec.topic,
                publisher=spec.publisher,
                subscriptions=subscriptions,
                publish_interval=spec.publish_interval,
                phase=spec.phase,
            )
        )

    def remove_subscription(self, topic_id: int, node: int) -> Subscription:
        """Unsubscribe *node* from *topic_id*; returns the removed entry."""
        spec = self.topic(topic_id)
        removed = None
        remaining = []
        for sub in spec.subscriptions:
            if sub.node == node:
                removed = sub
            else:
                remaining.append(sub)
        if removed is None:
            raise KeyError(f"node {node} does not subscribe to topic {topic_id}")
        self._replace_topic(
            TopicSpec(
                topic=spec.topic,
                publisher=spec.publisher,
                subscriptions=tuple(remaining),
                publish_interval=spec.publish_interval,
                phase=spec.phase,
            )
        )
        return removed


def generate_workload(
    topology: Topology,
    rng: np.random.Generator,
    num_topics: int = 10,
    publish_interval: float = 1.0,
    ps_range: Tuple[float, float] = (0.2, 0.6),
    deadline_factor: float = 3.0,
    deadline_factor_choices: Optional[Sequence[float]] = None,
    allow_self_subscription: bool = False,
    randomize_phase: bool = True,
) -> Workload:
    """Build the paper's workload on *topology*.

    Parameters
    ----------
    topology:
        The overlay the workload runs on.
    rng:
        Random generator (use ``streams.get("workload")``).
    num_topics:
        Number of topics, each with one publisher (paper: 10).
    publish_interval:
        Seconds between packets of one publisher (paper: 1.0).
    ps_range:
        Range from which each topic's subscriber probability ``Ps`` is drawn
        (paper: [0.2, 0.6]).
    deadline_factor:
        Delay requirement as a multiple of the shortest-path delay
        (paper default: 3; Figure 6 sweeps it).
    deadline_factor_choices:
        Optional per-topic urgency classes: each topic draws its factor
        uniformly from this sequence instead of using ``deadline_factor``
        (e.g. ``(1.5, 8.0)`` mixes urgent and bulk topics — the setting
        where EDF priority queueing becomes meaningful).
    allow_self_subscription:
        Whether the publisher's own broker may also subscribe. Off by
        default: a co-located subscriber has zero network delay and would
        only dilute the metrics.
    randomize_phase:
        Give each publisher a random phase in [0, interval) so packets do
        not burst synchronously.

    Every topic is guaranteed at least one subscriber (a uniformly random
    eligible broker is forced when the Bernoulli placement selects none).
    """
    require(num_topics >= 1, "num_topics must be >= 1")
    require_positive(publish_interval, "publish_interval")
    require_probability(ps_range[0], "ps_range[0]")
    require_probability(ps_range[1], "ps_range[1]")
    require(ps_range[0] <= ps_range[1], "ps_range must be non-decreasing")
    require_in_range(deadline_factor, 1.0, float("inf"), "deadline_factor")
    num_nodes = topology.num_nodes
    require(
        num_nodes >= 2 or allow_self_subscription,
        "need >= 2 brokers unless self-subscription is allowed",
    )

    # Publishers on randomly chosen brokers; distinct while brokers last,
    # mirroring "deploy 10 publishers on 10 randomly chosen broker nodes".
    if num_topics <= num_nodes:
        publishers = rng.choice(num_nodes, size=num_topics, replace=False)
    else:
        publishers = rng.integers(0, num_nodes, size=num_topics)

    if deadline_factor_choices is not None:
        require(len(deadline_factor_choices) >= 1, "empty deadline_factor_choices")
        for choice in deadline_factor_choices:
            require_in_range(choice, 1.0, float("inf"), "deadline_factor_choices[*]")

    topics: List[TopicSpec] = []
    for topic_id in range(num_topics):
        publisher = int(publishers[topic_id])
        if deadline_factor_choices is not None:
            factor = float(
                deadline_factor_choices[
                    int(rng.integers(0, len(deadline_factor_choices)))
                ]
            )
        else:
            factor = deadline_factor
        ps = float(rng.uniform(ps_range[0], ps_range[1]))
        eligible = [
            node
            for node in topology.nodes
            if allow_self_subscription or node != publisher
        ]
        chosen = [node for node in eligible if rng.random() < ps]
        if not chosen:
            chosen = [int(rng.choice(eligible))]
        subscriptions = tuple(
            Subscription(
                node=node,
                deadline=factor * topology.shortest_delay(publisher, node),
            )
            for node in sorted(chosen)
        )
        phase = float(rng.uniform(0.0, publish_interval)) if randomize_phase else 0.0
        topics.append(
            TopicSpec(
                topic=topic_id,
                publisher=publisher,
                subscriptions=subscriptions,
                publish_interval=publish_interval,
                phase=phase,
            )
        )
    return Workload(topics=topics)


def rescale_deadlines(workload: Workload, topology: Topology, factor: float) -> Workload:
    """A copy of *workload* with deadlines set to ``factor`` × shortest delay.

    Used by the Figure 6 sweep so that all deadline factors share the same
    topic population and publisher placement.
    """
    require_positive(factor, "factor")
    topics = []
    for spec in workload.topics:
        subscriptions = tuple(
            Subscription(
                node=sub.node,
                deadline=factor * topology.shortest_delay(spec.publisher, sub.node),
            )
            for sub in spec.subscriptions
        )
        topics.append(
            TopicSpec(
                topic=spec.topic,
                publisher=spec.publisher,
                subscriptions=subscriptions,
                publish_interval=spec.publish_interval,
                phase=spec.phase,
            )
        )
    return Workload(topics=topics)
