"""The embedding façade: use DCRD as a library, not an experiment harness.

:class:`PubSubSystem` wraps the whole stack — simulator, overlay, hazard
models, a routing strategy, broker runtimes — behind the API a downstream
application would expect from a pub/sub messaging layer:

>>> import numpy as np
>>> from repro import full_mesh
>>> from repro.system import PubSubSystem
>>> system = PubSubSystem.build(num_nodes=6, seed=7)
>>> system.add_topic("tracks", publisher=0)
>>> received = []
>>> system.subscribe("tracks", node=3, deadline=0.5,
...                  callback=lambda d: received.append(d.payload))
>>> _ = system.publish("tracks", payload={"lat": 44.97})
>>> system.run(until=1.0)
>>> received
[{'lat': 44.97}]

Topics are named; payloads ride in a side table keyed by message id (the
wire frames stay payload-free and immutable); subscriber callbacks fire on
first delivery with a :class:`Delivery` record. Publishing can be manual
(:meth:`publish`, at the current virtual time) or periodic
(:meth:`start_publisher`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.metrics.summary import MetricsSummary, summarize
from repro.overlay.topology import Topology, full_mesh, random_regular
from repro.pubsub.endpoints import PublisherProcess
from repro.pubsub.topics import Subscription, TopicSpec, Workload
from repro.sim.random import RandomStreams
from repro.stack import observed
from repro.util.errors import ConfigurationError
from repro.util.validation import require, require_positive


@dataclass(frozen=True)
class Delivery:
    """What a subscriber callback receives."""

    topic: str
    msg_id: int
    subscriber: int
    publish_time: float
    delivery_time: float
    payload: Any

    @property
    def delay(self) -> float:
        """End-to-end delay of the delivered message."""
        return self.delivery_time - self.publish_time


class PubSubSystem:
    """A ready-to-use DCRD pub/sub deployment on a simulated overlay."""

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        loss_rate: float = 1e-4,
        failure_probability: float = 0.0,
        strategy: str = "DCRD",
        m: int = 1,
        ack_timeout_factor: float = 2.0,
        monitor_period: float = 300.0,
        ordering: Optional[str] = None,
    ) -> None:
        config = ExperimentConfig(
            num_nodes=topology.num_nodes,
            loss_rate=loss_rate,
            failure_probability=failure_probability,
            m=m,
            ack_timeout_factor=ack_timeout_factor,
            monitor_period=monitor_period,
            ordering=ordering,
        )
        env = build_environment(
            config, strategy, seed, topology=topology, workload=Workload(topics=[])
        )
        self.topology = topology
        self.ctx = env.ctx
        self.strategy = env.strategy
        self.brokers = env.brokers
        self.sim = self.ctx.sim
        self.streams = self.ctx.streams
        self.network = self.ctx.network
        self.workload = self.ctx.workload
        self.ordering = self.ctx.ordering
        self.monitor = self.ctx.monitor
        self.metrics = self.ctx.metrics
        self.metrics.add_observer(self._on_delivery)
        # Embedded systems stay alive indefinitely, so one observer session
        # spans the system's whole lifetime; call close() when the system
        # is done (it flushes and disarms the ordering pipelines, if any).
        self._session = observed(self.ctx)
        self._session.__enter__()
        self._monitor_process = env.monitor_process
        self._monitor_process.start()

        self._topic_ids: Dict[str, int] = {}
        self._topic_names: Dict[int, str] = {}
        self._callbacks: Dict[Tuple[int, int], Callable[[Delivery], None]] = {}
        self._payloads: Dict[int, Any] = {}
        self._publishers: List[PublisherProcess] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        num_nodes: int = 20,
        degree: Optional[int] = None,
        seed: int = 0,
        **kwargs: Any,
    ) -> "PubSubSystem":
        """Build on a generated overlay: full mesh, or random degree-k."""
        rng = RandomStreams(seed).get("topology")
        if degree is None:
            topology = full_mesh(num_nodes, rng)
        else:
            topology = random_regular(num_nodes, degree, rng)
        return cls(topology, seed=seed, **kwargs)

    # ------------------------------------------------------------------
    # Topic management
    # ------------------------------------------------------------------
    def add_topic(self, name: str, publisher: int, publish_interval: float = 1.0) -> None:
        """Create a named topic published from broker *publisher*."""
        require(name not in self._topic_ids, f"topic {name!r} already exists")
        require(publisher in self.topology.nodes, f"no broker {publisher}")
        topic_id = len(self._topic_ids)
        self._topic_ids[name] = topic_id
        self._topic_names[topic_id] = name
        self.workload.topics.append(
            TopicSpec(
                topic=topic_id,
                publisher=publisher,
                subscriptions=(),
                publish_interval=publish_interval,
                phase=0.0,
            )
        )
        self.workload.version += 1

    def subscribe(
        self,
        topic: str,
        node: int,
        deadline: float,
        callback: Optional[Callable[[Delivery], None]] = None,
    ) -> None:
        """Attach a subscriber (and optional delivery callback) to *topic*."""
        require_positive(deadline, "deadline")
        topic_id = self._topic_id(topic)
        # Validate before the workload changes: a rejected subscriber must
        # not stay behind as a phantom every later publish expects.
        require(node in self.topology.nodes, f"no broker {node}")
        subscription = Subscription(node=node, deadline=deadline)
        self.workload.add_subscription(topic_id, subscription)
        self.strategy.on_subscription_added(topic_id, subscription)
        if callback is not None:
            self._callbacks[(topic_id, node)] = callback

    def unsubscribe(self, topic: str, node: int) -> None:
        """Detach a subscriber from *topic*."""
        topic_id = self._topic_id(topic)
        self.workload.remove_subscription(topic_id, node)
        self.strategy.on_subscription_removed(topic_id, node)
        self._callbacks.pop((topic_id, node), None)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, topic: str, payload: Any = None) -> int:
        """Publish one message now; returns its message id."""
        topic_id = self._topic_id(topic)
        spec = self.workload.topic(topic_id)
        require(
            bool(spec.subscriptions), f"topic {topic!r} has no subscribers"
        )
        msg_id = next(self.ctx.message_ids)
        now = self.sim.now
        self._payloads[msg_id] = payload
        deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}
        self.metrics.expect(msg_id, topic_id, now, deadlines)
        self.strategy.publish(spec, msg_id)
        return msg_id

    def start_publisher(self, topic: str, stop_time: Optional[float] = None) -> None:
        """Publish periodically at the topic's configured interval."""
        topic_id = self._topic_id(topic)
        spec = self.workload.topic(topic_id)
        publisher = PublisherProcess(self.ctx, self.strategy, spec, stop_time=stop_time)
        publisher.start()
        self._publishers.append(publisher)

    # ------------------------------------------------------------------
    # Execution & results
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance virtual time (drains the queue when *until* is None)."""
        self.sim.run(until=until)

    def close(self) -> None:
        """Flush hold-back state and disarm the ordering pipelines."""
        self._session.finish()
        self._session.close()

    def summary(self) -> MetricsSummary:
        """Aggregate delivery metrics so far."""
        return summarize(
            self.metrics,
            self.network.stats.data_sent(),
            strategy=self.strategy.name,
            data_volume=self.network.stats.data_volume(),
        )

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    # ------------------------------------------------------------------
    def _topic_id(self, topic: str) -> int:
        """The id of the named topic; an unknown name is a configuration error."""
        topic_id = self._topic_ids.get(topic)
        if topic_id is None:
            raise ConfigurationError(
                f"unknown topic {topic!r}; known: {sorted(self._topic_ids)}"
            )
        return topic_id

    def _on_delivery(self, msg_id: int, subscriber: int, time: float) -> None:
        topic, publish_time = self.metrics.published(msg_id)
        callback = self._callbacks.get((topic, subscriber))
        if callback is None:
            return
        callback(
            Delivery(
                topic=self._topic_names[topic],
                msg_id=msg_id,
                subscriber=subscriber,
                publish_time=publish_time,
                delivery_time=time,
                payload=self._payloads.get(msg_id),
            )
        )
