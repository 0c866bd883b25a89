"""Publishers (and the thin subscriber abstraction).

Subscribers need no active process — delivery is recorded by the broker
runtime hosting them. Publishers are periodic processes: one packet every
``publish_interval`` seconds (paper: 1 packet/s, the ADS-B surveillance
rate), starting at the topic's random phase so topics do not burst in
lockstep.
"""

from __future__ import annotations

from typing import Optional

from repro.pubsub.topics import TopicSpec
from repro.routing.base import RoutingStrategy, RuntimeContext
from repro.sim.process import PeriodicProcess


class PublisherProcess:
    """Emits packets for one topic until ``stop_time`` (exclusive)."""

    def __init__(
        self,
        ctx: RuntimeContext,
        strategy: RoutingStrategy,
        spec: TopicSpec,
        stop_time: Optional[float] = None,
    ) -> None:
        self.ctx = ctx
        self.strategy = strategy
        self.spec = spec
        self.stop_time = stop_time
        self.published = 0
        self._process = PeriodicProcess(
            ctx.sim,
            period=spec.publish_interval,
            callback=self._publish_one,
            start_offset=spec.phase,
        )

    def start(self) -> None:
        """Begin publishing (first packet at the topic's phase offset)."""
        self._process.start()

    def stop(self) -> None:
        """Stop publishing immediately."""
        self._process.stop()

    def _publish_one(self) -> None:
        now = self.ctx.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            self.stop()
            return
        # Re-read the topic spec each tick: subscriber churn replaces the
        # TopicSpec object inside the workload at runtime. The shared
        # SubscriptionIndex answers both the spec lookup and the deadline
        # map with one indexed access per tick (instead of a list scan
        # plus a rebuilt dict per publish), so publish cost stays
        # independent of subscriber count.
        topic = self.spec.topic
        index = self.ctx.workload.index()
        index.refresh()
        spec = index._specs.get(topic)
        if spec is not None:
            deadlines = index._deadlines[topic]
        else:
            spec = self.ctx.workload.topic(topic)  # unknown-topic KeyError
            deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}
        self.spec = spec
        if not spec.subscriptions:
            return
        msg_id = next(self.ctx.message_ids)
        self.ctx.metrics.expect(msg_id, topic, now, deadlines)
        self.strategy.publish(spec, msg_id)
        self.published += 1
