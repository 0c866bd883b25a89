"""Microbenchmark: subscription-subgroup fan-out at 100k subscriptions.

Not a paper figure — this pins the cost of answering the data plane's
publish-time question ("who subscribes to this topic, with what
deadlines?") at a scale two orders of magnitude past the paper's
experiments: 100,000 (topic, subscriber) pairs.

Two implementations are compared on identical workloads:

* **brute force** — what every publish did before the shared
  :class:`~repro.pubsub.topics.SubscriptionIndex` existed: rebuild the
  destination frozenset and the deadline map from the topic's
  subscription specs on every publish;
* **subgrouped** — one indexed lookup against the per-(broker, topic)
  aggregation the index performs once per workload version.

The subgrouped path must win by a wide margin (it does no per-publish
work proportional to the subscriber count), and both paths must agree on
every topic's destination set and deadline map.
"""

import numpy as np

from repro.perf import time_call
from repro.pubsub.topics import Subscription, SubscriptionIndex, TopicSpec, Workload

from _common import save_report

NUM_NODES = 2000
NUM_TOPICS = 500
SUBSCRIBERS_PER_TOPIC = 200  # 500 * 200 = 100,000 subscriptions
PUBLISHES = 20_000


def build_workload() -> Workload:
    """500 topics x 200 subscribers drawn from a 2000-node population."""
    rng = np.random.default_rng(42)
    topics = []
    for topic in range(NUM_TOPICS):
        publisher = int(rng.integers(NUM_NODES))
        nodes = rng.choice(NUM_NODES, size=SUBSCRIBERS_PER_TOPIC, replace=False)
        subscriptions = tuple(
            Subscription(node=int(node), deadline=float(deadline))
            for node, deadline in sorted(
                zip(nodes.tolist(), rng.uniform(0.1, 2.0, SUBSCRIBERS_PER_TOPIC))
            )
        )
        topics.append(
            TopicSpec(topic=topic, publisher=publisher, subscriptions=subscriptions)
        )
    return Workload(topics=topics)


def test_fanout_subgrouping(benchmark):
    workload = build_workload()
    assert workload.total_subscriptions == NUM_TOPICS * SUBSCRIBERS_PER_TOPIC

    specs = {spec.topic: spec for spec in workload.topics}
    schedule = [t % NUM_TOPICS for t in range(PUBLISHES)]

    def brute_force():
        total = 0
        for topic in schedule:
            spec = specs[topic]
            destinations = frozenset(sub.node for sub in spec.subscriptions)
            deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}
            total += len(destinations) + len(deadlines)
        return total

    index = workload.index()

    def subgrouped():
        refresh = index.refresh
        destinations = index._members
        deadlines = index._deadlines
        total = 0
        for topic in schedule:
            refresh()
            total += len(destinations[topic]) + len(deadlines[topic])
        return total

    # Both paths must resolve identical fan-outs before timing anything.
    for topic, spec in specs.items():
        assert index.destinations(topic) == frozenset(
            sub.node for sub in spec.subscriptions
        )
        assert index.deadlines(topic) == {
            sub.node: sub.deadline for sub in spec.subscriptions
        }

    # Interleaved best-of-5 so a transient load spike hits both sides.
    brute_s = grouped_s = float("inf")
    for _ in range(5):
        elapsed, brute_total = time_call(brute_force)
        brute_s = min(brute_s, elapsed)
        elapsed, grouped_total = time_call(subgrouped)
        grouped_s = min(grouped_s, elapsed)
    assert brute_total == grouped_total
    speedup = brute_s / grouped_s

    lines = [
        "Publish fan-out resolution at 100k subscriptions "
        f"({NUM_TOPICS} topics x {SUBSCRIBERS_PER_TOPIC} subscribers, "
        f"{PUBLISHES} publishes)",
        f"  brute force (per-publish rebuild)  {brute_s * 1000.0:9.2f} ms",
        f"  subgrouped  (indexed lookup)       {grouped_s * 1000.0:9.2f} ms",
        f"  speedup                            {speedup:9.2f}x",
    ]
    save_report("fanout_subgroups", "\n".join(lines))

    benchmark.pedantic(subgrouped, rounds=1, iterations=1)
    assert speedup >= 10.0, f"expected >= 10x, measured {speedup:.2f}x"
