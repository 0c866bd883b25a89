"""Regression: an idle publisher's frames are not stall-released.

The ``total`` key used to be a pure Lamport counter, which only moves
when a node publishes or delivers — so a publisher that subscribes to
little kept a clock far behind everyone else's, its frames sorted before
keys its subscribers had released long ago, and a third of them left the
agreed order although they arrived on time (35.6 % of one origin's
pairs, 8.9 % overall, on this world). Keys now follow the publish time.

The world is the end-to-end benchmark's ``total_order`` workload
(``benchmarks/e2e/workloads.py``: overlay and subscriptions drawn from
world seed 1, hazards from the run seed) shortened to 120 s.
"""

from collections import Counter

from repro import probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, build_topology
from repro.pubsub.topics import generate_workload
from repro.sim.random import RandomStreams

CONFIG = ExperimentConfig(
    failure_probability=0.06,
    ordering="total",
    deadline_factor=20.0,
    duration=120.0,
    sanitize=True,
)


class StallShare(probes.ProbeObserver):
    """Releases per origin, and how many of them were stall releases."""

    def __init__(self):
        self.releases = Counter()
        self.stalls = Counter()

    def on_order_release(self, t, node, frame, level, reason, held_for):
        self.releases[frame.origin] += 1
        if reason == "stall":
            self.stalls[frame.origin] += 1


def test_no_origin_is_sorted_into_the_past():
    world = RandomStreams(1)
    topology = build_topology(CONFIG, world)
    workload = generate_workload(
        topology,
        world.get("workload"),
        num_topics=CONFIG.num_topics,
        publish_interval=CONFIG.publish_interval,
        ps_range=CONFIG.ps_range,
        deadline_factor=CONFIG.deadline_factor,
        deadline_factor_choices=CONFIG.deadline_factor_choices,
    )
    env = build_environment(CONFIG, "DCRD", 1, topology=topology, workload=workload)
    shares = StallShare()
    probes.attach(shares)
    try:
        summary = env.execute()
    finally:
        probes.detach(shares)

    assert summary.perf["sanity.violations"] == 0.0
    total = sum(shares.releases.values())
    assert total == summary.delivered > 8000
    assert sum(shares.stalls.values()) < 0.01 * total
    worst = max(shares.stalls[o] / shares.releases[o] for o in shares.releases)
    assert worst <= 0.05, dict(shares.stalls)
