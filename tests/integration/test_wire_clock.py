"""Silence means loss: the ACK clock on finite-capacity links.

On a link that serialises frames a copy waits in its sender's own output
queue before it leaves; the ARQ clock starts when its last bit does. So on
a world where nothing is ever lost (``Pf = Pl = 0``) no load, queue
discipline or retry budget may produce a single ACK timeout — and with it
no retransmission, no failover, no second copy of a message on any
directed link. The only copies that do not arrive are the ones their
sender's EDF queue discards as expired, and each of those fails its hop
exactly once, at the discard, without a timeout.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.overlay.links import QUEUE_DISCIPLINES
from tests.integration.test_fast_path_equivalence import CONFIGS


class Ledger(probes.ProbeObserver):
    """Copies per (message, directed link), and who failed how."""

    def __init__(self):
        self.copies = Counter()
        self.discarded = []
        self.discarded_frames = []
        self.timed_out = []
        self.failovers = 0
        self.bounces = 0

    def on_transmit(self, t, src, dst, frame, survived, cause, prop, queue):
        self.copies[(frame.msg_id, src, dst)] += 1

    def on_wire(self, t, src, dst, frame, wait):
        if wait is None:
            self.discarded.append(frame.transfer_id)
            self.discarded_frames.append(frame)

    def on_ack_timeout(self, t, src, dst, frame, attempts, will_retry):
        self.timed_out.append(frame.transfer_id)

    def on_failover(self, *args):
        self.failovers += 1

    def on_bounce(self, *args):
        self.bounces += 1


def run_watched(config, strategy, seed):
    env = build_environment(config, strategy, seed)
    ledger = Ledger()
    probes.attach(ledger)
    try:
        summary = env.execute()
    finally:
        probes.detach(ledger)
    return env, summary, ledger


worlds = st.fixed_dictionaries(
    {
        "link_service_time": st.sampled_from([0.005, 0.01, 0.02, 0.05]),
        # From a tenth of a link's capacity to several times it.
        "publish_interval": st.sampled_from([0.5, 0.1, 0.04, 0.02]),
        "m": st.sampled_from([1, 2, 3]),
        "num_nodes": st.sampled_from([8, 12]),
        "degree": st.sampled_from([3, 4]),
        "num_topics": st.sampled_from([2, 4]),
        # Mixed urgency classes, so EDF really reorders.
        "deadline_factor_choices": st.sampled_from([(1.5, 3.0, 6.0), (4.0, 16.0)]),
    }
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    world=worlds,
    strategy=st.sampled_from(["DCRD", "D-Tree", "P-DTree"]),
    seed=st.integers(min_value=0, max_value=999),
)
@pytest.mark.parametrize("discipline", sorted(QUEUE_DISCIPLINES))
def test_silence_means_loss(discipline, world, strategy, seed):
    config = ExperimentConfig(
        topology_kind="regular",
        failure_probability=0.0,
        loss_rate=0.0,
        duration=1.5,
        # Overloaded queues take a while to empty; events, not seconds,
        # are what a drain costs.
        drain=120.0,
        sanitize=True,
        queue_discipline=discipline,
        **world,
    )
    env, summary, ledger = run_watched(config, strategy, seed)
    arq = env.strategy.arq
    discards = sum(env.ctx.network.stats.dropped_expired.values())

    assert arq.ack_timeouts == 0 and ledger.timed_out == []
    assert arq.retransmissions == 0
    assert max(ledger.copies.values()) == 1
    assert ledger.bounces == 0
    # Nothing failed but what a sender's own queue discarded, once each.
    assert arq.failed == discards == len(set(ledger.discarded))
    assert arq.in_flight == 0
    if strategy == "DCRD":
        assert ledger.failovers == discards
    if discipline != "edf+drop":
        assert discards == 0
    if discards == 0:
        assert summary.delivered == summary.expected_deliveries
    assert summary.perf["sanity.violations"] == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_discarded_copies_are_settled_at_the_discard(seed):
    """The pinned ``edf_load`` cell (Pf 0.03, so real timeouts exist too):
    a copy its sender's queue discards fails its hop once, at the discard —
    it never times out, and nothing is left in flight or in the
    sanitizer's timer ledger at the end of the run."""
    config = ExperimentConfig(**CONFIGS["edf_load"]).with_updates(sanitize=True)
    env, summary, ledger = run_watched(config, "P-DTree", seed)
    arq = env.strategy.arq
    discarded = set(ledger.discarded)
    assert len(discarded) == len(ledger.discarded) > 1000
    # A few of them were lost on the link as well; their sender cannot
    # know, and its queue discarded them at their turn like the others.
    expired = sum(env.ctx.network.stats.dropped_expired.values())
    assert 0 < len(discarded) - expired < 100
    assert discarded.isdisjoint(ledger.timed_out)
    assert arq.failed == len(discarded) + len(ledger.timed_out)  # m = 1
    assert arq.in_flight == 0
    assert summary.perf["sanity.violations"] == 0
    assert summary.perf["sanity.timers_started"] == summary.perf["sanity.timers_settled"]
    # A give-up booked at a discard is a real one (before, the sender
    # timed out on copies that went on to be delivered).
    outcome = env.ctx.metrics.outcome
    assert not any(
        outcome(frame.msg_id, subscriber).delivered
        for frame in ledger.discarded_frames
        for subscriber in frame.destinations
    )
