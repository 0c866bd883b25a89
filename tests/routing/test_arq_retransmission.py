"""Property-based ARQ retransmission tests under fuzzed ACK-loss schedules.

Hypothesis draws adversarial ACK-loss schedules (which ACKs die at the
transport seam, in seam order) and the properties assert the ARQ
contract holds under every one of them:

* every unacknowledged copy is eventually retransmitted (within the
  m-budget) or abandoned — nothing stays in flight;
* every ACK timer settles exactly once (sanitizer-checked: started ==
  settled, no orphans, no double settlement);
* ACK loss never loses *data* — the delivered-pair set stays complete;
* latent-timer elision is observationally equivalent to eager timers
  under the same loss schedule (same deliveries, same ARQ counters, same
  kernel event count).

The worlds are built directly (not via ``build_ctx``) because elision
requires the network's fast-send path, which a transmission trace
disables.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import probes as _probes
from repro.core.forwarding import DcrdStrategy
from repro.metrics.collector import MetricsCollector
from repro.overlay.links import FrameKind, OverlayNetwork
from repro.overlay.monitor import LinkMonitor
from repro.pubsub.broker import BrokerRuntime
from repro.record import RunRecord
from repro.routing.base import ProtocolParams, RuntimeContext
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

from tests.conftest import make_topology, single_topic_workload

#: Diamond world: 0-1-3 is the fast path, 0-2-3 the alternative, so a
#: drained m-budget exercises failover and §III-D bounces too.
_EDGES = [(0, 1, 0.010), (1, 3, 0.010), (0, 2, 0.020), (2, 3, 0.020)]
_SUBSCRIBERS = [(3, 5.0), (2, 5.0)]


class AckLossSchedule:
    """Drop the i-th ACK crossing the seam iff ``drops[i]`` is True."""

    def __init__(self, drops):
        self.drops = list(drops)
        self.seen = 0
        self.dropped = 0

    def __call__(self, src, dst, kind, frame):
        if kind is not FrameKind.ACK:
            return False
        index = self.seen
        self.seen += 1
        if index < len(self.drops) and self.drops[index]:
            self.dropped += 1
            return True
        return False


class TimeoutLedger:
    """Records every ack_timeout event (attempts, will_retry)."""

    def __init__(self):
        self.events = []

    def probe_handlers(self):
        return {"ack_timeout": self._on_timeout}

    def _on_timeout(self, t, src, dst, frame, attempts, will_retry):
        self.events.append((frame.transfer_id, attempts, will_retry))


def run_world(drops, m=2, elide=False, sanitize=False, publishes=2):
    """One DCRD run over the diamond with the given ACK-loss schedule."""
    topology = make_topology(_EDGES)
    sim = Simulator()
    streams = RandomStreams(17)
    network = OverlayNetwork(sim, topology, streams, loss_rate=0.0)
    schedule = AckLossSchedule(drops)
    network.install_fault_filter(schedule)
    monitor = LinkMonitor(topology, network, streams, mode="analytic")
    workload = single_topic_workload(0, _SUBSCRIBERS)
    ctx = RuntimeContext(
        sim=sim,
        topology=topology,
        network=network,
        monitor=monitor,
        workload=workload,
        metrics=MetricsCollector(),
        streams=streams,
        params=ProtocolParams(m=m),
    )
    strategy = DcrdStrategy(ctx)
    strategy.setup()
    brokers = [BrokerRuntime(node, ctx, strategy) for node in topology.nodes]
    assert brokers
    if elide:
        strategy.arq.enable_timer_elision()
    sanitizer = RunRecord(sanitize=True) if sanitize else None
    ledger = TimeoutLedger()
    spec = workload.topic(0)
    deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}

    def publish_one():
        msg_id = next(ctx.message_ids)
        ctx.metrics.expect(msg_id, 0, sim.now, deadlines)
        strategy.publish(spec, msg_id)

    for i in range(publishes):
        sim.schedule(i * 1.0, publish_one)
    if sanitizer is not None:
        _probes.attach(sanitizer)
    _probes.attach(ledger)
    try:
        try:
            sim.run(until=120.0)
        finally:
            if sanitizer is not None:
                _probes.detach(sanitizer)
        if sanitizer is not None:
            sanitizer.finish(ctx.metrics, sim.now)
    finally:
        _probes.detach(ledger)
    delivered = frozenset(
        (o.msg_id, o.subscriber) for o in ctx.metrics.outcomes() if o.delivered
    )
    return {
        "delivered": delivered,
        "expected": ctx.metrics.expected_deliveries,
        "acked": strategy.arq.acked,
        "failed": strategy.arq.failed,
        "retransmissions": strategy.arq.retransmissions,
        "timers_cancelled": strategy.arq.timers_cancelled,
        "timers_elided": strategy.arq.timers_elided,
        "in_flight": strategy.arq.in_flight,
        "events_processed": sim.processed_events,
        "timeouts": tuple(ledger.events),
        "acks_dropped": schedule.dropped,
        "sanitizer": sanitizer,
    }


drops_strategy = st.lists(st.booleans(), min_size=0, max_size=40)


@settings(max_examples=25, deadline=None)
@given(drops=drops_strategy, m=st.integers(min_value=1, max_value=3))
def test_every_unacked_copy_retransmits_or_abandons(drops, m):
    result = run_world(drops, m=m, sanitize=True)
    # Nothing may remain in flight: every copy settled one way or the other.
    assert result["in_flight"] == 0
    # Each timeout either retransmitted (within budget) or abandoned the
    # copy; the ARQ counters must account for every single one.
    retries = sum(1 for _, _, will_retry in result["timeouts"] if will_retry)
    abandons = sum(1 for _, _, will_retry in result["timeouts"] if not will_retry)
    assert result["retransmissions"] == retries
    assert result["failed"] == abandons
    # A timeout that retries must have had budget left; one that abandons
    # must have exhausted it exactly.
    for _, attempts, will_retry in result["timeouts"]:
        assert will_retry == (attempts < m)
    # ACK loss must never lose data: dedup absorbs the retransmits and
    # every (message, subscriber) pair still gets delivered.
    assert len(result["delivered"]) == result["expected"]


@settings(max_examples=25, deadline=None)
@given(drops=drops_strategy)
def test_timers_settle_exactly_once(drops):
    result = run_world(drops, m=2, sanitize=True)
    perf = result["sanitizer"].perf_counters()
    assert perf["sanity.violations"] == 0
    assert perf["sanity.timers_started"] == perf["sanity.timers_settled"]
    # Settlements decompose exactly into ACK-cancellations and fired
    # timeouts — no timer settles twice, none is double-counted.
    assert perf["sanity.timers_started"] == result["timers_cancelled"] + len(
        result["timeouts"]
    )


@settings(max_examples=25, deadline=None)
@given(drops=drops_strategy, m=st.integers(min_value=1, max_value=3))
def test_latent_timer_elision_equivalent_to_eager(drops, m):
    eager = run_world(drops, m=m, elide=False)
    elided = run_world(drops, m=m, elide=True)
    # The optimisation must be observationally invisible: same deliveries,
    # same settlement counters, and the same kernel event count (elided
    # timers reserve their (time, seq) keys, so the schedule is identical).
    for key in (
        "delivered",
        "acked",
        "failed",
        "retransmissions",
        "timers_cancelled",
        "timeouts",
        "events_processed",
    ):
        assert eager[key] == elided[key], key
    assert eager["timers_elided"] == 0
    assert elided["timers_elided"] >= 0


def test_elision_engages_without_ack_loss():
    """Guard against the equivalence property passing vacuously."""
    result = run_world([], m=2, elide=True)
    assert result["timers_elided"] > 0
    assert result["in_flight"] == 0
