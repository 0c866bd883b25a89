"""Equivalence suite for the flat index-addressed data-plane state.

The mega-scale data plane keeps per-link and per-subscription hot state in
flat, integer-indexed storage (packed direction ids -> interned per-link
rows; per-topic subscriber subgroups aggregated once per workload
version), with the historical object layer reduced to facade views over
the same rows. These tests pin the equivalences that restructuring must
preserve:

* the per-kind counter snapshots (``stats.sent[kind]``...) read the flat
  counter rows after real runs;
* packed direction ids are a pure function of the topology — identical
  across independent rebuilds of the same world;
* subscription-subgroup sets match brute-force aggregation over the
  raw specs, and follow churn;
* a sanitized + traced run stays on the interned flat path (zero facade
  fallbacks) while the observation layers see every event;
* ARQ latent-timer elision is outcome-invariant: an eager-timer run and
  an eliding run produce bit-identical summaries and outcomes;
* an ACK settled when it is sent is invisible: stopped mid-flight, watched
  by an ``ack`` observer, or run under an event quota, the settling run
  reads what the eager run reads.
"""

import pytest

from repro import probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.overlay.links import FrameKind
from repro.pubsub.broker import BrokerRuntime
from repro.pubsub.messages import AckFrame
from repro.pubsub.topics import Subscription
from repro.routing.arq import ArqSender
from repro.system import PubSubSystem
from repro.util.errors import SimulationError
from tests.conftest import outcome_digest

CONFIGS = {
    "lossy_mesh": ExperimentConfig(
        topology_kind="full_mesh",
        num_nodes=12,
        loss_rate=0.05,
        failure_probability=0.06,
        duration=8.0,
    ),
    "regular": ExperimentConfig(
        topology_kind="regular",
        num_nodes=20,
        degree=5,
        loss_rate=1e-3,
        failure_probability=0.06,
        duration=8.0,
    ),
    # FIFO finite-capacity links: copies queue, a lost ACK materialises a
    # latent timeout, and retransmissions queue behind other copies.
    "fifo_queue": ExperimentConfig(
        topology_kind="regular",
        num_nodes=20,
        degree=5,
        loss_rate=0.03,
        failure_probability=0.06,
        m=2,
        publish_interval=0.25,
        link_service_time=0.02,
        duration=8.0,
    ),
}


def _pack(src: int, dst: int) -> int:
    return (src << 21) | dst


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_counter_snapshots_read_flat_rows(name):
    """After a real lossy run, every per-kind snapshot reads its flat row."""
    env = build_environment(CONFIGS[name], "DCRD", seed=3)
    env.execute()
    stats = env.ctx.network.stats
    pairs = [
        (stats.sent, stats._sent),
        (stats.volume, stats._volume),
        (stats.delivered, stats._delivered),
        (stats.lost_failure, stats._lost_failure),
        (stats.lost_random, stats._lost_random),
        (stats.lost_node_down, stats._lost_node_down),
        (stats.lost_injected, stats._lost_injected),
        (stats.dropped_expired, stats._dropped_expired),
    ]
    for snapshot, row in pairs:
        assert snapshot == {kind: row[kind.idx] for kind in FrameKind}
    # The run actually exercised the counters.
    assert stats.sent[FrameKind.DATA] > 0
    assert stats.sent[FrameKind.ACK] > 0
    assert stats.lost_random[FrameKind.DATA] > 0
    for kind in FrameKind:
        assert stats.delivered[kind] <= stats.sent[kind]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_direction_ids_stable_across_rebuilds(name):
    """Packed direction ids are identical across independent builds."""
    config = CONFIGS[name]
    first = build_environment(config, "DCRD", seed=7)
    second = build_environment(config, "DCRD", seed=7)
    keys_first = sorted(first.ctx.network._dir_cache)
    keys_second = sorted(second.ctx.network._dir_cache)
    assert keys_first == keys_second
    # Every id decodes to a real directed edge, and the interned table
    # covers exactly the directed edge set (prewarmed at build time).
    topology = first.ctx.network.topology
    directed = {
        key for u, v in topology.edges() for key in (_pack(u, v), _pack(v, u))
    }
    assert set(keys_first) == directed
    # Executing does not grow the table (no facade resolutions mid-run).
    first.execute()
    assert sorted(first.ctx.network._dir_cache) == keys_first
    assert first.ctx.network.dir_fallbacks == 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_subgroup_bitmaps_match_brute_force(name):
    """Per-topic subgroup aggregates equal brute-force spec iteration."""
    env = build_environment(CONFIGS[name], "DCRD", seed=11)
    workload = env.ctx.workload
    index = workload.index()
    assert workload.topics, "generated workload must not be empty"
    for spec in workload.topics:
        nodes = [sub.node for sub in spec.subscriptions]
        assert index.members(spec.topic) == frozenset(nodes)
        assert index.destinations(spec.topic) == frozenset(nodes)
        assert index.deadlines(spec.topic) == {
            sub.node: sub.deadline for sub in spec.subscriptions
        }
    # Topics nobody subscribes to are absent from the subgroup map but
    # answer membership queries consistently.
    assert index.members(10_000) == frozenset()


def test_subgroup_index_follows_churn():
    """Member sets track add/remove subscription churn."""
    env = build_environment(CONFIGS["regular"], "DCRD", seed=5)
    workload = env.ctx.workload
    index = workload.index()
    spec = workload.topics[0]
    topic = spec.topic
    absent = next(
        node
        for node in sorted(env.ctx.network.topology.nodes)
        if node not in spec.subscriber_nodes and node != spec.publisher
    )
    before_version = index.version

    workload.add_subscription(topic, Subscription(node=absent, deadline=1.0))
    index.refresh()
    assert index.version == workload.version != before_version
    assert absent in index.members(topic)
    assert index.deadlines(topic)[absent] == 1.0

    workload.remove_subscription(topic, absent)
    index.refresh()
    assert absent not in index.members(topic)
    assert index.members(topic) == frozenset(workload.topic(topic).subscriber_nodes)


def test_flat_path_holds_under_sanitize_and_trace():
    """Observation layers on: still zero facade fallbacks, full interning."""
    config = CONFIGS["lossy_mesh"].with_updates(sanitize=True, trace=True)
    env = build_environment(config, "DCRD", seed=2)
    summary = env.execute()
    perf = summary.perf
    assert perf["sanity.violations"] == 0
    assert perf["sanity.events_checked"] > 0
    assert perf["flat.dir_fallbacks"] == 0.0
    edges = len(list(env.ctx.network.topology.edges()))
    assert perf["flat.interned_directions"] == float(2 * edges)
    assert perf["flat.subgroup_lookups"] > 0
    assert perf["flat.subgroup_topics"] > 0
    # Timer probes are live, so the ARQ must run every timer eagerly.
    assert perf["arq.timers_elided"] == 0.0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_timer_elision_is_outcome_invariant(name):
    """Eager vs latent ARQ timers: bit-identical runs, fewer heap events.

    The runner enables elision by default; the eager twin flips it off
    after construction, leaving everything else (seeds, ids, schedule)
    untouched. Every observable — summary, per-pair outcomes, ARQ
    counters including the cancelled count (latent settles count as
    cancellations), the delivered rows with ACKs settled at send — must
    match exactly; only the elision and settle counters and the tombstone
    economy may differ.
    """
    config = CONFIGS[name]
    elided = build_environment(config, "DCRD", seed=13)
    assert elided.strategy.arq._elide_timers
    elided_summary = elided.execute()

    eager = build_environment(config, "DCRD", seed=13)
    eager.strategy.arq._elide_timers = False
    eager_summary = eager.execute()

    assert elided_summary.as_dict() == eager_summary.as_dict()
    assert outcome_digest(elided) == outcome_digest(eager)

    assert elided.strategy.arq.timers_elided > 0
    assert eager.strategy.arq.timers_elided == 0
    assert elided.strategy.arq.acks_settled_at_send > 0
    assert eager.strategy.arq.acks_settled_at_send == 0
    assert elided.ctx.network.stats.delivered == eager.ctx.network.stats.delivered
    assert (
        elided.strategy.arq.timers_cancelled == eager.strategy.arq.timers_cancelled
    )
    assert (
        elided.strategy.arq.retransmissions == eager.strategy.arq.retransmissions
    )
    # The event streams are identical where it counts: executed events
    # match one for one (elided timers never existed; cancelled eager
    # timers were tombstones, which the kernel does not count).
    assert (
        elided.ctx.sim.processed_events == eager.ctx.sim.processed_events
    )


def _started(name, elide):
    """An environment with its processes started, its run not yet begun;
    *elide* False makes it the eager twin (no latent timer, no settle)."""
    env = build_environment(CONFIGS[name], "DCRD", seed=13)
    env.strategy.arq._elide_timers = elide
    for publisher in env.publishers:
        publisher.start()
    env.monitor_process.start()
    return env


def _ack_ledger(env):
    """What a stop between an ACK's send and its arrival could expose."""
    arq = env.strategy.arq
    stats = env.ctx.network.stats
    return dict(
        in_flight=arq.in_flight,
        acked=arq.acked,
        acks_delivered=stats.delivered[FrameKind.ACK],
        processed_events=env.ctx.sim.processed_events,
    )


def _acks_in_transit(env):
    stats = env.ctx.network.stats
    lost = sum(
        row[FrameKind.ACK]
        for row in (stats.lost_failure, stats.lost_random, stats.lost_injected)
    )
    return stats.sent[FrameKind.ACK] - stats.delivered[FrameKind.ACK] - lost


class _AckLog(probes.ProbeObserver):
    def __init__(self):
        self.acks = []

    def on_ack(self, t, node, sender, frame):
        self.acks.append((t, node, sender, frame.transfer_id))


def _observed_acks(env):
    """Execute *env* under an ``ack`` observer; every ACK it observed."""
    log = _AckLog()
    probes.attach(log)
    try:
        env.execute()
    finally:
        probes.detach(log)
    return log.acks


def _mid_flight_stops(name, count=12):
    """Instants halfway between the send and the arrival of *count* ACKs
    spread over the world's eager run, read off an ``ack`` log."""
    env = build_environment(CONFIGS[name], "DCRD", seed=13)
    acks = _observed_acks(env)
    delay = env.ctx.network.topology.delay
    every = len(acks) // count
    return sorted({t - delay(sender, node) / 2 for t, node, sender, _ in acks[::every]})


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_stop_between_an_acks_send_and_arrival_sees_the_eager_state(name):
    """``run(until=t)`` settles no ACK that arrives after ``t``.

    Each stop falls while an ACK is in transit on the eager side; the
    settling side must hold the same copies, the same ACK counts and the
    same executed event count there — and again after the run resumes to
    its end.
    """
    stops = _mid_flight_stops(name)
    assert len(stops) >= 10
    settling, eager = _started(name, True), _started(name, False)
    for stop in stops:
        for env in (settling, eager):
            env.ctx.sim.run(until=stop)
        assert _acks_in_transit(eager) > 0
        assert _ack_ledger(settling) == _ack_ledger(eager)
    for env in (settling, eager):
        env.ctx.sim.run(until=env.config.end_time)
    assert _ack_ledger(settling) == _ack_ledger(eager)
    assert settling.strategy.arq.acks_settled_at_send > 0
    assert eager.strategy.arq.acks_settled_at_send == 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_an_ack_observer_sees_every_ack_arrive_at_the_eager_time(name):
    """An ``ack`` observer keeps every arrival queued: nothing is settled
    at send, and each ACK is observed when the eager run observes it."""
    logs = []
    for elide in (True, False):
        env = build_environment(CONFIGS[name], "DCRD", seed=13)
        env.strategy.arq._elide_timers = elide
        logs.append(_observed_acks(env))
        assert env.strategy.arq.acks_settled_at_send == 0
        assert (env.strategy.arq.timers_elided > 0) == elide
    assert logs[0] and logs[0] == logs[1]


def test_an_ack_not_settled_at_send_reaches_the_arq_through_on_frame(monkeypatch):
    """ACKs have one way into a broker. With an ``ack`` observer no ACK
    is settled at send, so the network delivers every surviving one — to
    its receiver's ``BrokerRuntime.on_frame``, which hands it straight to
    ``ArqSender.handle_ack``."""
    route = []
    on_frame, handle_ack = BrokerRuntime.on_frame, ArqSender.handle_ack

    def broker_sees(self, sender, frame):
        if frame.__class__ is AckFrame:
            route.append(("on_frame", self.node, sender, frame.transfer_id))
        on_frame(self, sender, frame)

    def arq_sees(self, node, sender, ack):
        route.append(("handle_ack", node, sender, ack.transfer_id))
        handle_ack(self, node, sender, ack)

    monkeypatch.setattr(BrokerRuntime, "on_frame", broker_sees)
    monkeypatch.setattr(ArqSender, "handle_ack", arq_sees)
    env = build_environment(CONFIGS["regular"], "DCRD", seed=13)
    acks = _observed_acks(env)
    assert env.strategy.arq.acks_settled_at_send == 0
    delivered = env.ctx.network.stats.delivered[FrameKind.ACK]
    assert delivered >= len(acks) > 0
    assert len(route) == 2 * delivered
    assert {step[0] for step in route[0::2]} == {"on_frame"}
    assert [step[1:] for step in route[1::2]] == [step[1:] for step in route[0::2]]


def _pair_world(elide):
    """Two brokers, one message 0 -> 1: the ACK's arrival is the last event."""
    system = PubSubSystem.build(num_nodes=2, seed=3)
    system.strategy.arq._elide_timers = elide
    system.add_topic("t", publisher=0)
    system.subscribe("t", node=1, deadline=1.0)
    system.publish("t")
    return system.sim, system.strategy.arq, 1.0, system.close


def _runner_world(elide, name="lossy_mesh"):
    env = _started(name, elide)
    return env.ctx.sim, env.strategy.arq, env.config.end_time, lambda: None


def _fifo_world(elide):
    return _runner_world(elide, "fifo_queue")


@pytest.mark.parametrize("world", [_pair_world, _runner_world, _fifo_world])
def test_settled_acks_count_against_max_events(world):
    """A quota of the eager run's executed count finishes cleanly on both
    twins; one event less raises on both."""
    sim, _, until, close = world(False)
    sim.run(until=until)
    quota = sim.processed_events
    close()
    for elide in (True, False):
        sim, arq, until, close = world(elide)
        sim.run(until=until, max_events=quota)
        assert sim.processed_events == quota
        assert (arq.acks_settled_at_send > 0) == elide
        close()
        sim, _, until, close = world(elide)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=until, max_events=quota - 1)
        close()
