"""The dedup horizon on whole worlds: derived once, kept by every broker.

``wire_stack`` bounds each broker's dedup window by the longest time that
can separate two arrivals of one transfer (:func:`repro.stack.dedup_horizon`).
These cells pin that the bound changes no dedup decision, that a copy at
the bound's worst case is still caught, that a long run's windows hold
only two horizons of ids, and that worlds with no bound (finite-capacity
links, the wall clock) keep the count rule. The same substrate answers
decide where the ARQ registers its ACK-fate hook.
"""

import asyncio
import dataclasses
import math
from collections import defaultdict

import pytest

import repro.pubsub.broker as broker_module
from repro import probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.live.clock import WallClock
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import make_scenario
from repro.live.transport import LiveTransport
from repro.overlay.links import FrameKind
from repro.pubsub.broker import BrokerRuntime
from repro.routing.base import ProtocolParams
from repro.sim.random import RandomStreams
from repro.stack import DEDUP_MARGIN_S, wire_stack
from tests.conftest import make_topology, single_topic_workload

#: The ``lossy_failover`` world of the end-to-end benchmark: 5 % loss,
#: Pf 0.1, m = 2 — ACK losses make retransmitted copies reach brokers.
LOSSY = dict(
    topology_kind="regular",
    degree=5,
    num_nodes=20,
    failure_probability=0.1,
    loss_rate=0.05,
    m=2,
)


class AcceptLog(probes.ProbeObserver):
    """``(time, transfer id)`` of every accept, per broker, in order."""

    def __init__(self, clock=None):
        self.clock = clock
        self.by_node = defaultdict(list)

    def on_broker_accept(self, node, sender, frame):
        now = self.clock.now if self.clock is not None else 0.0
        self.by_node[node].append((now, frame.transfer_id))


def run_logged(env):
    log = AcceptLog(env.ctx.sim)
    probes.attach(log)
    try:
        summary = env.execute()
    finally:
        probes.detach(log)
    return summary, log


def window(broker):
    return broker._seen | broker._older


def test_lossy_world_discards_what_the_fifo_window_did():
    env = build_environment(ExperimentConfig(**LOSSY, duration=60.0), "DCRD", 1)
    horizon = env.brokers[0]._horizon
    slowest = max(env.ctx.topology.delay(u, v) for u, v in env.ctx.topology.edges())
    assert horizon == env.ctx.params.ack_timeout(slowest) + DEDUP_MARGIN_S
    env.execute()
    # The count the 2^17-id FIFO window discarded on this world and seed.
    assert sum(broker.duplicates_suppressed for broker in env.brokers) == 324


@pytest.mark.parametrize("margin", [DEDUP_MARGIN_S, 1e-9])
def test_a_copy_at_the_worst_case_spread_is_discarded(margin):
    # The slowest link 1 -> 2 loses every ACK of message 1, so its three
    # copies reach broker 2 exactly (m - 1) = 2 timeouts apart, while a
    # message every 10 ms makes broker 2 retire generations on time.
    topology = make_topology([(0, 1, 0.010), (1, 2, 0.050)])
    workload = single_topic_workload(0, [(2, 1.0)], publish_interval=0.01)
    config = ExperimentConfig(m=3, duration=1.0, failure_probability=0.0)
    env = build_environment(config, "DCRD", 0, topology=topology, workload=workload)
    lost = []

    def drop_acks_of_first_copy(src, dst, kind, frame):
        if kind is not FrameKind.ACK or (src, dst) != (2, 1) or frame.msg_id != 1:
            return False
        if not lost:
            lost.append(frame.transfer_id)
        return frame.transfer_id == lost[0]

    env.ctx.network.install_fault_filter(drop_acks_of_first_copy)
    spread = (config.m - 1) * env.ctx.params.ack_timeout(0.050)
    assert env.brokers[2]._horizon == spread + DEDUP_MARGIN_S
    for broker in env.brokers:
        broker.bound_window(spread + margin)
    summary, log = run_logged(env)
    assert env.brokers[2].duplicates_suppressed == 2
    assert len(log.by_node[2]) == len({tid for _t, tid in log.by_node[2]})
    assert summary.delivered == summary.expected_deliveries


def test_a_long_run_window_holds_two_horizons():
    env = build_environment(ExperimentConfig(**LOSSY, duration=240.0), "DCRD", 3)
    summary, log = run_logged(env)
    assert sum(broker.duplicates_suppressed for broker in env.brokers) == 1143
    accepted = held = 0
    for broker in env.brokers:
        accepts = log.by_node[broker.node]
        horizon = broker._horizon
        last = accepts[-1][0]
        ids = window(broker)
        # Nothing older than two horizons, nothing younger than one lost ...
        assert all(last - t < 2 * horizon for t, tid in accepts if tid in ids)
        assert all(tid in ids for t, tid in accepts if last - t < horizon)
        # ... and exactly the ids of the two generations' spans.
        since = broker._retire_at - 2 * horizon
        assert len(ids) == sum(1 for t, _tid in accepts if t >= since)
        accepted += len(accepts)
        held += len(ids)
    # The FIFO window kept all 26,422 accepts of this run.
    assert (accepted, held) == (26422, 165)


def keeps_the_count_rule(brokers, log, capacity):
    """Every broker forgot no id before *capacity* later accepts, and
    retired only full generations."""
    retired = False
    for broker in brokers:
        assert broker._horizon == math.inf
        accepts = [tid for _t, tid in log.by_node[broker.node]]
        ids = window(broker)
        assert set(accepts[-capacity:]) <= ids
        assert not broker._older or len(broker._older) >= capacity
        retired = retired or len(ids) < len(accepts)
    assert retired


def test_finite_capacity_links_keep_the_count_rule(monkeypatch):
    monkeypatch.setattr(broker_module, "DEDUP_CAPACITY", 64)
    config = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        num_nodes=20,
        failure_probability=0.0,
        publish_interval=0.25,
        link_service_time=0.02,
        m=2,
        duration=20.0,
    )
    env = build_environment(config, "DCRD", 1)
    _summary, log = run_logged(env)
    keeps_the_count_rule(env.brokers, log, 64)


@pytest.mark.parametrize("m", [1, 2])
def test_live_world_horizon(monkeypatch, m):
    monkeypatch.setattr(broker_module, "DEDUP_CAPACITY", 16)
    monkeypatch.setattr(broker_module, "CAPACITY_CHECK_S", 0.005)
    brokers = {}
    bound = BrokerRuntime.bound_window

    def recording_bound(self, horizon):
        brokers[self] = horizon
        bound(self, horizon)

    monkeypatch.setattr(BrokerRuntime, "bound_window", recording_bound)
    scenario = dataclasses.replace(
        make_scenario("clean"), m=m, publishes=200, publish_interval=0.001
    )
    log = AcceptLog()
    probes.attach(log)
    try:
        result = run_live_scenario(scenario, seed=0, sanitize=False)
    finally:
        probes.detach(log)
    assert len(result["delivered"]) == result["expected"]
    assert len(brokers) == 6
    if m == 1:
        # No id repeats: the margin alone bounds the window.
        assert set(brokers.values()) == {DEDUP_MARGIN_S}
    else:
        # Wall-clock timers have no lateness ceiling: no horizon.
        keeps_the_count_rule(brokers, log, 16)


@pytest.mark.parametrize(
    "options, latent",
    [
        ({}, True),
        # FIFO tells each copy's wait at hand-over: the clock starts once
        # the send returns, and the copy may be latent like an unqueued one.
        ({"link_service_time": 0.02}, True),
        # EDF picks a copy's wait later: no round trip known in advance.
        ({"link_service_time": 0.02, "queue_discipline": "edf"}, False),
        ({"link_service_time": 0.02, "queue_discipline": "edf+drop"}, False),
        ({"node_failure_probability": 0.05}, False),  # no round trip known
    ],
)
def test_the_ack_fate_hook_is_registered_only_where_a_timer_can_be_latent(
    options, latent
):
    env = build_environment(ExperimentConfig(duration=1.0, **options), "DCRD", 0)
    hook = env.ctx.network._ack_fate
    assert (hook is not None) is latent
    assert env.strategy.arq._elide_timers is latent


def test_the_live_transport_gets_no_ack_fate_hook_and_no_horizon():
    topology = make_topology([(0, 1, 0.010), (1, 2, 0.010)])

    async def wire():
        clock = WallClock(asyncio.get_running_loop())
        streams = RandomStreams(0)
        transport = LiveTransport(clock, topology, streams)
        _ctx, _strategy, brokers = wire_stack(
            clock,
            topology,
            transport,
            streams,
            single_topic_workload(0, [(2, 1.0)]),
            ProtocolParams(m=2),
        )
        return transport._ack_fate, {broker._horizon for broker in brokers}

    hook, horizons = asyncio.run(wire())
    assert hook is None
    assert horizons == {math.inf}
