"""The message horizon: per-message ordering state kept by time, not forever.

``wire_stack`` derives the longest time from a message's publish to the
arrival of any copy of it at a broker (:func:`repro.stack.message_horizon`)
and hands it to the ordering plan, which keeps a stamped tag one horizon
past its publish, and to every pipeline, which keeps a released id one
horizon past its release. These cells pin the derivation on the
``total_order`` world, that the state alive at the end of a run no longer
grows with the run, and that the worlds with no proven bound keep every
id as before. That no release, stall or delivery moves is pinned by the
``ordered_lossy/DCRD`` cell of ``test_fast_path_equivalence.py``; that
no copy arrives past the horizon, by the sanitizer in every sanitized
run.
"""

import asyncio
import math

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.live.clock import WallClock
from repro.live.transport import LiveTransport
from repro.ordering.plan import OrderingPlan
from repro.ordering.spec import parse_ordering
from repro.routing.base import ProtocolParams
from repro.sim.random import RandomStreams
from repro.stack import MESSAGE_MARGIN_S, wire_stack
from repro.util.generations import Generations
from tests.conftest import make_topology, single_topic_workload

#: The ``total_order`` world of the end-to-end benchmark (its 900 s run).
TOTAL_ORDER = dict(failure_probability=0.06, ordering="total", deadline_factor=20.0)


def alive(plan):
    """Released ids plus stamp-cache entries the plan's run still holds."""
    return sum(len(pipeline._released) for pipeline in plan._pipelines) + len(
        plan._tags
    )


def test_the_total_order_world_s_horizon_is_the_dcrd_chain_bound():
    env = build_environment(ExperimentConfig(**TOTAL_ORDER, duration=1.0), "DCRD", 1)
    topology = env.ctx.topology
    slowest = max(topology.delay(u, v) for u, v in topology.edges())
    timeout = env.ctx.params.ack_timeout(slowest)
    # A 20-node full mesh, m = 1: 38 hops of 18 timeouts and one delay.
    assert len(topology.nodes) == 20 and topology.degree(0) == 19
    want = 2 * 19 * ((19 * 1 - 1) * timeout + slowest) + MESSAGE_MARGIN_S
    assert env.ctx.message_horizon == pytest.approx(want)
    assert 70.0 < env.ctx.message_horizon < 75.0
    plan = env.ctx.ordering
    assert plan._tags.horizon == env.ctx.message_horizon
    assert {p._released.horizon for p in plan._pipelines} == {plan._tags.horizon}


def test_state_alive_does_not_grow_with_the_run():
    """900 s and 3,600 s of ``total_order`` hold at most about the same
    released ids and tags: two horizons' worth, not the run's.

    Sampled every simulated second, since what is alive at a given
    instant depends on where it falls between two retirements: between
    one and two horizons' worth (at the end of these two runs, 9,101 and
    6,971 entries)."""
    peaks = {}
    for duration in (900.0, 3600.0):
        env = build_environment(
            ExperimentConfig(**TOTAL_ORDER, duration=duration), "DCRD", 1
        )
        plan = env.ctx.ordering
        samples = []

        def sample():
            samples.append(alive(plan))
            env.ctx.sim.schedule(1.0, sample)

        env.ctx.sim.schedule(1.0, sample)
        summary = env.execute()
        peaks[duration] = max(samples)
        # Every release was counted; far fewer ids are still kept.
        assert alive(plan) < summary.perf["ordering.releases"] / 4
    assert abs(peaks[3600.0] - peaks[900.0]) <= 0.1 * peaks[900.0]


@pytest.mark.parametrize(
    "options, strategy",
    [
        ({"link_service_time": 0.02}, "DCRD"),  # a copy may queue
        ({"link_service_time": 0.02, "queue_discipline": "edf"}, "DCRD"),
        ({"node_failure_probability": 0.05}, "DCRD"),  # no round trip known
        ({}, "DCRD+persist"),  # custody holds a copy for later
        ({}, "D-Tree"),  # a baseline proves no span
    ],
)
def test_no_horizon_where_none_is_proven(options, strategy):
    env = build_environment(
        ExperimentConfig(ordering="total", duration=1.0, **options), strategy, 1
    )
    assert env.ctx.message_horizon == math.inf
    assert env.ctx.ordering._tags.horizon == math.inf


def test_an_unbounded_world_keeps_every_id():
    """FIFO links: no horizon, so every released id and every tag stays."""
    env = build_environment(
        ExperimentConfig(
            **TOTAL_ORDER, duration=120.0, link_service_time=0.02, loss_rate=0.03, m=2
        ),
        "DCRD",
        1,
    )
    summary = env.execute()
    plan = env.ctx.ordering
    assert env.ctx.message_horizon == math.inf
    released = [pipeline._released for pipeline in plan._pipelines]
    assert sum(len(ids.current) for ids in released) == summary.perf[
        "ordering.releases"
    ]
    assert all(not ids.older for ids in released)
    assert not plan._tags.older
    assert len(plan._tags.current) > 100


def test_the_wall_clock_has_no_horizon():
    topology = make_topology([(0, 1, 0.010), (1, 2, 0.010)])

    async def wire():
        clock = WallClock(asyncio.get_running_loop())
        streams = RandomStreams(0)
        plan = OrderingPlan(parse_ordering("total"))
        ctx, _strategy, _brokers = wire_stack(
            clock,
            topology,
            LiveTransport(clock, topology, streams),
            streams,
            single_topic_workload(0, [(2, 1.0)]),
            ProtocolParams(m=1),
            ordering=plan,
        )
        return ctx.message_horizon, plan._tags.horizon

    assert asyncio.run(wire()) == (math.inf, math.inf)


def test_a_key_is_kept_one_horizon_and_dropped_after_two():
    ids = Generations()
    ids.bound(10.0, 0.0)
    ids.at(1.0).add("a")
    ids.at(9.9).add("b")
    ids.at(10.0).add("c")  # retires [0, 10) to the older generation
    assert "a" in ids and "b" in ids and "c" in ids
    ids.at(19.0).add("d")
    assert "a" in ids  # 18 s after its add: kept until an add at 20 or later
    ids.at(20.0).add("e")  # retires [0, 10) for good
    assert "a" not in ids and "b" not in ids
    assert "c" in ids and "d" in ids and "e" in ids
    ids.at(45.0).add("f")  # a horizon or more late: both generations go
    assert len(ids) == 1 and "f" in ids


def test_an_infinite_horizon_never_retires():
    tags = Generations(dict)
    tags.bound(math.inf, 0.0)
    for now in range(0, 10_000, 100):
        tags.at(float(now))[now] = now
    assert len(tags.current) == 100 and not tags.older
    assert tags.get(0) == 0 and tags.get(1) is None
