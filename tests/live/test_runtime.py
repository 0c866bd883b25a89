"""Pacing and settling of the single-process live run.

``run_live_scenario`` publishes message ``i`` at ``start + i * interval``
and ends on :meth:`PartitionRuntime.settled`, an exact quiescence test.
Publish instants are read off the ``publish`` probe family.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import time

import pytest

from repro import probes
from repro.live.broker import PartitionRuntime
from repro.live.config import LiveConfig
from repro.live.faults import ACK, DropRule
from repro.live.runtime import run_live_scenario
from repro.live.scenarios import Scenario, make_scenario
from repro.pubsub.messages import AckFrame
from repro.util.errors import SimulationError

INTERVAL = 0.001


class _PublishInstants(probes.ProbeObserver):
    """When each message left its publisher; optionally stalls the loop
    inside one publish, the way a long callback or a collector pass does."""

    def __init__(self, block_msg: int = 0, block_s: float = 0.0) -> None:
        self.instants = {}
        self.block_msg = block_msg
        self.block_s = block_s

    def on_publish(self, frame):
        self.instants.setdefault(frame.msg_id, frame.publish_time)
        if frame.msg_id == self.block_msg:
            time.sleep(self.block_s)


def _paced_run(publishes, observer):
    scenario = dataclasses.replace(
        make_scenario("clean"), publishes=publishes, publish_interval=INTERVAL
    )
    # A collector pass over a test session's heap stalls the loop for tens
    # of milliseconds: a host stall no pacing rule can hide, so keep it out.
    gc.collect()
    gc.disable()
    probes.attach(observer)
    try:
        result = run_live_scenario(scenario, seed=0, sanitize=False)
    finally:
        probes.detach(observer)
        gc.enable()
    assert len(result["delivered"]) == result["expected"] == 3 * publishes
    return [observer.instants[msg] for msg in sorted(observer.instants)]


def test_publishes_keep_to_the_nominal_rate():
    # Sleeping a full interval after every publish stretches this window
    # by each wake-up's slop: 1.45-1.6x the nominal 199 ms.
    instants = _paced_run(200, _PublishInstants())
    assert len(instants) == 200
    assert instants[-1] - instants[0] <= 1.25 * 199 * INTERVAL


def test_a_late_wake_up_publishes_the_due_messages_back_to_back():
    # Message 50 (index 49) holds the loop for 20 ms; messages 51-69
    # fall due meanwhile.
    instants = _paced_run(100, _PublishInstants(block_msg=50, block_s=0.02))
    offsets = [t - instants[0] for t in instants]
    # Never early: each message waits for its own instant.
    assert all(offset >= i * INTERVAL - 1e-4 for i, offset in enumerate(offsets))
    # The overdue messages go out back to back, not an interval apart ...
    assert offsets[59] - offsets[50] < 5 * INTERVAL
    # ... and the rest of the schedule has not moved by the 20 ms: past the
    # backlog, some message leaves within 10 ms of its own instant. One
    # message's lateness is one wake-up's slop, which host load stretches
    # past 10 ms now and then; a shifted schedule makes every one of them
    # at least 20 ms late.
    assert min(offsets[i] - i * INTERVAL for i in range(80, 100)) < 0.01


def test_an_already_quiescent_partition_settles_without_sleeping():
    async def scenario():
        world = make_scenario("clean")
        runtime = PartitionRuntime(world, 0, world.topology().nodes, sanitize=False)
        try:
            await runtime.start()
            step = runtime.settled()
            try:
                # The coroutine returns on its first step: it never awaited.
                with pytest.raises(StopIteration):
                    step.send(None)
            finally:
                step.close()
        finally:
            await runtime.close()

    asyncio.run(scenario())


def test_a_partition_that_does_not_settle_in_time_says_what_is_left():
    async def scenario():
        world = make_scenario("clean")
        runtime = PartitionRuntime(
            world, 0, world.topology().nodes, LiveConfig(settle_timeout=0.005), sanitize=False
        )
        try:
            await runtime.start()
            # A copy 20 ms from its receiver outlives a 5 ms settle timeout.
            runtime.transport.send_ack(0, 1, AckFrame(1, 0, 1))
            assert runtime.status()["in_transit"] == 1
            with pytest.raises(SimulationError, match="1 copies in transit"):
                await runtime.settled()
        finally:
            await runtime.close()

    asyncio.run(scenario())


class _DataCopies(probes.ProbeObserver):
    """DATA copies put on a link, and those that reached their receiver."""

    def __init__(self) -> None:
        self.sent = 0
        self.arrived = 0

    def on_transmit(self, t, src, dst, frame, survived, *_rest):
        self.sent += survived

    def on_arrive(self, t, src, dst, frame):
        self.arrived += 1


def trailing_duplicate_scenario() -> Scenario:
    """One message over one 40 ms link whose first ACK is lost.

    The ACK timer (1.5 x alpha = 60 ms) is shorter than the round trip:
    copy 2 goes out at 60 ms and its ACK settles the transfer at 140 ms,
    while copy 3, sent at 120 ms, lands only at 160 ms — a duplicate still
    on the wire after the last ACK.
    """
    return Scenario(
        name="trailing_duplicate",
        edges=((0, 1, 0.04),),
        publisher=0,
        subscribers=((1, 5.0),),
        rules=lambda: (DropRule(src=1, dst=0, kind=ACK, count=1),),
        publishes=1,
        m=3,
        ack_timeout_factor=1.5,
        ack_timeout_slack=0.0,
    )


def test_a_trailing_duplicate_lands_before_the_run_settles():
    copies = _DataCopies()
    probes.attach(copies)
    try:
        result = run_live_scenario(trailing_duplicate_scenario(), seed=0, sanitize=True)
    finally:
        probes.detach(copies)
    assert result["violations"] == 0
    assert result["delivered"] == frozenset({(1, 1)})
    assert result["retransmissions"] == 2
    assert result["in_flight"] == 0
    # Settling waited for the third copy, not just for the ACK of the second.
    assert copies.sent == copies.arrived == 3
