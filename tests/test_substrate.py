"""The substrate contract (repro.substrate) and who satisfies it.

The broker stack binds ``network.send_data``/``network.send_ack`` and the
clock's ``schedule`` family and ``push`` directly — no capability probe,
no fallback —
so both transports and both clocks must offer the whole contract, and the
unit-test harness must run the same sends production runs.
"""

import asyncio
from collections import Counter

import pytest

from repro.live.clock import WallClock
from repro.live.transport import LiveTransport
from repro.overlay.links import OverlayNetwork
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.substrate import Clock, Transport
from tests.conftest import single_topic_workload
from tests.core.test_forwarding import diamond, run_once


@pytest.fixture
def wall_clock():
    loop = asyncio.new_event_loop()
    yield WallClock(loop)
    loop.close()


@pytest.mark.parametrize(
    "protocol, build",
    [
        (Clock, lambda wall: Simulator()),
        (Clock, lambda wall: wall),
        (Transport, lambda wall: OverlayNetwork(Simulator(), diamond(), RandomStreams(1))),
        (Transport, lambda wall: LiveTransport(diamond(), wall)),
    ],
    ids=["Simulator", "WallClock", "OverlayNetwork", "LiveTransport"],
)
def test_substrates_satisfy_the_contract(protocol, build, wall_clock):
    substrate = build(wall_clock)
    assert isinstance(substrate, protocol)
    if protocol is Clock:
        # The one push: an absolute time on the clock's own axis and a
        # seq reserved from the clock's counter, kept by the handle.
        seq = next(substrate._seq)
        at = substrate.now + 1.0
        handle = substrate.push(at, seq, lambda: None, ())
        assert (handle.seq, handle.time) == (seq, at)
        assert substrate.pending_events == 1
        handle.cancel()
        assert substrate.pending_events == 0


def test_the_unit_harness_sends_through_the_contract(monkeypatch):
    """A ``build_ctx`` world carries its frames on ``send_data``/``send_ack``
    themselves — the generic ``transmit`` is never entered."""
    calls = Counter()

    def counted(name):
        method = getattr(OverlayNetwork, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("transmit", "send_data", "send_ack"):
        monkeypatch.setattr(OverlayNetwork, name, counted(name))
    ctx, _ = run_once(diamond(), single_topic_workload(0, [(3, 1.0)]))
    assert ctx.metrics.outcome(1, 3).delivered
    assert calls == {"send_data": 2, "send_ack": 2}
