"""The substrate contract (repro.substrate) and who satisfies it.

The broker stack calls every transport member it uses —
``attach``, ``send_data``/``send_ack``, the fast-path members — and
the clock's ``schedule`` family and ``push`` directly, with no capability
probe and no fallback, so both transports and both clocks must offer the
whole contract, and the unit-test harness must run the same sends
production runs. Both transports are one link model: ``LiveTransport``
is an ``OverlayNetwork`` whose last step is a socket write.
"""

import asyncio
from collections import Counter

import pytest

from repro.live.clock import WallClock
from repro.live.transport import LiveTransport
from repro.overlay.links import OverlayNetwork
from repro.sim import engine
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
        (Transport, lambda wall: LiveTransport(wall, diamond(), RandomStreams(1))),
    ],
    ids=["Simulator", "WallClock", "OverlayNetwork", "LiveTransport"],
)
def test_substrates_satisfy_the_contract(protocol, build, wall_clock, monkeypatch):
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
        substrate.clear()
        # Fire-and-forget entries count as pending until they run.
        fired = []
        for i in range(3):
            substrate.schedule_fire(0.01, fired.append, i)
        assert substrate.pending_events == 3
        _run_due(substrate)
        assert fired == [0, 1, 2]
        assert substrate.pending_events == 0
        # The count stays exact across a compaction (every second
        # tombstone rebuilds the heap here) and past a tombstone that
        # surfaces when the heap is drained.
        monkeypatch.setattr(engine, "_COMPACTION_MIN", 2)
        monkeypatch.setattr(engine, "_COMPACTION_SHARE", 0.0)
        handles = [substrate.schedule(0.01, fired.append, i) for i in range(3, 7)]
        substrate.schedule_fire(0.01, fired.append, "fire")
        for handle, pending in zip(handles[:3], [4, 3, 2]):
            handle.cancel()
            assert substrate.pending_events == pending
        assert substrate.heap_compactions == 1
        _run_due(substrate)
        assert fired[3:] == [6, "fire"]
        assert substrate.pending_events == 0
    else:
        # One link model: the socket transport is the simulated network
        # with a socket write as its last step, and a socket round trip
        # is not known in advance.
        assert isinstance(substrate, OverlayNetwork)
        for node in substrate.topology.nodes:
            substrate.attach(node, lambda sender, frame: None)
        substrate.prewarm_directions()
        substrate.register_ack_fate_hook(lambda src, dst, ack, arrival: False)
        u, v = next(iter(substrate.topology.edges()))
        pair = substrate.ack_round_trip(u, v)
        if isinstance(substrate, LiveTransport):
            assert pair is None
        else:
            topology = substrate.topology
            assert pair == (topology.delay(u, v), topology.delay(v, u))


def _run_due(clock):
    """Run every timer armed on *clock* (all are due within 10 ms)."""
    if isinstance(clock, Simulator):
        clock.run()
    else:
        clock._loop.run_until_complete(asyncio.sleep(0.05))


def test_the_unit_harness_sends_through_the_contract(monkeypatch):
    """A ``build_ctx`` world carries its frames on ``send_data``/``send_ack``
    and nothing else."""
    calls = Counter()

    def counted(name):
        method = getattr(OverlayNetwork, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("send_data", "send_ack"):
        monkeypatch.setattr(OverlayNetwork, name, counted(name))
    ctx, _ = run_once(diamond(), single_topic_workload(0, [(3, 1.0)]))
    assert ctx.metrics.outcome(1, 3).delivered
    assert calls == {"send_data": 2, "send_ack": 2}
