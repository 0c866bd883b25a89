"""Scripted drop rules through ``link_filter``, the one fault seam.

Both substrates take the predicate ``link_filter`` builds through one
member, ``install_fault_filter``: the socket transport is a simulated
network whose last step is a socket write. The last test sends one frame
schedule through each and asserts they drop the same frames and fire the
same ``transmit`` probe stream.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import probes
from repro.live.clock import WallClock
from repro.live.faults import (
    ACK,
    DATA,
    DropRule,
    ack_loss_rules,
    dead_link_rules,
    link_filter,
)
from repro.live.transport import LiveTransport
from repro.overlay.links import FrameKind, OverlayNetwork
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import ConfigurationError
from tests.core.test_forwarding import diamond


def decisions(fault, frames) -> list:
    """Feed a ``(src, dst, kind)`` schedule through *fault*; what it dropped."""
    return [fault(src, dst, kind, object()) for src, dst, kind in frames]


class TestScriptedRules:
    def test_no_rules_drop_nothing(self):
        frames = [(0, 1, FrameKind.DATA), (1, 0, FrameKind.ACK)] * 5
        assert decisions(link_filter(()), frames) == [False] * 10

    def test_dead_link_drops_both_directions_and_kinds(self):
        fault = link_filter(dead_link_rules(0, 1))
        assert fault(0, 1, FrameKind.DATA, object())
        assert fault(1, 0, FrameKind.ACK, object())
        assert not fault(0, 2, FrameKind.DATA, object())

    def test_ack_loss_is_kind_and_direction_scoped(self):
        fault = link_filter(ack_loss_rules(1, 0))
        assert fault(1, 0, FrameKind.ACK, object())
        assert not fault(1, 0, FrameKind.DATA, object())  # DATA passes
        assert not fault(0, 1, FrameKind.ACK, object())  # reverse direction passes

    def test_count_bounded_rule_exhausts(self):
        rule = DropRule(src=0, dst=1, kind=DATA, count=2)
        frames = [(0, 1, FrameKind.DATA)] * 3
        assert decisions(link_filter((rule,)), frames) == [True, True, False]
        assert rule.dropped == 2

    def test_rule_kinds_are_frame_kind_values(self):
        assert (DATA, ACK) == (FrameKind.DATA.value, FrameKind.ACK.value)


class TestValidation:
    def test_bad_rule_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            DropRule(kind="probe")

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            DropRule(src=0, count=0)

    def test_count_bounded_rule_must_name_its_src(self):
        # Every fleet partition rebuilds its own rules: a wildcard-src
        # budget would be spent once per sending process.
        with pytest.raises(ConfigurationError, match="src"):
            DropRule(kind=ACK, count=2)
        with pytest.raises(ConfigurationError, match="src"):
            DropRule.from_dict({"dst": 1, "kind": None, "count": 1})
        assert DropRule(src=1, kind=ACK, count=2).count == 2


# ---------------------------------------------------------------------------
# One seam: the simulated network and the socket transport drop alike
# ---------------------------------------------------------------------------
def parity_rules():
    return (
        *dead_link_rules(0, 1),
        *ack_loss_rules(3, 2),
        DropRule(src=2, dst=0, kind=DATA, count=2),
    )


def parity_schedule():
    """DATA and ACK frames on every direction of the diamond, interleaved."""
    directions = [(0, 1), (1, 0), (1, 3), (3, 1), (0, 2), (2, 0), (2, 3), (3, 2)]
    frames = []
    for i in range(32):
        src, dst = directions[i % len(directions)]
        if i % 3:
            frame = PacketFrame(
                msg_id=i,
                transfer_id=100 + i,
                topic=1,
                origin=src,
                publish_time=0.0,
                destinations=frozenset({dst}),
                routing_path=(src,),
            )
            frames.append((src, dst, frame, FrameKind.DATA))
        else:
            frames.append((src, dst, AckFrame(i, src, 100 + i), FrameKind.ACK))
    return frames


def _send_all(network, frames):
    """Send each frame by its kind's send, to nodes that all have a
    handler: a surviving copy's send returns ``True`` on both substrates."""
    for node in network.topology.nodes:
        network.attach(node, lambda sender, received: None)
    return [
        (network.send_data if kind is FrameKind.DATA else network.send_ack)(
            src, dst, frame
        )
        for src, dst, frame, kind in frames
    ]


def _rows(stats):
    return stats.sent, stats.volume, stats.lost_injected


class _Transmits:
    """Every ``on_transmit`` call, less its time and frame."""

    def __init__(self) -> None:
        self.calls = []

    def probe_handlers(self):
        return {"transmit": self._on_transmit}

    def _on_transmit(self, t, src, dst, frame, survived, cause, prop, queue):
        self.calls.append((src, dst, survived, cause, prop, queue))


def test_sim_and_live_transports_drop_the_same_frames():
    frames = parity_schedule()
    network = OverlayNetwork(Simulator(), diamond(), RandomStreams(0), loss_rate=0.0)
    network.install_fault_filter(link_filter(parity_rules()))
    sim_probes = _Transmits()
    probes.attach(sim_probes)
    try:
        sim_outcomes = _send_all(network, frames)
    finally:
        probes.detach(sim_probes)

    async def live():
        transport = LiveTransport(
            WallClock(asyncio.get_running_loop()), diamond(), RandomStreams(0)
        )
        transport.install_fault_filter(link_filter(parity_rules()))
        await transport.start()
        try:
            outcomes = _send_all(transport, frames)
            # Every surviving copy is written after its link's delay and
            # read at its receiver.
            deadline = asyncio.get_running_loop().time() + 2.0
            while transport.in_transit:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            return transport, outcomes
        finally:
            await transport.close()

    live_probes = _Transmits()
    probes.attach(live_probes)
    try:
        transport, live_outcomes = asyncio.run(live())
    finally:
        probes.detach(live_probes)
    assert live_outcomes == sim_outcomes
    assert _rows(transport.stats) == _rows(network.stats)
    # One probe stream: the same (src, dst, survived, cause, prop, queue)
    # for every DATA send, the propagation delay and zero queueing of a
    # surviving copy included.
    assert live_probes.calls == sim_probes.calls
    assert any(call[2] and call[5] == 0.0 for call in sim_probes.calls)
    # The schedule exercises every rule and still passes frames.
    assert 0 < sum(network.stats.lost_injected.values()) < len(frames)
    assert network.stats.lost_injected[FrameKind.ACK] > 0
