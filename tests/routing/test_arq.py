"""Unit tests for the hop-by-hop ARQ layer."""

import itertools

import pytest

from repro import probes
from repro.overlay.links import FrameKind
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.routing.arq import ArqSender
from tests.conftest import ScriptedFailures, build_ctx, make_topology

_transfer_ids = itertools.count(1)


def make_frame(msg_id=1, destinations=frozenset({1})):
    return PacketFrame.fresh(
        msg_id=msg_id,
        transfer_id=next(_transfer_ids),
        topic=0,
        origin=0,
        publish_time=0.0,
        destinations=destinations,
        routing_path=(0,),
    )


def ack_for(frame, acker):
    return AckFrame(msg_id=frame.msg_id, acker=acker, transfer_id=frame.transfer_id)


def make_arq(failures=None, m=1, loss_rate=0.0):
    topo = make_topology([(0, 1, 0.010)])
    ctx = build_ctx(topo, failures=failures, m=m, loss_rate=loss_rate)
    return ctx, ArqSender(ctx)


class AckLog(probes.ProbeObserver):
    """Every ACK that settled a copy: ``(t, node, sender, frame)``."""

    def __init__(self):
        self.acks = []

    def on_ack(self, t, node, sender, frame):
        self.acks.append((t, node, sender, frame))


@pytest.fixture
def ack_log():
    observer = AckLog()
    probes.attach(observer)
    yield observer.acks
    probes.detach(observer)


def test_ack_settles_the_copy(ack_log):
    ctx, arq = make_arq()
    outcomes = []
    frame = make_frame()
    # Echo an ACK back whenever node 1 receives the frame.
    ctx.network.attach(
        1,
        lambda sender, received: ctx.network.send_ack(
            1, sender, ack_for(received, 1)
        ),
    )
    ctx.network.attach(0, lambda sender, received: arq.handle_ack(0, sender, received))
    arq.send(0, 1, frame, lambda f, hop: outcomes.append("failed"))
    assert arq.in_flight == 1
    ctx.sim.run()
    assert outcomes == [] and ack_log == [(0.02, 0, 1, frame)]
    assert arq.acked == 1 and arq.failed == 0
    assert arq.in_flight == 0


def test_silence_fails_after_m_transmissions():
    failures = ScriptedFailures({(0, 1): [(0.0, 100.0)]})
    ctx, arq = make_arq(failures=failures, m=3)
    outcomes = []
    frame = make_frame()
    arq.send(0, 1, frame, lambda f, hop: outcomes.append((f, hop)))
    ctx.sim.run()
    assert outcomes == [(frame, 1)]
    assert ctx.network.stats.sent[FrameKind.DATA] == 3
    assert arq.retransmissions == 2
    assert arq.failed == 1


def test_m_one_gives_single_attempt():
    failures = ScriptedFailures({(0, 1): [(0.0, 100.0)]})
    ctx, arq = make_arq(failures=failures, m=1)
    outcomes = []
    arq.send(0, 1, make_frame(), lambda f, hop: outcomes.append(f))
    ctx.sim.run()
    assert len(outcomes) == 1
    assert ctx.network.stats.sent[FrameKind.DATA] == 1


def test_retransmission_recovers_transient_failure():
    # Link down only briefly: first attempt dies, second succeeds.
    failures = ScriptedFailures({(0, 1): [(0.0, 0.015)]})
    ctx, arq = make_arq(failures=failures, m=2)
    outcomes = []
    ctx.network.attach(
        1,
        lambda sender, received: ctx.network.send_ack(
            1, sender, ack_for(received, 1)
        ),
    )
    ctx.network.attach(0, lambda sender, received: arq.handle_ack(0, sender, received))
    arq.send(0, 1, make_frame(), lambda f, hop: outcomes.append("failed"))
    ctx.sim.run()
    assert outcomes == [] and arq.acked == 1 and arq.in_flight == 0
    assert ctx.network.stats.sent[FrameKind.DATA] == 2


def test_unknown_ack_ignored():
    ctx, arq = make_arq()
    ack = AckFrame(msg_id=9, acker=1, transfer_id=12345)
    arq.handle_ack(0, 1, ack)  # must not raise
    assert arq.acked == 0


def test_ack_from_wrong_neighbor_ignored():
    topo = make_topology([(0, 1, 0.010), (0, 2, 0.010)])
    failures = ScriptedFailures({(0, 1): [(0.0, 100.0)]})
    ctx = build_ctx(topo, failures=failures, m=1)
    arq = ArqSender(ctx)
    outcomes = []
    frame = make_frame()
    arq.send(0, 1, frame, lambda f, hop: outcomes.append("failed"))
    # A forged ACK for the right transfer id but from node 2.
    arq.handle_ack(0, 2, ack_for(frame, 2))
    assert arq.acked == 0 and arq.in_flight == 1
    ctx.sim.run()
    assert outcomes == ["failed"]


def test_late_ack_after_failure_is_ignored():
    ctx, arq = make_arq(m=1)
    outcomes = []
    frame = make_frame()
    arq.send(0, 1, frame, lambda f, hop: outcomes.append("failed"))
    # Let the timer expire (no receiver attached -> frame delivered nowhere).
    ctx.sim.run()
    arq.handle_ack(0, 1, ack_for(frame, 1))
    assert outcomes == ["failed"]
    assert arq.acked == 0


def test_duplicate_ack_counted_once(ack_log):
    ctx, arq = make_arq()
    frame = make_frame()
    arq.send(0, 1, frame, lambda f, hop: None)
    ack = ack_for(frame, 1)
    arq.handle_ack(0, 1, ack)
    arq.handle_ack(0, 1, ack)
    assert ack_log == [(0.0, 0, 1, frame)]
    assert arq.acked == 1 and arq.in_flight == 0


def test_timeout_scales_with_link_alpha():
    # alpha = 10 ms, factor 2.0 (+1 ms slack): failure should be declared
    # at ~21 ms, well before 100 ms.
    failures = ScriptedFailures({(0, 1): [(0.0, 100.0)]})
    ctx, arq = make_arq(failures=failures, m=1)
    failed_at = []
    arq.send(0, 1, make_frame(), lambda f, hop: failed_at.append(ctx.sim.now))
    ctx.sim.run()
    assert failed_at[0] == pytest.approx(0.021, abs=1e-6)
