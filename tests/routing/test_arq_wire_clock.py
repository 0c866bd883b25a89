"""The ACK clock starts at the wire (finite-capacity links).

A two-node link with a 20 ms service time, driven through the real
``ArqSender.send`` → ``send_data`` path. The static timeout is
``2 * 0.010 + 0.001``; what these cases pin is *when it starts*: at the
instant the link says the copy's last bit leaves its sender — never while
the copy still sits in that sender's own output queue.
"""

import itertools

import pytest

from repro import probes
from repro.overlay.links import FrameKind
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.routing.arq import ArqSender
from tests.conftest import ScriptedFailures, build_ctx, make_topology

PROP = 0.010
SERVICE = 0.020
TIMEOUT = 2.0 * PROP + 0.001

_transfer_ids = itertools.count(1)


def make_frame(msg_id, priority=float("inf")):
    return PacketFrame.fresh(
        msg_id=msg_id,
        transfer_id=next(_transfer_ids),
        topic=0,
        origin=0,
        publish_time=0.0,
        destinations=frozenset({1}),
        routing_path=(0,),
        priority=priority,
    )


class Clocks(probes.ProbeObserver):
    """What the link reported and what the sender armed, per message."""

    def __init__(self):
        self.wire_clear = []  # (msg_id, instant the last bit leaves | None)
        self.deadlines = []  # (msg_id, ACK timer deadline)
        self.timeouts = []  # msg_id of every ack_timeout probe
        self.outcomes = []  # ("acked", msg_id) per settling ACK, in order

    def on_ack(self, t, node, sender, frame):
        self.outcomes.append(("acked", frame.msg_id))

    def on_wire(self, t, src, dst, frame, wait):
        self.wire_clear.append((frame.msg_id, None if wait is None else t + wait))

    def on_timer_started(self, token, deadline, frame):
        self.deadlines.append((frame.msg_id, deadline))

    def on_ack_timeout(self, t, src, dst, frame, attempts, will_retry):
        self.timeouts.append(frame.msg_id)


@pytest.fixture
def clocks():
    observer = Clocks()
    probes.attach(observer)
    yield observer
    probes.detach(observer)


def make_arq(m=1, failures=None, echo_acks=True, **link_options):
    ctx = build_ctx(
        make_topology([(0, 1, PROP)]),
        failures=failures,
        m=m,
        service_time=SERVICE,
        **link_options,
    )
    arq = ArqSender(ctx)
    if echo_acks:
        ctx.network.attach(
            1,
            lambda sender, frame: ctx.network.send_ack(
                1,
                sender,
                AckFrame(msg_id=frame.msg_id, acker=1, transfer_id=frame.transfer_id),
            ),
        )
        ctx.network.attach(0, lambda sender, ack: arq.handle_ack(0, sender, ack))
    return ctx, arq


def send(arq, frame, outcomes=None):
    """Send *frame* 0 -> 1; a failure lands in *outcomes* (ACKs: ``on_ack``)."""
    outcomes = outcomes if outcomes is not None else []
    arq.send(0, 1, frame, lambda f, hop: outcomes.append(("failed", f.msg_id)))
    return outcomes


def test_back_to_back_deadlines_are_wire_clear_plus_timeout(clocks):
    ctx, arq = make_arq()
    outcomes = clocks.outcomes
    for msg_id in (1, 2, 3):
        send(arq, make_frame(msg_id), outcomes)
    # All three were handed over at t=0; each leaves one service time
    # after the one before it, and its clock starts exactly then.
    assert clocks.wire_clear == [(1, 0.02), (2, 0.04), (3, 0.06)]
    assert clocks.deadlines == [
        (msg_id, clear + TIMEOUT) for msg_id, clear in clocks.wire_clear
    ]
    ctx.sim.run()
    assert outcomes == [("acked", 1), ("acked", 2), ("acked", 3)]
    assert arq.ack_timeouts == 0 and arq.retransmissions == 0
    assert arq.wire_wait_s == pytest.approx(0.02 + 0.04 + 0.06)


def test_a_retransmission_re_queues_and_re_clocks(clocks):
    # The link is down for the first attempt only.
    failures = ScriptedFailures({(0, 1): [(0.0, 0.030)]})
    ctx, arq = make_arq(m=2, failures=failures)
    outcomes = send(arq, make_frame(1), clocks.outcomes)
    ctx.sim.run()
    first = SERVICE + TIMEOUT  # lost, yet clocked like a survivor
    assert clocks.deadlines == [(1, first), (1, (first + SERVICE) + TIMEOUT)]
    assert clocks.timeouts == [1]
    assert arq.retransmissions == 1
    assert outcomes == [("acked", 1)]


@pytest.mark.parametrize("discipline", ["fifo", "edf"])
def test_a_lost_copy_is_clocked_like_a_survivor(clocks, discipline):
    """The simulator drops a lost copy before it queues; its sender cannot
    know, so the clock is the one a surviving copy would have had — behind
    the copy already on the wire, plus its own serialisation."""

    def second_deadline(failures):
        clocks.deadlines.clear()
        ctx, arq = make_arq(
            failures=failures, queue_discipline=discipline, echo_acks=False
        )
        send(arq, make_frame(1))
        ctx.sim.schedule_fire(0.005, send, arq, make_frame(2))
        ctx.sim.run()
        return dict(clocks.deadlines)[2]

    survivor = second_deadline(None)
    lost = second_deadline(ScriptedFailures({(0, 1): [(0.004, 0.006)]}))
    assert survivor == pytest.approx(2 * SERVICE + TIMEOUT)
    assert lost >= survivor


def test_an_overtaken_edf_copy_is_not_timed_out(clocks):
    ctx, arq = make_arq(queue_discipline="edf")
    outcomes = clocks.outcomes
    send(arq, make_frame(1, priority=5.0), outcomes)  # in service at once
    send(arq, make_frame(2, priority=9.0), outcomes)  # waits ...
    send(arq, make_frame(3, priority=1.0), outcomes)  # ... and is overtaken
    ctx.sim.run()
    assert clocks.wire_clear == [
        (1, pytest.approx(0.02)),
        (3, pytest.approx(0.04)),
        (2, pytest.approx(0.06)),
    ]
    # Copy 2 left its sender at 0.06: a clock started at hand-over would
    # have run out at 0.021, two service times before that.
    assert dict(clocks.deadlines)[2] == pytest.approx(0.06 + TIMEOUT)
    assert clocks.timeouts == []
    assert sorted(outcomes) == [("acked", 1), ("acked", 2), ("acked", 3)]


def test_a_copy_its_own_queue_discards_fails_without_a_timeout(clocks):
    """``"edf+drop"``: the hop fails at the discard instant — one
    ``on_failed``, no ``ack_timeout`` probe, no timer, and no
    retransmission into the queue that just discarded it."""
    ctx, arq = make_arq(m=3, queue_discipline="edf+drop")
    outcomes = clocks.outcomes
    send(arq, make_frame(1, priority=5.0), outcomes)
    send(arq, make_frame(2, priority=0.025), outcomes)  # expired by 0.02
    assert outcomes == []
    ctx.sim.run()
    assert clocks.wire_clear == [(1, pytest.approx(0.02)), (2, None)]
    assert outcomes == [("failed", 2), ("acked", 1)]
    assert [msg_id for msg_id, _ in clocks.deadlines] == [1]
    assert clocks.timeouts == []
    assert arq.failed == 1 and arq.ack_timeouts == 0 and arq.in_flight == 0
    assert ctx.network.stats.sent[FrameKind.DATA] == 2
    assert ctx.network.stats.dropped_expired[FrameKind.DATA] == 1
