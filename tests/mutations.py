"""Fault injectors for the sanitizer's mutation tests: each monkeypatches
the one production method its fault corrupts, and the mutation suites
assert the matching violation. Patch before the world is built — the
stack binds ``_on_wire`` and the ordering stamper at construction."""

import copy
import dataclasses

from repro.core.forwarding import DcrdStrategy
from repro.ordering.pipeline import DeliveryPipeline
from repro.ordering.plan import OrderingPlan
from repro.routing.arq import ArqSender


def missort_table(table):
    """*table* with its first sending list of two or more entries reversed
    (out of Theorem-1 order: ``d/r`` ties break by distinct neighbour id)."""
    for node, state in table.states.items():
        vias = state.sending_list
        if len(vias) >= 2:
            states = dict(table.states)
            states[node] = dataclasses.replace(state, sending_list=vias[::-1])
            return dataclasses.replace(table, states=states, _orders={})
    return table


def missort_sending_list(monkeypatch):
    """Publish every solved table with a sending list out of Theorem-1 order."""
    publish = DcrdStrategy._publish_table

    def missorted(self, key, table):
        publish(self, key, missort_table(table))

    monkeypatch.setattr(DcrdStrategy, "_publish_table", missorted)


def skip_timer_cancel(monkeypatch):
    """Forget a copy's ACK timer when its ACK arrives: never cancelled,
    never reported, and its late fire finds the copy settled."""
    handle_ack = ArqSender.handle_ack

    def leaky(self, node, sender, ack):
        entry = self._outstanding.get(ack.transfer_id)
        if entry is not None and (entry.src, entry.dst) == (node, sender):
            entry.event = None
        handle_ack(self, node, sender, ack)

    monkeypatch.setattr(ArqSender, "handle_ack", leaky)


def arm_clock_at_enqueue(monkeypatch):
    """Start every ACK clock at hand-over, ignoring the link's wire report:
    after the first transmission (``send``) and after every retransmission.
    Where the ARQ starts the clock itself once the send returns (FIFO links
    with latent timers), it then starts it with no wait, the report unread."""
    send = ArqSender.send
    retransmit = ArqSender._retransmit

    def arm_at_hand_over(self, entry):
        if entry is not None and self.wire_reported and not self._elide_timers:
            self._start_clock(entry, 0.0, None)

    def sent_at_enqueue(self, src, dst, frame, on_failed):
        send(self, src, dst, frame, on_failed)
        arm_at_hand_over(self, self._outstanding.get(frame.transfer_id))

    def resent_at_enqueue(self, entry):
        retransmit(self, entry)
        arm_at_hand_over(self, entry)

    monkeypatch.setattr(ArqSender, "_on_wire", lambda self, frame, wait: None)
    monkeypatch.setattr(ArqSender, "send", sent_at_enqueue)
    monkeypatch.setattr(ArqSender, "_retransmit", resent_at_enqueue)


def _withhold(pipeline, frame):
    """What ``_release`` does before the terminal stage, and nothing more."""
    pipeline._holding.pop(frame.msg_id, None)
    pipeline._released.add(frame.msg_id)


def missort_order_release(monkeypatch):
    """Swap every pair of consecutive ``ready`` releases at each pipeline."""
    release = DeliveryPipeline._release
    stash = {}

    def swapped(self, frame, tag, reason):
        if reason != "ready":
            return release(self, frame, tag, reason)
        held = stash.pop(self, None)
        if held is None:
            _withhold(self, frame)
            stash[self] = (frame, tag)
            return
        release(self, frame, tag, reason)
        release(self, *held, "ready")

    monkeypatch.setattr(DeliveryPipeline, "_release", swapped)


def drop_order_release(monkeypatch):
    """Swallow the second ``ready`` release of whichever stream repeats
    first at one pipeline, and its pending duplicates (a first release
    would be an invisible drop: the checks adopt it as the baseline)."""
    release = DeliveryPipeline._release
    seen = set()
    dropped = []

    def dropping(self, frame, tag, reason):
        if reason == "ready" and not dropped:
            stream = (self, frame.topic, tag.origin)
            if stream in seen:
                dropped.append(frame)
                _withhold(self, frame)
                self._dup_pending.pop(frame.msg_id, None)
                return
            seen.add(stream)
        release(self, frame, tag, reason)

    monkeypatch.setattr(DeliveryPipeline, "_release", dropping)


def logical_only_stamp(monkeypatch):
    """Stamp ``total`` keys from the logical counter alone, never the clock."""
    stamp = OrderingPlan.stamp

    def logical_only(self, frame):
        view = copy.copy(frame)
        view.publish_time = 0.0
        return stamp(self, view)

    monkeypatch.setattr(OrderingPlan, "stamp", logical_only)
