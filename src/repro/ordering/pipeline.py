"""Hold-back delivery pipelines: the stage between dedup and the app.

:class:`~repro.pubsub.broker.BrokerRuntime` owns at most one pipeline
per node. With ordering off the broker keeps its historical inlined
delivery block (one ``is None`` check — the zero-cost passthrough the
fingerprint matrix pins); with ordering on, every post-dedup locally
deliverable frame is *offered* here instead, and the pipeline decides
when the terminal stage (:meth:`BrokerRuntime.deliver_frame`) runs.

Three guarantees, all hold-back based:

* :class:`FifoPipeline` — per-``(topic, publisher)`` sequence hold-back.
* :class:`CausalPipeline` — dynamic vector clocks over publication
  streams; unknown streams are waived (join/leave semantics, see
  docs/ORDERING.md) so the guarantee composes with churn.
* :class:`TotalOrderPipeline` — EpTO-style agreement: frames sort by a
  ``(ts, origin, seq)`` key whose ``ts`` follows the publish time, and a
  frame releases once ``key time + W`` has passed, ``W`` being this
  subscriber's own measured bound on publish-to-arrival transit — by
  which point every smaller-keyed frame has arrived (genuinely late
  stragglers are stall-released out of band).

Every release is observable (probe families ``order_hold`` /
``order_release`` / ``order_stall``) and carries a *reason*:

* ``ready`` — the guarantee's deliverability rule held; only these
  releases are invariant-checked by the sanitizer.
* ``stall`` — the watchdog skipped a gap (or a straggler arrived after
  its slot); the sanitizer re-baselines instead of flagging.
* ``flush`` — end-of-run drain of whatever is still held.

:meth:`DeliveryPipeline._release` is the one place a frame leaves a
pipeline; the ordering mutation tests corrupt the release stream by
patching it from outside (``tests/mutations.py``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro import probes as _probes
from repro.ordering.spec import OrderingSpec
from repro.ordering.tags import OrderTag, Stream
from repro.pubsub.messages import PacketFrame
from repro.util.generations import Generations
from repro.util.rtt import RttEstimate, jacobson_update

#: Slack when comparing held durations against the stall timeout, so a
#: timer firing exactly on schedule counts its own frame as overdue.
_STALL_EPSILON = 1e-9


class DeliveryPipeline:
    """Base stage: passthrough plus the shared hold/release machinery.

    The base class itself is the zero-guarantee passthrough (every offer
    goes straight to the terminal stage); subclasses override
    :meth:`_offer_tagged` with a deliverability rule and use
    :meth:`_hold` / :meth:`_release` for the bookkeeping, probes, and
    duplicate handling.
    """

    level = "passthrough"

    def __init__(self, broker, plan) -> None:
        self._broker = broker
        self._plan = plan
        self._spec: OrderingSpec = plan.spec
        self._node: int = broker.node
        # The broker's hot-bound clock: ``_now`` reads on both substrates
        # (sim kernel attribute, WallClock property alias).
        self._clock = broker._sim
        self._stall_timeout: float = plan.stall_timeout
        # msg_id -> held-since time, for every frame currently buffered.
        self._holding: Dict[int, float] = {}
        # msg_ids whose primary copy already reached the terminal stage,
        # kept one message horizon past their release (bound_horizon;
        # for the whole run until the plan hands one over).
        self._released = Generations()
        # Duplicate copies (distinct transfer ids, e.g. multipath) that
        # arrived while the primary was held: delivered right after it,
        # preserving the substrate-conformant duplicate counts.
        self._dup_pending: Dict[int, List[PacketFrame]] = {}
        self._closed = False
        self.offers = 0
        self.releases = 0
        self.stall_releases = 0
        #: Seconds frames spent buffered here, by what ended the hold.
        self.held_s: Dict[str, float] = {"ready": 0.0, "stall": 0.0, "flush": 0.0}
        #: Transit samples behind :meth:`window` (``total`` level only).
        self.window_samples = 0

    # ------------------------------------------------------------------
    def offer(self, frame: PacketFrame) -> None:
        """A post-dedup, locally deliverable frame enters the pipeline."""
        self.offers += 1
        tag = frame.order_tag
        if tag is None or not self._spec.covers(frame.topic):
            # Untagged or an uncovered topic: the guarantee does not
            # apply.
            self._broker.deliver_frame(frame)
            return
        msg_id = frame.msg_id
        released = self._released
        if msg_id in released.current or msg_id in released.older:
            # A late duplicate copy of an already-released message: the
            # terminal stage counts it as the duplicate it is.
            self._broker.deliver_frame(frame)
            return
        if msg_id in self._holding:
            self._dup_pending.setdefault(msg_id, []).append(frame)
            return
        self._offer_tagged(frame, tag)

    def _offer_tagged(self, frame: PacketFrame, tag: OrderTag) -> None:
        self._release(frame, tag, "ready")

    # ------------------------------------------------------------------
    def _hold(self, frame: PacketFrame, tag: OrderTag) -> float:
        """Buffer *frame*; returns the hold timestamp."""
        now = self._clock._now
        self._holding[frame.msg_id] = now
        probe = _probes.on_order_hold
        if probe is not None:
            probe(now, self._node, frame, self.level)
        return now

    def _release(self, frame: PacketFrame, tag: OrderTag, reason: str) -> None:
        """Run the terminal stage for *frame*."""
        msg_id = frame.msg_id
        held_since = self._holding.pop(msg_id, None)
        now = self._clock._now
        released = self._released
        if now >= released.retire_at:
            released.at(now)  # retires the current generation
        released.current.add(msg_id)
        self.releases += 1
        if reason == "stall":
            self.stall_releases += 1
            stall_probe = _probes.on_order_stall
            if stall_probe is not None:
                stall_probe(now, self._node, self.level, {"msg": msg_id})
        if held_since is None:
            held_for = 0.0
        else:
            held_for = now - held_since
            self.held_s[reason] += held_for
        probe = _probes.on_order_release
        if probe is not None:
            probe(now, self._node, frame, self.level, reason, held_for)
        self._plan.note_delivery(self._node, frame, tag)
        self._broker.deliver_frame(frame)
        dups = self._dup_pending.pop(msg_id, None)
        if dups:
            for dup in dups:
                self._broker.deliver_frame(dup)

    # ------------------------------------------------------------------
    def bound_horizon(self, horizon: float) -> None:
        """Keep a released id *horizon* seconds, not longer.

        *horizon* is the run's message horizon: no copy of a message
        reaches a broker later than that after its publish, and a
        message is released here after its publish, so a late duplicate
        comes within one horizon of the release and still finds its id.
        ``math.inf`` keeps every id for the whole run.
        """
        self._released.bound(horizon, self._clock._now)

    def held_count(self) -> int:
        """Frames currently buffered (the cluster quiescence signal)."""
        return len(self._holding)

    def window(self) -> Optional[float]:
        """The agreement window in force, if this level has one."""
        return None

    def flush(self) -> None:
        """End-of-run drain: release everything still held."""

    def close(self) -> None:
        """Disarm the pipeline; late timer callbacks become no-ops."""
        self._closed = True


PassthroughPipeline = DeliveryPipeline


class _FifoStream:
    """Per-``(topic, publisher)`` hold-back state for the FIFO level."""

    __slots__ = ("next", "heap", "timer_armed")

    def __init__(self) -> None:
        self.next: Optional[int] = None
        # Entries: (seq, msg_id, frame, tag, held_since).
        self.heap: List[Tuple[int, int, PacketFrame, OrderTag, float]] = []
        self.timer_armed = False


class FifoPipeline(DeliveryPipeline):
    """Per-publisher order: release in publisher sequence per stream.

    The first frame seen on a stream adopts its sequence as the baseline
    (a subscriber that joins mid-stream must not wait for history it
    will never get); after that, frame *n+1* releases only after frame
    *n*. Gaps are buffered until the stall watchdog skips past them.
    """

    level = "fifo"

    def __init__(self, broker, plan) -> None:
        super().__init__(broker, plan)
        self._streams: Dict[Stream, _FifoStream] = {}

    def _offer_tagged(self, frame: PacketFrame, tag: OrderTag) -> None:
        stream = (frame.topic, tag.origin)
        state = self._streams.get(stream)
        if state is None:
            state = _FifoStream()
            self._streams[stream] = state
        if state.next is None:
            # First frame of the stream at this node: baseline adoption.
            state.next = tag.seq + 1
            self._release(frame, tag, "ready")
            self._drain(state)
            return
        if tag.seq == state.next:
            state.next = tag.seq + 1
            self._release(frame, tag, "ready")
            self._drain(state)
            return
        if tag.seq < state.next:
            # Straggler from before a baseline/stall skip: out of order
            # by construction, so it releases outside the checked flow.
            self._release(frame, tag, "stall")
            return
        held_since = self._hold(frame, tag)
        heapq.heappush(
            state.heap, (tag.seq, frame.msg_id, frame, tag, held_since)
        )
        self._arm(stream, state)

    def _drain(self, state: _FifoStream) -> None:
        heap = state.heap
        while heap and heap[0][0] <= state.next:
            seq, _, frame, tag, _held = heapq.heappop(heap)
            if seq == state.next:
                state.next = seq + 1
                self._release(frame, tag, "ready")
            else:
                self._release(frame, tag, "stall")

    def _arm(self, stream: Stream, state: _FifoStream) -> None:
        if state.timer_armed or not state.heap:
            return
        now = self._clock._now
        delay = max(0.0, state.heap[0][4] + self._stall_timeout - now)
        state.timer_armed = True
        self._clock.schedule(delay, self._stall_fire, stream)

    def _stall_fire(self, stream: Stream) -> None:
        if self._closed:
            return
        state = self._streams.get(stream)
        if state is None:
            return
        state.timer_armed = False
        heap = state.heap
        now = self._clock._now
        timeout = self._stall_timeout
        while heap and now - heap[0][4] + _STALL_EPSILON >= timeout:
            seq, _, frame, tag, _held = heapq.heappop(heap)
            if state.next is not None and seq == state.next:
                state.next = seq + 1
                self._release(frame, tag, "ready")
            else:
                # Skip the gap: the missing frames are declared lost to
                # this node; the sanitizer re-baselines on the stall.
                state.next = seq + 1
                self._release(frame, tag, "stall")
            self._drain(state)
        self._arm(stream, state)

    def flush(self) -> None:
        for state in self._streams.values():
            heap = state.heap
            while heap:
                seq, _, frame, tag, _held = heapq.heappop(heap)
                state.next = seq + 1
                self._release(frame, tag, "flush")


class CausalPipeline(DeliveryPipeline):
    """Causal order via dynamic per-stream vector clocks.

    A frame is deliverable when (a) it is the next in sequence on its
    own publication stream — or the first frame of a stream this node
    has ever seen, which adopts the baseline — and (b) every dependency
    in its vector clock on a stream this node *knows* has already been
    delivered. Dependencies on unknown streams are waived: that is the
    dynamic-join semantics that keeps late joiners and churned topics
    from stalling forever (docs/ORDERING.md discusses the weakening).
    """

    level = "causal"

    def __init__(self, broker, plan) -> None:
        super().__init__(broker, plan)
        # Last delivered sequence per known stream at this node.
        self._delivered: Dict[Stream, int] = {}
        # Held entries: (held_since, msg_id, frame, tag).
        self._pending: List[Tuple[float, int, PacketFrame, OrderTag]] = []
        self._timer_armed = False

    def _classify(self, frame: PacketFrame, tag: OrderTag) -> str:
        own = (frame.topic, tag.origin)
        delivered = self._delivered
        have = delivered.get(own)
        if have is not None:
            if tag.seq <= have:
                return "late"
            if tag.seq != have + 1:
                return "hold"
        vc = tag.vc
        if vc:
            for stream, need in vc.items():
                if stream == own:
                    continue
                seen = delivered.get(stream)
                if seen is None:
                    continue
                if seen < need:
                    return "hold"
        return "ready"

    def _note_released(self, frame: PacketFrame, tag: OrderTag) -> None:
        own = (frame.topic, tag.origin)
        have = self._delivered.get(own)
        if have is None or tag.seq > have:
            self._delivered[own] = tag.seq

    def _offer_tagged(self, frame: PacketFrame, tag: OrderTag) -> None:
        verdict = self._classify(frame, tag)
        if verdict == "ready":
            self._note_released(frame, tag)
            self._release(frame, tag, "ready")
            self._cascade()
            return
        if verdict == "late":
            self._release(frame, tag, "stall")
            return
        held_since = self._hold(frame, tag)
        self._pending.append((held_since, frame.msg_id, frame, tag))
        self._arm()

    def _cascade(self) -> None:
        """Release newly deliverable held frames until a fixpoint."""
        progressed = True
        while progressed and self._pending:
            progressed = False
            for index, (_, _, frame, tag) in enumerate(self._pending):
                verdict = self._classify(frame, tag)
                if verdict == "ready":
                    del self._pending[index]
                    self._note_released(frame, tag)
                    self._release(frame, tag, "ready")
                    progressed = True
                    break
                if verdict == "late":
                    del self._pending[index]
                    self._release(frame, tag, "stall")
                    progressed = True
                    break

    def _arm(self) -> None:
        if self._timer_armed or not self._pending:
            return
        now = self._clock._now
        oldest = min(entry[0] for entry in self._pending)
        delay = max(0.0, oldest + self._stall_timeout - now)
        self._timer_armed = True
        self._clock.schedule(delay, self._stall_fire)

    def _stall_fire(self) -> None:
        if self._closed:
            return
        self._timer_armed = False
        now = self._clock._now
        timeout = self._stall_timeout
        while self._pending:
            overdue = [
                entry
                for entry in self._pending
                if now - entry[0] + _STALL_EPSILON >= timeout
            ]
            if not overdue:
                break
            # Force the oldest overdue frame through (deterministic tie
            # break on msg_id), then let the cascade pick up the rest.
            victim = min(overdue, key=lambda entry: (entry[0], entry[1]))
            self._pending.remove(victim)
            _, _, frame, tag = victim
            self._note_released(frame, tag)
            self._release(frame, tag, "stall")
            self._cascade()
        self._arm()

    def flush(self) -> None:
        for _, _, frame, tag in sorted(
            self._pending, key=lambda entry: (entry[0], entry[1])
        ):
            self._note_released(frame, tag)
            self._release(frame, tag, "flush")
        self._pending.clear()


class TotalOrderPipeline(DeliveryPipeline):
    """Total order: one agreed delivery sequence per topic set.

    EpTO's structure without the epidemic relay (DCRD's reliable overlay
    already disseminates every frame), ordered by its global-clock
    timestamp: each frame carries a globally comparable
    ``(ts, origin, seq)`` key whose ``ts`` is a hybrid logical clock in
    microseconds, so the key also says when the frame was published —
    its *key time*, ``ts * 1e-6``. A subscriber releases in key order,
    each frame once ``key time + W`` has passed.

    ``W`` is the plan's explicit ``total_hold`` when one is given;
    otherwise it is measured: this subscriber's Jacobson/Karn bound
    ``srtt + 4 * rttvar`` on publish-to-arrival transit
    (:mod:`repro.util.rtt`), sampled once per message on its first offer
    here, capped by the plan's ``stall_timeout`` and frozen per frame at
    offer time. A frame therefore waits exactly the spread this node
    sees between its fastest and slowest publisher, and by the time it
    is due any smaller key has arrived — unless that one is later than
    everything measured so far *and* a larger key was released
    meanwhile, in which case it is stall-released: a hole in the agreed
    order, never an inversion of it. Subscribers with different ``W``
    still release their common frames in the same (key) order.

    Transit is ``now - key time`` on the substrate's one clock (the
    kernel's ``now``; the fleet's epoch-pinned wall clock), floored at
    zero. A constant skew between a publisher's host and this one only
    shifts ``srtt`` by that constant; skew that *varies* reads as
    ``rttvar`` and widens the window.
    """

    level = "total"

    #: Key type: (hybrid-clock microseconds, origin node, per-stream sequence).
    Key = Tuple[int, int, int]

    def __init__(self, broker, plan) -> None:
        super().__init__(broker, plan)
        self._measured = plan.total_hold is None
        # The window in force: measured (``None`` until the first
        # sample) or given; never above the stall timeout.
        self._window: Optional[float] = (
            None if self._measured else min(plan.total_hold, self._stall_timeout)
        )
        self._transit: Optional[RttEstimate] = None
        # Entries: (key, due, frame, tag, held_since); keys are unique,
        # so nothing past the key is ever compared.
        self._heap: List[
            Tuple["TotalOrderPipeline.Key", float, PacketFrame, OrderTag, float]
        ] = []
        self._last_key: Optional["TotalOrderPipeline.Key"] = None
        # The one pending timer and the due time it was armed for.
        self._timer = None
        self._timer_due = 0.0

    def window(self) -> Optional[float]:
        return self._window

    def _offer_tagged(self, frame: PacketFrame, tag: OrderTag) -> None:
        now = self._clock._now
        key_time = tag.ts * 1e-6
        window = self._window
        if self._measured:
            transit = now - key_time
            self._transit = estimate = jacobson_update(
                self._transit, transit if transit > 0.0 else 0.0
            )
            self.window_samples += 1
            window = estimate.bound()
            if window > self._stall_timeout:
                window = self._stall_timeout
            self._window = window
        key = (tag.ts, tag.origin, tag.seq)
        if self._last_key is not None and key <= self._last_key:
            # Missed its agreement window: delivering it now in sequence
            # is impossible, so it leaves the agreed order explicitly.
            self._release(frame, tag, "stall")
            return
        due = key_time + window
        heap = self._heap
        if due <= now and (not heap or key < heap[0][0]):
            # Already due on arrival. (Nothing smaller can still be
            # waiting — a frame is only this late under the largest
            # window there is — but the agreed order does not rest on
            # that argument.)
            self._last_key = key
            self._release(frame, tag, "ready")
            return
        held_since = self._hold(frame, tag)
        heapq.heappush(heap, (key, due, frame, tag, held_since))
        if heap[0][2] is frame:
            self._arm(due)

    def _arm(self, due: float) -> None:
        """Keep one timer pending, for the heap top's (frozen) due time."""
        timer = self._timer
        if timer is not None:
            if self._timer_due <= due:
                return
            timer.cancel()
        self._timer_due = due
        delay = due - self._clock._now
        self._timer = self._clock.schedule(
            delay if delay > 0.0 else 0.0, self._round_fire
        )

    def _round_fire(self) -> None:
        if self._closed:
            return
        self._timer = None
        heap = self._heap
        horizon = self._clock._now + _STALL_EPSILON
        while heap and heap[0][1] <= horizon:
            key, _due, frame, tag, _held = heapq.heappop(heap)
            self._last_key = key
            self._release(frame, tag, "ready")
        if heap:
            self._arm(heap[0][1])

    def flush(self) -> None:
        heap = self._heap
        while heap:
            key, _due, frame, tag, _held = heapq.heappop(heap)
            self._last_key = key
            self._release(frame, tag, "flush")


#: Level name -> pipeline class, for :meth:`OrderingPlan.pipeline_for`.
PIPELINES = {
    FifoPipeline.level: FifoPipeline,
    CausalPipeline.level: CausalPipeline,
    TotalOrderPipeline.level: TotalOrderPipeline,
}
