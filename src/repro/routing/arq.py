"""Hop-by-hop ARQ: send one frame copy to a neighbour, retrying up to ``m``.

DCRD and the tree/multipath baselines all use the same per-link mechanism
(§III, §IV-D7): transmit, wait ``ack_timeout`` for the hop-by-hop ACK,
retransmit on silence, and after ``m`` unacknowledged transmissions declare
the link attempt failed. What differs between schemes is only the *reaction*
to failure, expressed here as a callback: an ACK only releases the sender's
state for the copy ("brokers hold no per-packet state after the ACK", §III),
so no strategy hears of it.

:class:`ArqSender` is shared by all brokers of a run (transfer ids are
unique within a run, so one table suffices) and tracks every outstanding
copy.

**The ACK clock starts at the wire.** A copy handed to the network may sit
in its sender's own output queue (finite-capacity links) before its last
bit leaves; silence only means loss once the copy has left. So a copy's
deadline is always *wire-clear instant + timeout*. On a transport where no
copy ever waits (``watch_wire`` returns ``False``: infinite-capacity and
live links) that instant is the hand-over; on the others the link reports
it — FIFO from inside the send, as the send's last step, the EDF server
when it picks the copy — and a copy the sender's own queue discards is
failed on the spot, with no timeout and no retransmission into the queue
that just discarded it. :meth:`ArqSender._start_clock` is the one place a
deadline is computed.

**There is one timeout rule**, the paper's static timer:
``params.ack_timeout(alpha)`` — ``factor * alpha`` plus slack — from the
link monitor's propagation-delay estimate of the direction. It is a pure
function of that estimate, so the sender memoises it per direction until
``monitor.version`` moves.

This module sits on the data-plane hot path: every copy sent needs an
ACK timeout, and in healthy networks nearly every copy is settled by its
ACK a propagation round-trip later. On the calendar kernel the common case
therefore costs no heap entry at all (:meth:`ArqSender.enable_timer_elision`),
on infinite-capacity links and on FIFO links alike — a FIFO copy's wait is
known at hand-over, so its deadline and its ACK's arrival are too:

* *latent timeouts* — a copy whose ACK provably arrives first only reserves
  its timeout's ``(time, seq)``; the timer is pushed with that key only if
  the ACK is lost;
* *ACKs settled at send* — when the receiver sends the ACK of such a copy
  and the network reports it arriving at ``T``, nothing can observe the
  copy before ``T``: the sender settles it there and then, with the
  bookkeeping :meth:`ArqSender.handle_ack` runs, and the kernel counts the
  arrival as an executed event (:meth:`~repro.sim.engine.Simulator.settle`).

Both keep the eager path's event schedule, executed-event count and ARQ
counters. The sender also memoises each direction's transmit constants
(:attr:`ArqSender._dir_info`) until the link monitor publishes new
estimates.

The sender runs unchanged on both substrates (see :mod:`repro.substrate`):
every timeout, eager or materialised from a latent one, is armed through
the clock's one absolute-time push, ``clock.push(time, seq, ...)``, with
a ``seq`` drawn from the clock's counter when the copy's clock started;
the returned :class:`~repro.sim.engine.Event` is the cancellation handle
on the kernel and on the live wall clock alike. Latent timeouts and ACKs
settled at send need what only the simulated substrate has — a
transport's exact ``ack_round_trip`` and
:meth:`~repro.sim.engine.Simulator.settle` — so on the live substrate,
whose transport answers ``None``, every timer is eager; so is it on EDF
links, whose server picks a copy's wait after the send.

Timer starts, cancels and fires are reported on the ``timer_*`` probe
families and nothing else: this module reads no test flag, and an
observer on any of those families (the sanitizer's settlement checks)
keeps every timer eager, and an ``ack`` observer (the tracer) keeps every
ACK arrival queued.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro import probes as _probes
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.routing.base import RuntimeContext
from repro.sim.engine import Event


class _Outstanding:
    """One unacknowledged frame copy and its retry state.

    ``latent_seq >= 0`` marks a *latent* timeout: the kernel sequence
    number and deadline were reserved at transmit time, but no heap entry
    exists yet — it is pushed (with the reserved ``(time, seq)`` key, so
    the schedule is unchanged) only if the copy's ACK is lost.
    """

    __slots__ = (
        "src",
        "dst",
        "frame",
        "attempts",
        "event",
        "on_failed",
        "sent_at",
        "latent_time",
        "latent_seq",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        frame: PacketFrame,
        on_failed: Callable[[PacketFrame, int], None],
    ) -> None:
        self.src = src
        self.dst = dst
        self.frame = frame
        # ArqSender.send makes the first transmission as it creates the entry.
        self.attempts = 1
        self.event: Optional[Event] = None
        self.on_failed = on_failed
        self.sent_at = 0.0
        self.latent_time = 0.0
        self.latent_seq = -1


class ArqSender:
    """Reliable-ish single-hop delivery with an ``m``-transmission budget."""

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx
        # Hot-path bindings (one attribute hop instead of two per send/ACK).
        # The retry budget is fixed at construction.
        self._sim = ctx.sim
        self._network = ctx.network
        self._send_data = ctx.network.send_data
        self._m = ctx.params.m
        self._outstanding: Dict[int, _Outstanding] = {}
        #: Whether the transport reports when each copy clears the wire
        #: (finite-capacity links); the ACK clock then starts in _on_wire,
        #: or, on FIFO links with elision, once send_data returns.
        self.wire_reported = ctx.network.watch_wire(self._on_wire)
        # The wait the FIFO report inside the current send told _on_wire.
        self._handover_wait = 0.0
        # Latent-timer elision (opt-in, see enable_timer_elision).
        self._elide_timers = False
        # The one per-direction memo: packed direction id (src << 21 | dst,
        # the overlay's interning) -> (timeout, rt_pair). ``rt_pair`` is
        # the exact (d_fwd, d_rev) delay pair when both the copy and its
        # ACK reply run compiled fast-path deliveries, else None. Cleared
        # when the monitor publishes new estimates.
        self._monitor = ctx.monitor
        self._dir_info: Dict[int, tuple] = {}
        self._dir_version = -1
        self.acked = 0
        self.failed = 0
        self.retransmissions = 0
        self.ack_timeouts = 0
        #: Total seconds copies spent at their sender — queued, then
        #: serialising — before their ACK clock started.
        self.wire_wait_s = 0.0
        #: ACK-timeout events cancelled because the ACK arrived first (each
        #: one leaves a tombstone for the kernel's heap compaction to reap —
        #: latent timers settled by their ACK count here too, for parity).
        self.timers_cancelled = 0
        #: Timeouts that stayed latent: their (time, seq) was reserved but
        #: no heap entry was ever pushed because the ACK settled the copy.
        self.timers_elided = 0
        #: Copies settled when their ACK was sent: the ACK's arrival never
        #: became a heap entry (the kernel counted it as executed).
        self.acks_settled_at_send = 0

    def enable_timer_elision(self) -> None:
        """Opt in to latent ACK timeouts and ACKs settled at send.

        Called by the composition root only, and only where the transport
        states every direction's round trip in advance
        (``ack_round_trip``): elsewhere no timer can be latent. Elision
        assumes the receiving side ACKs every delivered DATA frame
        synchronously on arrival —
        true when every node hosts a
        :class:`~repro.pubsub.broker.BrokerRuntime` and the active strategy
        has ``uses_acks`` — and that handler attachments are stable for the
        rest of the run. Unit harnesses that drive ACKs by hand must stay
        on the default eager timers.

        A copy's timeout is elided only when its send reports a definite
        *delivered* outcome and the ACK's arrival event provably precedes
        the timeout deadline (exact float comparison against the round-trip
        schedule); the reserved kernel sequence number keeps the event
        schedule bit-identical either way. The network's ACK-fate hook
        reports each ACK sent for such a copy: a lost one materialises the
        timer; one that arrives is settled at send when nothing could
        tell (:meth:`_on_ack_fate`).

        On FIFO finite-capacity links the copy's wait is known at
        hand-over: the link reports it from inside ``send_data``, as the
        send's last step, and schedules the copy's compiled delivery at
        ``now + (wait + d_fwd)``. With elision on, :meth:`_on_wire` then
        only notes the wait, and :meth:`send` / :meth:`_retransmit` start
        the clock once ``send_data`` returns — drawing the timeout's
        ``seq`` where the report would have — so the copy may be latent
        like an unqueued one. An EDF server picks a copy's wait later, so
        EDF links state no round trip and keep eager timers; nor does a
        transport that cannot tell the round trip, such as the live one,
        so only the simulated links over a
        :class:`~repro.sim.engine.Simulator` ever reach ``settle``.
        """
        self._network.register_ack_fate_hook(self._on_ack_fate)
        self._elide_timers = True
        self._dir_info.clear()  # entries memoised so far carry no rt_pair

    def _on_ack_fate(
        self, src: int, dst: int, ack: AckFrame, arrival: Optional[float]
    ) -> bool:
        """The network's report on an ACK ``src -> dst`` it just sent.

        Only a copy with a latent timeout is concerned. A lost ACK
        (*arrival* ``None``) materialises that timeout with its reserved
        key. An ACK arriving at *arrival* settles the copy now, as
        :meth:`handle_ack` would then — the latent timer already proves
        the arrival precedes the deadline, and the copy's entry is touched
        by nothing else meanwhile — provided no ``ack`` observer waits to
        see the arrival and the kernel counts it as executed in this run.
        Returns whether the copy was settled.
        """
        entry = self._outstanding.get(ack.transfer_id)
        if entry is None or entry.latent_seq < 0:
            return False
        if entry.src != dst or entry.dst != src:
            return False
        if arrival is not None:
            if _probes.on_ack is not None or not self._sim.settle(arrival):
                return False
            # _settle's bookkeeping, for a latent timeout: nothing was
            # pushed, so nothing is cancelled (counted as cancelled all
            # the same, like every latent timeout its ACK settles).
            del self._outstanding[ack.transfer_id]
            self.timers_cancelled += 1
            self.acked += 1
            self.acks_settled_at_send += 1
            return True
        entry.event = self._sim.push(
            entry.latent_time, entry.latent_seq, self._on_timeout, (entry,)
        )
        entry.latent_seq = -1
        return False

    @property
    def in_flight(self) -> int:
        """Number of copies currently awaiting an ACK."""
        return len(self._outstanding)

    def send(
        self,
        src: int,
        dst: int,
        frame: PacketFrame,
        on_failed: Callable[[PacketFrame, int], None],
    ) -> None:
        """Transmit *frame* from *src* to the adjacent *dst* with ARQ.

        ``on_failed(frame, dst)`` fires after ``m`` transmissions went
        unacknowledged (or the sender's own queue discarded the copy). An
        ACK settles the copy silently: the neighbour took responsibility.
        """
        entry = _Outstanding(src, dst, frame, on_failed)
        self._outstanding[frame.transfer_id] = entry
        if self.wire_reported:
            # The link reports when the copy clears the wire, and _on_wire
            # measures the wait from this hand-over and starts the clock —
            # except with elision on (FIFO links): there the report came
            # from inside this send, and the clock starts here.
            entry.sent_at = self._sim._now
            outcome = self._send_data(src, dst, frame)
            if self._elide_timers:
                self._start_clock(entry, self._handover_wait, outcome)
        else:
            self._start_clock(entry, 0.0, self._send_data(src, dst, frame))

    def handle_ack(self, node: int, sender: int, ack: AckFrame) -> None:
        """Process an ACK received at *node*; unknown/duplicate ACKs are ignored."""
        entry = self._outstanding.get(ack.transfer_id)
        if entry is None or entry.src != node or entry.dst != sender:
            return
        self._settle(entry)
        probe = _probes.on_ack
        if probe is not None:
            probe(self._sim._now, node, sender, entry.frame)

    def _settle(self, entry: _Outstanding) -> None:
        """Release an acknowledged copy: the bookkeeping of every ACK that
        arrives (:meth:`_on_ack_fate` does the latent-timeout part of it
        for an ACK it settles at send)."""
        del self._outstanding[entry.frame.transfer_id]
        event = entry.event
        if event is not None:
            probe = _probes.on_timer_cancelled
            if probe is not None:
                probe(event.seq)
            event.cancel()
            self.timers_cancelled += 1
        elif entry.latent_seq >= 0:
            # Latent timeout settled by its ACK: nothing to cancel — the
            # timer was never pushed. Count it as a cancellation so the
            # ARQ counters read the same with elision on or off.
            self.timers_cancelled += 1
        self.acked += 1

    # ------------------------------------------------------------------
    def _retransmit(self, entry: _Outstanding) -> None:
        """Hand the copy to the network once more, as :meth:`send` did first."""
        entry.attempts += 1
        self.retransmissions += 1
        if self.wire_reported:
            entry.sent_at = self._sim._now
            outcome = self._send_data(entry.src, entry.dst, entry.frame)
            if self._elide_timers:
                self._start_clock(entry, self._handover_wait, outcome)
        else:
            self._start_clock(
                entry, 0.0, self._send_data(entry.src, entry.dst, entry.frame)
            )

    def _on_wire(self, frame: PacketFrame, wait: Optional[float]) -> None:
        """The link's report on a copy handed to it (see ``watch_wire``).

        With elision on, the links are FIFO (EDF links state no round
        trip): the report is the last step of the copy's own send, which
        starts the clock with this wait once ``send_data`` returns.
        """
        entry = self._outstanding.get(frame.transfer_id)
        if entry is None:
            return
        if wait is None:
            # Discarded by its own sender's queue: not a timeout (no
            # probe, no retransmission into that queue) — the hop failed.
            self._fail(entry)
            return
        self.wire_wait_s += (self._sim._now + wait) - entry.sent_at
        if self._elide_timers:
            self._handover_wait = wait
            return
        self._start_clock(entry, wait, None)

    def _start_clock(
        self, entry: _Outstanding, wait: float, outcome: Optional[bool]
    ) -> None:
        """Arm the ACK timeout of the copy just handed to the network.

        The clock starts when the copy's last bit leaves its sender,
        *wait* seconds from now (0.0 where copies never wait — adding it
        leaves every float of that schedule unchanged) and runs for the
        direction's static timeout. *outcome* is ``send_data``'s tri-state:
        ``True`` means the copy's compiled delivery runs at
        ``now + (wait + d_fwd)``.
        """
        sim = self._sim
        # Timeout and exact round-trip delay pair in one dict probe,
        # refreshed when the monitor version moves (the timeout is a pure
        # function of the current alpha estimate).
        monitor = self._monitor
        if monitor.version != self._dir_version:
            self._dir_info.clear()
            self._dir_version = monitor.version
        key = (entry.src << 21) | entry.dst
        info = self._dir_info.get(key)
        if info is None:
            src = entry.src
            dst = entry.dst
            info = (
                self.ctx.params.ack_timeout(monitor.estimate(src, dst).alpha),
                self._network.ack_round_trip(src, dst)
                if self._elide_timers
                else None,
            )
            self._dir_info[key] = info
        delay, pair = info
        time = (sim._now + wait) + delay
        seq = next(sim._seq)
        if (
            outcome
            and pair is not None
            # The copy will reach the receiver; its ACK either arrives
            # (settling the entry before the deadline) or is lost, which
            # the network reports synchronously via _on_ack_fate.
            # The exact float comparison below proves the unlossed ACK's
            # arrival event — scheduled at (now + (wait + d_fwd)) + d_rev
            # with a later seq — pops strictly before the (time, seq)
            # deadline, so keeping the timer latent cannot change the
            # schedule. With wait 0.0, wait + d_fwd is d_fwd exactly.
            and (sim._now + (wait + pair[0])) + pair[1] < time
            and _probes.on_timer_started is None
            and _probes.on_timer_cancelled is None
            and _probes.on_timer_fired is None
        ):
            entry.event = None
            entry.latent_time = time
            entry.latent_seq = seq
            self.timers_elided += 1
            return
        entry.latent_seq = -1
        entry.event = sim.push(time, seq, self._on_timeout, (entry,))
        probe = _probes.on_timer_started
        if probe is not None:
            probe(seq, time, entry.frame)

    def _on_timeout(self, entry: _Outstanding) -> None:
        if entry.frame.transfer_id not in self._outstanding:
            return
        probe = _probes.on_timer_fired
        if probe is not None:
            # After the outstanding check on purpose: a fire that finds its
            # transfer already settled must NOT count as the settlement
            # (that is exactly how a leaked cancel shows up as an orphan).
            probe(entry.event.seq)
        # Spent: a retransmission may wait in the queue with no timer, and
        # an ACK arriving meanwhile must find nothing to cancel.
        entry.event = None
        self.ack_timeouts += 1
        probe = _probes.on_ack_timeout
        if probe is not None:
            probe(
                self._sim._now,
                entry.src,
                entry.dst,
                entry.frame,
                entry.attempts,
                entry.attempts < self._m,
            )
        if entry.attempts < self._m:
            self._retransmit(entry)
            return
        self._fail(entry)

    def _fail(self, entry: _Outstanding) -> None:
        del self._outstanding[entry.frame.transfer_id]
        self.failed += 1
        entry.on_failed(entry.frame, entry.dst)

