"""The substrate contract: what the broker stack needs from its host.

The DCRD protocol logic — :class:`~repro.pubsub.broker.BrokerRuntime`,
:class:`~repro.routing.arq.ArqSender`, the forwarding state machines in
:mod:`repro.core.forwarding` — is specified independently of *where* it
runs. This module names the two seams that make that true:

* :class:`Clock` — a source of time plus cancellable timers: ``now``
  (and the ``_now`` attribute, below), ``schedule``, ``schedule_fire``
  and ``push``. Both implementations keep their timers in the one
  calendar of :mod:`repro.sim.engine`: the discrete-event kernel
  (:class:`~repro.sim.engine.Simulator`) advances virtual time by popping
  it; the live runtime (:class:`~repro.live.clock.WallClock`) reads the
  asyncio event loop's wall clock and drains it from one loop timer.
* :class:`Transport` — frame delivery between adjacent brokers:
  ``attach``/``detach`` of each node's one frame handler, one send per
  frame kind — ``send_data`` carries every DATA copy, ``send_ack`` every
  ACK reply — and ``watch_wire``, through which a transport
  whose links have finite capacity tells a sender when each DATA copy's
  last bit leaves it — the instant the sender's ACK clock starts — and
  the members behind the simulator's fast paths, which the live
  transport answers trivially. There is one link model: the simulated
  data plane (:class:`~repro.overlay.links.OverlayNetwork`) decides each
  send's hazards (faults, link failures, loss, node crashes) and
  delivers the survivors one link delay later from its calendar; the
  live transport (:class:`~repro.live.transport.LiveTransport`) is that
  network with a different last step — the delivery writes a
  length-prefixed frame to an asyncio TCP socket, and the receiver's
  read hands it to the same delivery code.

Every member the stack uses is in the contract, and the stack calls each
one directly: no capability is probed for, so the stack has one path on
every substrate. The seams are *structural* protocols — the hot paths
bind concrete attributes, not the protocol classes — and two conventions
go beyond plain method calls:

1. **``_now`` is part of the Clock contract.** The data-plane hot paths
   read ``ctx.sim._now`` (one attribute load instead of a property call).
   A non-kernel clock must expose ``_now`` — the live clock aliases it to
   the ``now`` property.
2. **Timers are armed at an absolute time with a reserved ``seq``.**
   ``push(time, seq, callback, args)`` arms ``callback(*args)`` at
   *time* on the clock's own axis, with a ``seq`` the caller drew from
   the clock's ``_seq`` counter — at once, or earlier to reserve the
   timer's place in the tie order before knowing it is needed (the ARQ's
   latent timeouts). It is how the ARQ arms every timeout on both
   substrates; the returned handle needs ``seq``, ``time`` and
   ``cancel()`` (:class:`TimerHandle`).

The differential conformance suite
(``tests/integration/test_live_conformance.py``) is the executable form of
this contract: the same scripted scenarios run on both substrates and must
agree on delivered-pair sets, post-dedup at-most-once delivery, and ACK
timer settlement, with the sanitizer clean in both modes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable scheduled callback.

    ``seq`` is a token unique within the owning clock — the probe bus uses
    it to correlate ``timer_started``/``timer_cancelled``/``timer_fired``
    events; ``time`` is the absolute (clock-local) deadline.
    """

    seq: int
    time: float

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Time plus cancellable timers — the substrate's scheduling seam.

    Implementations: :class:`~repro.sim.engine.Simulator` (virtual
    event time) and :class:`~repro.live.clock.WallClock` (asyncio wall
    time). ``_now`` must stay readable as a plain attribute access and
    ``_seq`` is the iterator ``push`` takes its ``seq`` from (see module
    docstring).
    """

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or since runtime start)."""
        ...

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds; returns a handle."""
        ...

    def schedule_fire(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle."""
        ...

    def push(
        self, time: float, seq: int, callback: Callable[..., None], args: tuple
    ) -> TimerHandle:
        """Run ``callback(*args)`` at the absolute *time*, ordered by *seq*."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Frame delivery between adjacent brokers — the substrate's data seam.

    Implementations: :class:`~repro.overlay.links.OverlayNetwork`
    (simulated links) and its subclass
    :class:`~repro.live.transport.LiveTransport` (the same links, each
    delivery a write to an asyncio TCP socket). A frame enters by one
    send per kind, ``send_data`` or ``send_ack``
    (:class:`~repro.routing.arq.ArqSender` and
    :class:`~repro.pubsub.broker.BrokerRuntime` bind them directly), and
    reaches its receiver through the one handler ``attach`` registered,
    ACKs included. The stack calls every member directly. Three of them
    carry the simulator's fast paths: ``prewarm_directions`` (interned
    link directions) and ``register_ack_fate_hook``/``ack_round_trip``
    (latent ARQ timeouts and ACKs settled when they are sent). A socket
    round trip is not known in advance, so the live transport's
    ``ack_round_trip`` is ``None``: every ARQ timer stays eager, and no
    hook is registered. ``watch_wire`` and ``ack_round_trip`` also tell
    the composition root whether two copies of one transfer can arrive
    a bounded time apart (:func:`repro.stack.dedup_horizon`).

    Scripted faults enter both through one seam, a
    :data:`~repro.overlay.links.FaultFilter` drop predicate consulted
    once per send (``install_fault_filter``); a dropped frame counts as
    a send and an injected loss.
    """

    def attach(self, node: int, handler: Callable[[int, Any], None]) -> None:
        """Register ``handler(sender, frame)`` as *node*'s frame sink."""
        ...

    def detach(self, node: int) -> None:
        """Remove *node*'s handler; frames to it are silently dropped."""
        ...

    def send_data(
        self, src: int, dst: int, frame: Any, reliable: bool = False
    ) -> Optional[bool]:
        """Send a DATA *frame*: ``True`` = will reach *dst*'s handler,
        ``False`` = lost synchronously, ``None`` = not knowable here.
        ``reliable`` skips the random-loss draw (the ORACLE baseline)."""
        ...

    def send_ack(self, src: int, dst: int, frame: Any) -> Optional[bool]:
        """Send an ACK *frame*; same tri-state as :meth:`send_data`."""
        ...

    def watch_wire(self, observer: Callable[[Any, Optional[float]], None]) -> bool:
        """Subscribe a sender to when its DATA copies leave it.

        A copy handed to ``send_data`` may wait in its sender's output
        queue; the sender's ACK clock must not run while it does. A
        transport on which copies can wait returns ``True`` and calls
        ``observer(frame, wait)`` exactly once per DATA copy: ``wait``
        seconds after the call the copy's last bit has left the sender
        (``None``: the sender's own queue discarded the copy). The call
        may come from inside ``send_data`` or at any later instant. A
        transport on which no copy ever waits returns ``False`` and never
        calls: the clock starts at hand-over.
        """
        ...

    def prewarm_directions(self) -> None:
        """Prepare every link direction once all handlers are attached."""
        ...

    def register_ack_fate_hook(
        self, hook: Callable[[int, int, Any, Optional[float]], bool]
    ) -> None:
        """Report each ACK's fate to ``hook(src, dst, ack, arrival)`` when
        it is sent: ``arrival`` is ``None`` when it was lost, else when it
        is expected; only a copy whose round trip :meth:`ack_round_trip`
        reported exactly may be settled at that time."""
        ...

    def ack_round_trip(self, src: int, dst: int) -> Optional[tuple]:
        """The exact ``(d_fwd, d_rev)`` delays of a DATA copy ``src ->
        dst`` and its ACK, or ``None`` when they are not known in advance."""
        ...

    def link_success_probability(self, u: int, v: int) -> float:
        """The link monitor's analytic estimate for link (u, v)."""
        ...


__all__: Iterable[str] = (
    "Clock",
    "TimerHandle",
    "Transport",
)
