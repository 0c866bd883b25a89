"""The instrumentation bus: one compiled probe slot per event family.

Every observation hook of the data plane — kernel event pops, link
transmissions and drops, queueing, arrivals, broker dedup/accept/deliver,
ARQ ACKs and timers, DCRD failovers/bounces/abandons, persistency custody,
and solved control tables — goes through exactly one module-level slot in
this module. A hook site does::

    probe = _probes.on_transmit
    if probe is not None:
        probe(now, src, dst, frame, survived, cause, prop, queue)

and nothing else. With no observers attached every slot is ``None``, so
the whole instrumentation layer costs one module-attribute load and one
``is None`` check per site — the exact footprint the fingerprint suite
pins as bit-identical to uninstrumented code. When observers attach, the
:class:`ProbeRegistry` *compiles* each family's callback chain into the
slot: the single handler itself for one observer, a fused closure for
several. A site never knows (or pays for) how many observers are live.

Observers
---------

An observer is any object exposing per-family handlers — either by
subclassing :class:`ProbeObserver` (handlers are discovered by their
``on_<family>`` method names) or by overriding ``probe_handlers()`` to
return an explicit ``{family: callable}`` mapping (what
:class:`ProbeCounters` does to register closures). The repository's
built-in observers are:

* :class:`repro.record.RunRecord` — the run's one record: live invariant
  checks (``sanitize``) and per-frame lifecycle recording (``trace``)
  over one per-transfer ledger, one handler per family;
* :class:`ProbeCounters` (below) — per-family event counting, the perf
  facet of the bus.

Observers must be **observation-only**: draw no randomness, schedule no
events, mutate no protocol state. The bus guarantees the *sites* are
inert when disabled; the observers guarantee enabled runs pop the same
event sequence as disabled ones. Every family is observation-only: a
site never reads what its slot returns.

Event families
--------------

==================  =====================================================
family              payload
==================  =====================================================
event_pop           ``(time, now)`` — kernel pops an event dated *time*
publish             ``(frame)`` — root copy created at its origin
fork                ``(parent_transfer, child_transfer)`` — copy forked
transmit            ``(t, src, dst, frame, survived, cause, prop,
                    queue)`` — DATA frame handed to a link direction
enqueue             ``(t, src, dst, frame, wait)`` — FIFO wait > 0
                    (emitted only alongside its ``transmit`` event)
arrive              ``(t, src, dst, frame)`` — frame reached the receiver
arrival_drop        ``(t, src, dst, frame, cause)`` — dropped at arrival
expire              ``(t, src, dst, frame)`` — EDF overload drop
wire                ``(t, src, dst, frame, wait)`` — finite-capacity
                    links only: the copy's last bit leaves its sender at
                    ``t + wait`` (``None``: its sender's queue discarded
                    it); what the link tells ``watch_wire`` subscribers
dedup_discard       ``(t, node, sender, frame)`` — duplicate suppressed
broker_accept       ``(node, sender, frame)`` — frame passed dedup
deliver             ``(t, node, frame)`` — first local delivery of a pair
ack                 ``(t, node, sender, frame)`` — ACK matched to a copy
ack_timeout         ``(t, src, dst, frame, attempts, will_retry)``
timer_started       ``(token, deadline, frame)`` — ACK timer scheduled
timer_cancelled     ``(token)`` — ACK matched first; timer cancelled
timer_fired         ``(token)`` — ACK timer fired and was acted on
failover            ``(t, node, failed_hop, frame)``
bounce              ``(t, node, upstream, copy)`` — §III-D upstream send
abandon             ``(t, node, frame, subscriber)`` — destination dropped
custody             ``(t, node, frame, subscriber, action,
                    fresh_transfer)`` — persistency store/redeliver
order_hold          ``(t, node, frame, level)`` — delivery pipeline
                    buffered a frame behind an ordering gap
order_release       ``(t, node, frame, level, reason, held_for)`` — a
                    held (or immediately deliverable) frame reached the
                    terminal delivery stage; ``reason`` is ``ready`` /
                    ``stall`` / ``flush``
order_stall         ``(t, node, level, info)`` — the hold-back watchdog
                    skipped a gap or a straggler missed its slot
table_solved        ``(table)`` — raw solver output, as it is published:
                    at setup, at a join, and after a refresh that moved
                    the estimates when the table is first needed
==================  =====================================================

The module imports only :mod:`repro.util.errors`, so every instrumented
layer — including the kernel — can import it without cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.util.errors import ReproError

#: Every event family, in catalogue order. The slot of family ``f`` is the
#: module attribute ``on_<f>``.
FAMILIES: Tuple[str, ...] = (
    "event_pop",
    "publish",
    "fork",
    "transmit",
    "enqueue",
    "arrive",
    "arrival_drop",
    "expire",
    "wire",
    "dedup_discard",
    "broker_accept",
    "deliver",
    "ack",
    "ack_timeout",
    "timer_started",
    "timer_cancelled",
    "timer_fired",
    "failover",
    "bounce",
    "abandon",
    "custody",
    "order_hold",
    "order_release",
    "order_stall",
    "table_solved",
)

# ---------------------------------------------------------------------------
# The slots. Hook sites read these and nothing else; ProbeRegistry._compile
# is the only writer. All None (literal no-op) by default.
# ---------------------------------------------------------------------------
on_event_pop: Optional[Callable[..., Any]] = None
on_publish: Optional[Callable[..., Any]] = None
on_fork: Optional[Callable[..., Any]] = None
on_transmit: Optional[Callable[..., Any]] = None
on_enqueue: Optional[Callable[..., Any]] = None
on_arrive: Optional[Callable[..., Any]] = None
on_arrival_drop: Optional[Callable[..., Any]] = None
on_expire: Optional[Callable[..., Any]] = None
on_wire: Optional[Callable[..., Any]] = None
on_dedup_discard: Optional[Callable[..., Any]] = None
on_broker_accept: Optional[Callable[..., Any]] = None
on_deliver: Optional[Callable[..., Any]] = None
on_ack: Optional[Callable[..., Any]] = None
on_ack_timeout: Optional[Callable[..., Any]] = None
on_timer_started: Optional[Callable[..., Any]] = None
on_timer_cancelled: Optional[Callable[..., Any]] = None
on_timer_fired: Optional[Callable[..., Any]] = None
on_failover: Optional[Callable[..., Any]] = None
on_bounce: Optional[Callable[..., Any]] = None
on_abandon: Optional[Callable[..., Any]] = None
on_custody: Optional[Callable[..., Any]] = None
on_order_hold: Optional[Callable[..., Any]] = None
on_order_release: Optional[Callable[..., Any]] = None
on_order_stall: Optional[Callable[..., Any]] = None
on_table_solved: Optional[Callable[..., Any]] = None


class ProbeError(ReproError):
    """An observer could not be attached to (or detached from) the bus."""


class ProbeObserver:
    """Base class for bus observers: handlers discovered by method name.

    The default :meth:`probe_handlers` maps every family for which the
    instance defines an ``on_<family>`` method. Override it to adapt
    mismatched signatures or to register closures.
    """

    def probe_handlers(self) -> Dict[str, Callable[..., Any]]:
        """The ``{family: callable}`` mapping this observer subscribes."""
        handlers: Dict[str, Callable[..., Any]] = {}
        for family in FAMILIES:
            method = getattr(self, "on_" + family, None)
            if callable(method):
                handlers[family] = method
        return handlers


def handlers_of(observer: Any) -> Dict[str, Callable[..., Any]]:
    """Resolve *observer*'s family handlers (duck-typed attach support)."""
    probe_handlers = getattr(observer, "probe_handlers", None)
    if callable(probe_handlers):
        handlers = probe_handlers()
    else:
        handlers = {
            family: method
            for family in FAMILIES
            for method in (getattr(observer, "on_" + family, None),)
            if callable(method)
        }
    unknown = set(handlers) - set(FAMILIES)
    if unknown:
        raise ProbeError(
            f"observer {observer!r} subscribes unknown probe families "
            f"{sorted(unknown)}"
        )
    for family, handler in handlers.items():
        if not callable(handler):
            raise ProbeError(
                f"observer {observer!r} handler for {family!r} is not callable"
            )
    return handlers


def _fuse(handlers: List[Callable[..., Any]]) -> Callable[..., Any]:
    """Fused chain for one family (2+ handlers)."""

    def fused(*args: Any) -> None:
        for handler in handlers:
            handler(*args)

    return fused


class ProbeRegistry:
    """Owns the observer list and compiles the per-family slots.

    ``attach`` order is call order within every fused chain. Attaching an
    already attached observer is a no-op; handlers are snapshotted at
    attach time.

    ``namespace`` is the mapping the compiled slots are written into —
    this module's globals for the default :data:`REGISTRY`, a plain dict
    in tests.
    """

    def __init__(self, namespace: Optional[Dict[str, Any]] = None) -> None:
        self._namespace: Dict[str, Any] = (
            globals() if namespace is None else namespace
        )
        self._attached: List[Tuple[Any, Dict[str, Callable[..., Any]]]] = []
        self._compile()

    # ------------------------------------------------------------------
    def attach(self, observer: Any) -> None:
        """Register *observer* and recompile every family it subscribes."""
        if any(attached is observer for attached, _ in self._attached):
            return
        self._attached.append((observer, handlers_of(observer)))
        self._compile()

    def detach(self, observer: Any) -> None:
        """Unregister *observer*; unknown observers are ignored."""
        remaining = [
            entry for entry in self._attached if entry[0] is not observer
        ]
        if len(remaining) != len(self._attached):
            self._attached = remaining
            self._compile()

    def observers(self) -> Tuple[Any, ...]:
        """The attached observers, in attach (= chain) order."""
        return tuple(observer for observer, _ in self._attached)

    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Rebuild every slot from the current observer list."""
        namespace = self._namespace
        for family in FAMILIES:
            handlers = [
                observer_handlers[family]
                for _, observer_handlers in self._attached
                if family in observer_handlers
            ]
            slot: Optional[Callable[..., Any]]
            if not handlers:
                slot = None
            elif len(handlers) == 1:
                slot = handlers[0]
            else:
                slot = _fuse(handlers)
            namespace["on_" + family] = slot


#: The process-wide registry the hook sites are wired to. Observers attach
#: here (directly or via the module-level :func:`attach`/:func:`detach`
#: aliases); :class:`repro.stack.observed` does so for a run's record and
#: extra observers.
REGISTRY = ProbeRegistry()

attach = REGISTRY.attach
detach = REGISTRY.detach
observers = REGISTRY.observers


class ProbeCounters(ProbeObserver):
    """The bus's perf facet: counts every event, per family.

    A ~20-line observer with no per-event payload inspection; its
    :meth:`perf_counters` snapshot merges into ``MetricsSummary.perf`` as
    ``probes.*`` entries when attached during a runner execution (the
    runner collects ``perf_counters()`` from every attached observer).
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def probe_handlers(self) -> Dict[str, Callable[..., Any]]:
        counts = self.counts

        def bump_handler(family: str) -> Callable[..., Any]:
            def bump(*_args: Any) -> None:
                counts[family] = counts.get(family, 0) + 1

            return bump

        return {family: bump_handler(family) for family in FAMILIES}

    def total(self) -> int:
        """Events observed across all families."""
        return sum(self.counts.values())

    def perf_counters(self) -> Dict[str, float]:
        """``probes.*`` entries for ``MetricsSummary.perf``."""
        return {
            f"probes.{family}": float(count)
            for family, count in sorted(self.counts.items())
        }
