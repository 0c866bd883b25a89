"""The overlay data plane: frame transmission over lossy, failing links.

:class:`OverlayNetwork` binds together the event kernel, a
:class:`~repro.overlay.topology.Topology`, a per-transmission random-loss
model (``Pl``), the per-second :class:`~repro.overlay.failures.FailureSchedule`
(``Pf``), and optionally a node-crash schedule. Broker runtimes attach a
frame handler per node and send through one method per frame kind,
:meth:`OverlayNetwork.send_data` and :meth:`OverlayNetwork.send_ack`; the
network decides whether the frame survives and, if so, delivers it one
link delay later.

Loss semantics (documented in DESIGN.md §5.3):

* a frame is lost if its link is inside a failed epoch at *departure* time;
* otherwise it is lost with independent probability ``Pl``;
* node failures (extension) drop frames whose sender or receiver is down;
* DATA and ACK frames are subject to the same hazards.

The two sends are the hottest calls of the data plane (every DATA copy,
ACK and retransmission goes through one of them), so per-direction
immutable state — propagation delay, effective loss rate, receiver
handler, compiled delivery closures — is resolved once into
:attr:`OverlayNetwork._dir_cache` and reused; the cache is invalidated
whenever a handler attaches or detaches.

:class:`OverlayNetwork` is the one link model of the substrate
:class:`~repro.substrate.Transport` contract. The live runtime's
:class:`~repro.live.transport.LiveTransport` (asyncio TCP) is a subclass
that changes only the last step: its per-direction delivery closures
(:meth:`OverlayNetwork._deliveries`) write the frame to a socket, and the
receiving end hands what it reads to :meth:`OverlayNetwork._deliver`.
Every hazard, counter, probe and the :data:`FaultFilter` seam
(:meth:`OverlayNetwork.install_fault_filter`) is this module's code on
both substrates, so the differential conformance suite scripts identical
adversarial worlds on both.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Callable, Dict, Optional, Tuple

from repro import probes as _probes
from repro.overlay.failures import FailureSchedule, NodeFailureSchedule
from repro.overlay.topology import Topology, canonical_edge
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import SimulationError
from repro.util.validation import require_probability

FrameHandler = Callable[[int, Any], None]
"""Signature of a node's receive hook: ``handler(sender, frame)``."""

_INF = float("inf")


class FrameKind(enum.Enum):
    """Classes of frames the accounting distinguishes."""

    DATA = "data"
    ACK = "ack"

    # Enum's default __hash__ is a Python-level method; members are
    # singletons, so the C-level identity hash is equivalent for dict keys
    # and much cheaper. Determinism is unaffected: dicts iterate in
    # insertion order, and no code orders FrameKind members by hash.
    __hash__ = object.__hash__


#: Dense index of each kind into the flat per-kind counter rows
#: (:class:`LinkStats`); assigned as a member attribute so hot paths can
#: translate a kind into a list slot with one attribute load.
FrameKind.DATA.idx = 0
FrameKind.ACK.idx = 1

#: The fault seam of both substrates: ``fault_filter(src, dst, kind,
#: frame)`` returns ``True`` to drop the frame as an injected loss
#: (:func:`repro.live.faults.link_filter` builds one from scripted rules).
FaultFilter = Callable[[int, int, FrameKind, Any], bool]

_DATA_IDX = 0


def _by_kind(row: list) -> Dict[FrameKind, Any]:
    return dict(zip(FrameKind, row))


class LinkStats:
    """Aggregate transmission counters, per frame kind — flat storage.

    Counters live in preallocated parallel lists indexed by
    ``FrameKind.idx`` (DATA=0, ACK=1), so the per-frame hot path
    performs one C-level list index instead of a dict probe per counter.
    The per-kind properties (``sent``, ``volume``, ``delivered``, ...)
    return ``{FrameKind: count}`` snapshots of those rows; writing to a
    snapshot changes nothing.

    ``sent`` counts frames (the paper's packets metric); ``volume`` sums
    frame *sizes* (in units of one full message), which differs from the
    count only for FEC fragments.
    """

    __slots__ = (
        "_sent",
        "_volume",
        "_delivered",
        "_lost_failure",
        "_lost_random",
        "_lost_node_down",
        "_lost_injected",
        "_dropped_expired",
    )

    def __init__(self) -> None:
        self._sent = [0, 0]
        self._volume = [0.0, 0.0]
        self._delivered = [0, 0]
        self._lost_failure = [0, 0]
        self._lost_random = [0, 0]
        self._lost_node_down = [0, 0]
        self._lost_injected = [0, 0]
        self._dropped_expired = [0, 0]

    @property
    def sent(self) -> Dict[FrameKind, Any]:
        return _by_kind(self._sent)

    @property
    def volume(self) -> Dict[FrameKind, Any]:
        return _by_kind(self._volume)

    @property
    def delivered(self) -> Dict[FrameKind, Any]:
        return _by_kind(self._delivered)

    @property
    def lost_failure(self) -> Dict[FrameKind, Any]:
        return _by_kind(self._lost_failure)

    @property
    def lost_random(self) -> Dict[FrameKind, Any]:
        return _by_kind(self._lost_random)

    @property
    def lost_node_down(self) -> Dict[FrameKind, Any]:
        return _by_kind(self._lost_node_down)

    @property
    def lost_injected(self) -> Dict[FrameKind, Any]:
        """Frames dropped by an installed deterministic fault filter."""
        return _by_kind(self._lost_injected)

    @property
    def dropped_expired(self) -> Dict[FrameKind, Any]:
        return _by_kind(self._dropped_expired)

    def data_sent(self) -> int:
        """Number of DATA-frame link transmissions (the paper's traffic metric)."""
        return self._sent[_DATA_IDX]

    def data_volume(self) -> float:
        """Size-weighted DATA traffic (equals :meth:`data_sent` without FEC)."""
        return self._volume[_DATA_IDX]

    def loss_fraction(self, kind: FrameKind) -> float:
        """Fraction of *kind* frames that did not arrive."""
        sent = self._sent[kind.idx]
        if sent == 0:
            return 0.0
        return 1.0 - self._delivered[kind.idx] / sent


#: The ``queue_discipline`` values a finite-capacity network accepts.
QUEUE_DISCIPLINES = ("fifo", "edf", "edf+drop")


class FifoServer:
    """First-come first-served link servers, one per link direction.

    A DATA copy waits for its direction to free up, holds it for
    ``service_time * size``, then propagates; the wait is known at
    hand-over, so :meth:`admit` returns it.
    """

    __slots__ = ("_network", "_service_time", "_busy_until")

    def __init__(self, network: "OverlayNetwork", service_time: float) -> None:
        self._network = network
        self._service_time = service_time
        # (src, dst) -> time the direction frees up.
        self._busy_until: Dict[tuple, float] = {}

    def admit(
        self, src: int, dst: int, frame: Any, size: float, now: float, prop: float
    ) -> float:
        """Queue a surviving copy; seconds until its last bit has left."""
        key = (src, dst)
        start, finish = self._slot(key, now, size)
        self._busy_until[key] = finish
        probe_tx = _probes.on_transmit
        if probe_tx is not None:
            probe_tx(now, src, dst, frame, True, None, prop, start - now)
        if start > now:
            probe_enq = _probes.on_enqueue
            if probe_enq is not None:
                probe_enq(now, src, dst, frame, start - now)
        return finish - now

    def lost(self, src: int, dst: int, frame: Any, size: float, now: float) -> None:
        """Report a copy a link hazard took: it never occupies the link,
        yet its sender is told the wait a surviving copy would have had."""
        _, finish = self._slot((src, dst), now, size)
        self._network._report_wire(src, dst, frame, finish - now)

    def _slot(self, key: tuple, now: float, size: float) -> Tuple[float, float]:
        """``(start, finish)`` of serialising a copy handed over *now*."""
        start = self._busy_until.get(key, 0.0)
        if start < now:
            start = now
        return start, start + self._service_time * size


class EdfServer:
    """Earliest-deadline-first link servers, one per link direction.

    Waiting DATA copies are served in ``frame.priority`` order (ties and
    priority-less frames in arrival order), one at a time; a copy's wait
    is decided when the server picks it. With ``drop_expired``
    (``"edf+drop"``) a copy that can no longer meet its deadline even
    with zero further wait is discarded instead, freeing capacity for
    copies that still can (the textbook overload policy).
    """

    __slots__ = (
        "_network",
        "_service_time",
        "_drop_expired",
        "_waiting",
        "_busy",
        "_seq",
    )

    def __init__(
        self, network: "OverlayNetwork", service_time: float, drop_expired: bool
    ) -> None:
        self._network = network
        self._service_time = service_time
        self._drop_expired = drop_expired
        # Per-direction waiting heaps and busy flags.
        self._waiting: Dict[tuple, list] = {}
        self._busy: Dict[tuple, bool] = {}
        self._seq = 0

    def admit(
        self, src: int, dst: int, frame: Any, size: float, now: float, prop: float
    ) -> Optional[float]:
        """Queue a surviving copy; ``None``: the server delivers it."""
        probe_tx = _probes.on_transmit
        if probe_tx is not None:
            # The server decides the wait later (queue=None).
            probe_tx(now, src, dst, frame, True, None, prop, None)
        self._enqueue(src, dst, frame, size, False)
        return None

    def lost(self, src: int, dst: int, frame: Any, size: float, now: float) -> None:
        """Queue a copy a link hazard took: it takes its turn (more urgent
        arrivals overtake it like any other), then never the link."""
        self._enqueue(src, dst, frame, size, True)

    def _enqueue(
        self, src: int, dst: int, frame: Any, size: float, lost: bool
    ) -> None:
        key = (src, dst)
        self._seq += 1
        try:
            priority = frame.priority
        except AttributeError:
            priority = _INF
        heapq.heappush(
            self._waiting.setdefault(key, []),
            (priority, self._seq, frame, size, lost),
        )
        if not self._busy.get(key, False):
            self._serve_next(key)

    def _serve_next(self, key: tuple) -> None:
        """Start serving the direction's most urgent copy, if any.

        Every copy popped on the way is reported to the wire observers —
        once the server's own state is settled, because a sender told of
        a discard may hand the next copy to this very direction.
        """
        network = self._network
        queue = self._waiting.get(key)
        src, dst = key
        now = network.sim._now
        expiry = now + self._propagation(src, dst) if self._drop_expired else -_INF
        self._busy[key] = False
        reports = []
        while queue:
            priority, _, frame, size, lost = heapq.heappop(queue)
            if priority < expiry:
                reports.append((frame, None))
                if not lost:
                    network.stats._dropped_expired[_DATA_IDX] += 1
                    probe = _probes.on_expire
                    if probe is not None:
                        probe(now, src, dst, frame)
                continue
            service = self._service_time * size
            reports.append((frame, service))
            if lost:
                continue  # took its turn in the queue, never the link
            self._busy[key] = True
            network.sim.schedule_fire(service, self._finish, key, frame)
            break
        for frame, wait in reports:
            network._report_wire(src, dst, frame, wait)

    def _finish(self, key: tuple, frame: Any) -> None:
        network = self._network
        src, dst = key
        network.sim.schedule_fire(
            self._propagation(src, dst), network._deliver, src, dst, frame,
            FrameKind.DATA,
        )
        self._serve_next(key)

    def _propagation(self, src: int, dst: int) -> float:
        entry = self._network._dir_cache.get((src << 21) | dst)
        if entry is not None:
            return entry[0]
        return self._network.topology.delay(src, dst)


class OverlayNetwork:
    """Unreliable frame delivery between adjacent brokers.

    Parameters
    ----------
    sim:
        The discrete-event kernel.
    topology:
        The overlay graph with link delays.
    streams:
        Named RNG streams; random loss draws come from the ``"loss"``
        stream, which the network reads alone
        (:meth:`~repro.sim.random.RandomStreams.uniform_draws`).
    loss_rate:
        ``Pl``, independent per-transmission loss probability (uniform).
    link_loss_rates:
        Optional per-link overrides (canonical edge -> Pl). Links absent
        from the mapping fall back to the uniform ``loss_rate``.
        Heterogeneous loss is what makes Theorem 1's d/r ordering differ
        from plain delay ordering. Fixed at construction: the network
        copies the mapping into a plain dict and bakes each link's rate
        into its per-direction constants, so later edits are not seen.
    failures:
        Optional transient link-failure schedule (``None`` = no failures).
    node_failures:
        Optional node-crash schedule (extension; ``None`` = no crashes).
    service_time:
        Optional per-frame serialisation time in seconds (finite link
        capacity). When set, each link *direction* is a single server: a
        frame occupies the link for ``service_time * size`` before its
        propagation delay starts, and frames queue behind each other.
        ``None`` (the paper's model) means infinite capacity — frames
        never queue. ACKs are assumed negligibly small and skip the queue.
    queue_discipline:
        How a busy link direction orders waiting DATA frames, one of
        :data:`QUEUE_DISCIPLINES`: ``"fifo"`` (default, arrival order),
        ``"edf"`` (earliest deadline first, by ``frame.priority``; ties
        arrival order) or ``"edf+drop"`` (EDF that discards a copy which
        can no longer meet its deadline). EDF implements the classical
        "priority-based queueing" alternative the paper's introduction
        contrasts DCRD against. Ignored on infinite-capacity links.

    The finite-capacity server lives in one slot, :attr:`queue`: ``None``
    on infinite-capacity links, else a :class:`FifoServer` or an
    :class:`EdfServer` shared by every link direction of the network.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        streams: RandomStreams,
        loss_rate: float = 0.0,
        failures: Optional[FailureSchedule] = None,
        node_failures: Optional[NodeFailureSchedule] = None,
        service_time: Optional[float] = None,
        link_loss_rates: Optional[Dict[tuple, float]] = None,
        queue_discipline: str = "fifo",
    ) -> None:
        require_probability(loss_rate, "loss_rate")
        if link_loss_rates:
            for edge, rate in link_loss_rates.items():
                require_probability(rate, f"link_loss_rates[{edge}]")
        if queue_discipline not in QUEUE_DISCIPLINES:
            raise SimulationError(
                f"unknown queue_discipline {queue_discipline!r}"
            )
        if service_time is not None and not service_time > 0:
            raise SimulationError(f"service_time must be > 0, got {service_time}")
        self.sim = sim
        self.topology = topology
        self.loss_rate = loss_rate
        self.failures = failures
        self.node_failures = node_failures
        self.stats = LinkStats()
        # Flat per-kind counter rows, bound once: the hot path increments
        # ``row[idx]`` (one C-level list index) instead of a dict probe
        # per frame.
        stats = self.stats
        self._sent = stats._sent
        self._volume = stats._volume
        self._delivered = stats._delivered
        self._lost_failure = stats._lost_failure
        self._lost_random = stats._lost_random
        self._lost_node_down = stats._lost_node_down
        self._lost_injected = stats._lost_injected
        # Optional deterministic fault seam (install_fault_filter). None
        # (the default) keeps every hot path on its historical branch.
        self._fault_filter: Optional[FaultFilter] = None
        # The next uniform of the "loss" stream, drawn a block at a time
        # (the same values, in the same order, as one Generator.random()
        # per draw): one C-level call per draw on the send paths.
        self._loss_draw = streams.uniform_draws("loss").__next__
        # The calendar's fire-and-forget push, bound once: every delivery
        # of a frame that survived its hazards is one call of it.
        self._fire = sim.schedule_fire
        self._handlers: Dict[int, FrameHandler] = {}
        # The sender ARQ's ACK-fate hook (see register_ack_fate_hook).
        self._ack_fate: Optional[Callable[..., bool]] = None
        # Hot-loop per-direction constants, keyed by the packed direction id
        # (src << 21 | dst): (propagation delay, effective loss, handler at
        # dst, canonical edge, compiled DATA delivery closure or None,
        # compiled ACK delivery closure or None). Resolved lazily on first
        # use; cleared whenever handlers change.
        self._dir_cache: Dict[int, tuple] = {}
        #: Direction resolutions performed outside the interned table —
        #: the facade-fallback count the flat-path perf layer reports.
        #: :meth:`prewarm_directions` zeroes it after interning everything.
        self.dir_fallbacks = 0
        # Current-epoch failed-edge set, refreshed when the clock crosses an
        # epoch boundary (equivalent to failures.is_failed per frame). Only
        # valid for the real epoch-granular FailureSchedule — duck-typed
        # doubles (e.g. scripted sub-epoch windows) are asked per frame.
        self._epoch_failures = failures is not None and type(failures) is FailureSchedule
        self._failure_epoch_len = failures.epoch if failures is not None else 1.0
        # End of the epoch window _failed_edges_now is valid for; a float
        # compare against now replaces an int division per frame.
        self._failure_window_end = -_INF
        self._failed_edges_now: frozenset = frozenset()
        self.link_loss_rates = dict(link_loss_rates or {})
        #: The finite-capacity link server (``None``: infinite capacity).
        self.queue: Optional[Any] = None
        if service_time is not None:
            if queue_discipline == "fifo":
                self.queue = FifoServer(self, service_time)
            else:
                self.queue = EdfServer(
                    self, service_time, drop_expired=queue_discipline == "edf+drop"
                )
        # Senders told when each DATA copy clears the wire (see watch_wire).
        self._wire_observers: list = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node: int, handler: FrameHandler) -> None:
        """Register *handler* as the frame sink of *node*."""
        if node not in self.topology.nodes:
            raise SimulationError(f"node {node} is not in the topology")
        self._handlers[node] = handler
        self._dir_cache.clear()

    def install_fault_filter(self, fault_filter: Optional[FaultFilter]) -> None:
        """Install a deterministic transport-seam fault filter (or remove it).

        ``fault_filter(src, dst, kind, frame) -> bool`` is consulted once
        per transmission, after the send is counted but before any link
        hazard; returning ``True`` drops the frame at the seam (counted in
        ``stats.lost_injected``, cause ``"injected"``). The live transport
        inherits this member (see :mod:`repro.live.faults`), letting
        the differential conformance suite script identical adversarial
        worlds on both substrates —
        e.g. per-direction per-kind drop-all rules the epoch-granular
        :class:`~repro.overlay.failures.FailureSchedule` cannot express.
        Injected ACK drops are reported to the ACK-fate hook, so latent
        ARQ timers still materialise correctly. With no filter
        installed (the default) every path is behaviour-identical to the
        historical network — the fingerprint matrix pins this.
        """
        self._fault_filter = fault_filter

    def register_ack_fate_hook(
        self, hook: Callable[[int, int, Any, Optional[float]], bool]
    ) -> None:
        """Tell the senders' ARQ the fate of every ACK, the instant it is sent.

        ``hook(src, dst, ack, arrival)`` is called from :meth:`send_ack`
        once the ACK ``src -> dst`` has met every hazard. ``arrival`` is
        ``None`` when the ACK was lost (fault filter, node crash, link
        failure, random loss): the ARQ materialises the copy's latent
        timeout. Otherwise it is the time the direction's compiled ACK
        delivery would run; the ARQ may then settle the copy at once and
        return ``True``, and the network counts the ACK as delivered and
        queues nothing. A direction without a compiled delivery (node
        crashes) reports no arrival. The receivers' frame handlers must
        feed ACKs to the same ARQ. One hook per network: registering
        replaces the previous one.
        """
        self._ack_fate = hook

    def watch_wire(self, observer: Callable[[Any, Optional[float]], None]) -> bool:
        """Subscribe a sender to when its DATA copies leave it.

        On finite-capacity links (``service_time``) every DATA copy handed
        to the network gets exactly one ``observer(frame, wait)`` call:
        ``wait`` seconds from the call, the copy's last bit has left its
        sender — or ``wait`` is ``None``: the sender's own queue discarded
        the copy (``"edf+drop"``). FIFO knows the answer at
        hand-over and calls back from inside the send, as its last step
        (so a sender may start the copy's clock once ``send_data``
        returns, with its tri-state); the EDF server calls when it picks
        the copy. A copy lost to a link hazard never
        occupies the link, but its sender cannot know that: it is told the
        wait a surviving copy would have had. Returns ``False`` (and
        never calls) on infinite-capacity links, where no copy waits.
        """
        if self.queue is None:
            return False
        self._wire_observers.append(observer)
        return True

    def ack_round_trip(self, src: int, dst: int) -> Optional[tuple]:
        """``(d_fwd, d_rev)`` when a DATA copy ``src -> dst`` and its ACK
        reply both run on compiled deliveries, else ``None``.

        The pair lets the ARQ layer decide *exactly* whether an unlossed
        ACK's arrival event ``(now + (wait + d_fwd)) + d_rev`` precedes a
        timeout deadline (same float arithmetic the scheduler performs;
        ``wait`` is the copy's FIFO wait, ``0.0`` on infinite-capacity
        links). Valid while the attachment set is stable — the
        composition root attaches every handler before the run and never
        detaches mid-run. A node-crash schedule compiles no deliveries, and
        an EDF server delivers a copy through :meth:`_deliver` once it
        picks it, so both answer ``None``.
        """
        key = (src << 21) | dst
        fwd = self._dir_cache.get(key)
        if fwd is None:
            fwd = self._resolve_direction(src, dst)
        rkey = (dst << 21) | src
        rev = self._dir_cache.get(rkey)
        if rev is None:
            rev = self._resolve_direction(dst, src)
        if fwd[4] is None or rev[5] is None or isinstance(self.queue, EdfServer):
            return None
        return (fwd[0], rev[0])

    def detach(self, node: int) -> None:
        """Remove *node*'s handler; frames to it are silently dropped."""
        self._handlers.pop(node, None)
        self._dir_cache.clear()

    def _resolve_direction(self, src: int, dst: int) -> tuple:
        """Build and memoise the per-direction hot-loop constants.

        Besides the flat per-direction fields (delay, effective loss,
        handler, canonical edge) the entry carries the direction's two
        delivery closures, one per data-plane frame kind
        (:meth:`_deliveries`). Handler changes invalidate the whole table
        (attach/detach clear it), so compiled closures are never stale
        for frames transmitted afterwards.
        """
        if not self.topology.has_edge(src, dst):
            raise SimulationError(f"no overlay link {src} -> {dst}")
        cedge = canonical_edge(src, dst)
        handler = self._handlers.get(dst)
        deliver_data, deliver_ack = self._deliveries(src, dst, handler)
        entry = (
            self.topology.delay(src, dst),
            self.link_loss_rates.get(cedge, self.loss_rate),
            handler,
            cedge,
            deliver_data,
            deliver_ack,
        )
        self._dir_cache[(src << 21) | dst] = entry
        return entry

    def _deliveries(
        self, src: int, dst: int, handler: Optional[FrameHandler]
    ) -> Tuple[Optional[Callable[[Any], None]], Optional[Callable[[Any], None]]]:
        """The ``src -> dst`` direction's compiled DATA and ACK deliveries.

        Each closure captures the direction's endpoints, the receiver's
        sink and the flat delivered row, so a scheduled delivery runs
        without re-resolving any of them. They are only compiled when
        delivery is unconditional (a handler exists and no node-crash
        schedule can interpose); otherwise both are ``None`` and the
        direction keeps the generic :meth:`_deliver` path.
        """
        if handler is None or self.node_failures is not None:
            return None, None
        sim = self.sim
        delivered = self._delivered

        def deliver_data(frame):
            delivered[0] += 1
            probe = _probes.on_arrive
            if probe is not None:
                probe(sim._now, src, dst, frame)
            handler(src, frame)

        def deliver_ack(frame):
            delivered[1] += 1
            handler(src, frame)

        return deliver_data, deliver_ack

    def prewarm_directions(self) -> None:
        """Intern every link direction, then zero the fallback counter.

        Called by the composition root once all handlers are attached:
        every directed link gets its flat entry (and compiled delivery
        closures) built up front, so the run's timed region starts with a
        fully interned direction table and :attr:`dir_fallbacks` counts
        only true facade fallbacks during the run.
        """
        for u, v in self.topology.edges():
            self._resolve_direction(u, v)
            self._resolve_direction(v, u)
        self.dir_fallbacks = 0

    # ------------------------------------------------------------------
    # Data plane: one send per frame kind
    # ------------------------------------------------------------------
    def send_data(
        self, src: int, dst: int, frame: Any, reliable: bool = False
    ) -> Optional[bool]:
        """Send the DATA *frame* from *src* to the adjacent node *dst*.

        The copy meets the fault filter, node crashes, its link's failed
        epoch and one draw of the loss stream, in that order; a survivor
        waits its turn on a finite-capacity link, then arrives one link
        delay later. ``reliable=True`` skips only the loss draw (the
        ORACLE upper bound is not hampered by recoverable randomness).

        Returns ``True`` when a compiled delivery closure was scheduled
        (one link delay from now, or from the end of the copy's FIFO wait,
        which the wire report inside this call told the sender), ``False``
        when the copy was lost here, and ``None`` when an EDF server (which
        picks the copy later) or the generic :meth:`_deliver` (node
        crashes) delivers it. Only the ARQ's latent timer elision reads
        this tri-state: real senders learn the outcome from ACKs.
        """
        entry = self._dir_cache.get((src << 21) | dst)
        if entry is None:
            self.dir_fallbacks += 1
            entry = self._resolve_direction(src, dst)
        now = self.sim._now
        self._sent[0] += 1
        self._volume[0] += frame.size
        fault = self._fault_filter
        if fault is not None and fault(src, dst, FrameKind.DATA, frame):
            self._lost_injected[0] += 1
            return self._data_lost(src, dst, frame, "injected", entry[0], now)
        crashes = self.node_failures
        if crashes is not None and (
            crashes.is_failed(src, now) or crashes.is_failed(dst, now)
        ):
            self._lost_node_down[0] += 1
            return self._data_lost(src, dst, frame, "node_down", entry[0], now)
        failures = self.failures
        if failures is not None:
            if self._epoch_failures:
                if now >= self._failure_window_end:
                    self._refresh_failed_edges(now)
                link_down = entry[3] in self._failed_edges_now
            else:
                link_down = failures.is_failed(src, dst, now)
            if link_down:
                self._lost_failure[0] += 1
                return self._data_lost(src, dst, frame, "link_failure", entry[0], now)
        effective_loss = entry[1]
        if effective_loss > 0.0 and not reliable and self._loss_draw() < effective_loss:
            self._lost_random[0] += 1
            return self._data_lost(src, dst, frame, "random_loss", entry[0], now)
        if self.queue is not None:
            return self._enqueue(src, dst, frame, entry, now)
        probe_tx = _probes.on_transmit
        if probe_tx is not None:
            probe_tx(now, src, dst, frame, True, None, entry[0], 0.0)
        # Deliveries are never cancelled: a fire-and-forget push of the
        # direction's compiled closure, else of the generic _deliver.
        deliver = entry[4]
        if deliver is not None:
            self._fire(entry[0], deliver, frame)
            return True
        self._fire(entry[0], self._deliver, src, dst, frame, FrameKind.DATA)
        return None

    def send_ack(self, src: int, dst: int, frame: Any) -> Optional[bool]:
        """Send the ACK *frame* from *src* to the adjacent node *dst*.

        The hazards of :meth:`send_data`, in the same order and from the
        same loss stream; ACKs are negligibly small, so they never queue,
        and fire no ``transmit`` probe (the ARQ layer traces them). The
        ACK's fate goes to the ACK-fate hook (:meth:`register_ack_fate_hook`):
        a loss, or the arrival time of a compiled delivery, which the ARQ
        may settle at once — the ACK is then counted as delivered and
        never queued. The tri-state return mirrors :meth:`send_data`.
        """
        entry = self._dir_cache.get((src << 21) | dst)
        if entry is None:
            self.dir_fallbacks += 1
            entry = self._resolve_direction(src, dst)
        now = self.sim._now
        self._sent[1] += 1
        self._volume[1] += 1.0
        fault = self._fault_filter
        if fault is not None and fault(src, dst, FrameKind.ACK, frame):
            self._lost_injected[1] += 1
            return self._ack_lost(src, dst, frame)
        crashes = self.node_failures
        if crashes is not None and (
            crashes.is_failed(src, now) or crashes.is_failed(dst, now)
        ):
            self._lost_node_down[1] += 1
            return self._ack_lost(src, dst, frame)
        failures = self.failures
        if failures is not None:
            if self._epoch_failures:
                if now >= self._failure_window_end:
                    self._refresh_failed_edges(now)
                link_down = entry[3] in self._failed_edges_now
            else:
                link_down = failures.is_failed(src, dst, now)
            if link_down:
                self._lost_failure[1] += 1
                return self._ack_lost(src, dst, frame)
        effective_loss = entry[1]
        if effective_loss > 0.0 and self._loss_draw() < effective_loss:
            self._lost_random[1] += 1
            return self._ack_lost(src, dst, frame)
        deliver = entry[5]
        if deliver is None:
            self._fire(entry[0], self._deliver, src, dst, frame, FrameKind.ACK)
            return None
        fate = self._ack_fate
        if fate is not None and fate(src, dst, frame, now + entry[0]):
            self._delivered[1] += 1
            return True
        self._fire(entry[0], deliver, frame)
        return True

    def _refresh_failed_edges(self, now: float) -> None:
        """Cache the failed-edge set of the epoch *now* falls in; the
        sends call it only when the clock has crossed the cached
        epoch's end."""
        epoch = int(now // self._failure_epoch_len)
        self._failure_window_end = (epoch + 1) * self._failure_epoch_len
        self._failed_edges_now = self.failures.failed_edges(epoch)

    def _data_lost(
        self, src: int, dst: int, frame: Any, cause: str, prop: float, now: float
    ) -> bool:
        """Report a DATA copy a hazard took: to the ``transmit`` probe, and
        to the finite-capacity queue, whose sender still waits to hear
        when the copy would have cleared the wire."""
        probe_tx = _probes.on_transmit
        if probe_tx is not None:
            probe_tx(now, src, dst, frame, False, cause, prop, None)
        queue = self.queue
        if queue is not None:
            queue.lost(src, dst, frame, frame.size, now)
        return False

    def _enqueue(
        self, src: int, dst: int, frame: Any, entry: tuple, now: float
    ) -> Optional[bool]:
        """Hand a DATA copy that survived its hazards to the finite-capacity
        server, which fires its ``transmit`` probe; returns :meth:`send_data`'s
        tri-state. FIFO knows the copy's wait at once, so its delivery is
        scheduled here, at ``now + (wait + d_fwd)``, and reported like an
        unqueued send: ``True`` for a compiled delivery. The wire report is
        the last step: nothing draws a ``seq`` between it and the return.
        EDF schedules the delivery when the server picks the copy
        (``None``)."""
        wait = self.queue.admit(src, dst, frame, frame.size, now, entry[0])
        if wait is None:
            return None
        deliver = entry[4]
        if deliver is None:
            self._fire(
                wait + entry[0], self._deliver, src, dst, frame, FrameKind.DATA
            )
            self._report_wire(src, dst, frame, wait)
            return None
        self._fire(wait + entry[0], deliver, frame)
        self._report_wire(src, dst, frame, wait)
        return True

    def _ack_lost(self, src: int, dst: int, frame: Any) -> bool:
        fate = self._ack_fate
        if fate is not None:
            fate(src, dst, frame, None)
        return False

    def _deliver(self, src: int, dst: int, frame: Any, kind: FrameKind) -> None:
        # A node that crashed while the frame was in flight cannot receive it.
        node_failures = self.node_failures
        if node_failures is not None and node_failures.is_failed(dst, self.sim._now):
            self._lost_node_down[kind.idx] += 1
            if kind is FrameKind.DATA:
                probe = _probes.on_arrival_drop
                if probe is not None:
                    probe(self.sim._now, src, dst, frame, "node_down_arrival")
            return
        # The cached handler is current: attach/detach clear the cache.
        entry = self._dir_cache.get((src << 21) | dst)
        handler = entry[2] if entry is not None else self._handlers.get(dst)
        if handler is None:
            if kind is FrameKind.DATA:
                probe = _probes.on_arrival_drop
                if probe is not None:
                    probe(self.sim._now, src, dst, frame, "no_handler")
            return
        self._delivered[kind.idx] += 1
        if kind is FrameKind.DATA:
            probe = _probes.on_arrive
            if probe is not None:
                probe(self.sim._now, src, dst, frame)
        handler(src, frame)

    # ------------------------------------------------------------------
    # Wire-clear reports (finite-capacity links, see watch_wire)
    # ------------------------------------------------------------------
    def _report_wire(
        self, src: int, dst: int, frame: Any, wait: Optional[float]
    ) -> None:
        probe = _probes.on_wire
        if probe is not None:
            probe(self.sim._now, src, dst, frame, wait)
        for observer in self._wire_observers:
            observer(frame, wait)

    # ------------------------------------------------------------------
    # Convenience queries used by routing layers
    # ------------------------------------------------------------------
    def link_success_probability(self, u: int, v: int) -> float:
        """Long-run single-transmission success probability of link (u, v)."""
        pf = self.failures.failure_probability if self.failures is not None else 0.0
        loss = self.link_loss_rates.get(canonical_edge(u, v), self.loss_rate)
        return (1.0 - pf) * (1.0 - loss)
