"""The strategy interface every routing scheme implements.

A :class:`RoutingStrategy` owns the routing logic of *all* brokers of one
simulation run (the run is single-process; per-broker state lives in
strategy-internal tables keyed by node id). The
:class:`~repro.pubsub.broker.BrokerRuntime` handles the mechanics every
scheme shares — ACKing received DATA frames, duplicate suppression, local
subscriber delivery — and delegates the forwarding decision here.

:class:`RuntimeContext` bundles the substrate a strategy works against, and
:class:`ProtocolParams` the paper's protocol knobs (``m``, the per-link
transmission budget of §III-A, and the ACK-timeout factor).

The context also owns the run's identities: the message- and
transfer-id counters every publisher and frame-building site draws from,
so two runs in one process never share an id space.

``RuntimeContext.sim`` and ``RuntimeContext.network`` are duck-typed
against the :mod:`repro.substrate` protocols rather than concrete
classes: ``sim`` is any Clock (``_now`` readable as an attribute,
``schedule``/``schedule_fire``), ``network`` any Transport
(``attach``/``detach``/``send_data``/``send_ack``). The
discrete-event kernel and the live asyncio stack both satisfy them, so
strategies never branch on the substrate.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, FrozenSet, Iterable, Iterator, Optional

from repro.metrics.collector import MetricsCollector
from repro.overlay.links import OverlayNetwork
from repro.overlay.monitor import LinkMonitor
from repro.overlay.topology import Topology
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec, Workload
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.validation import require, require_positive

if TYPE_CHECKING:  # pragma: no cover - the ARQ module imports this one
    from repro.routing.arq import ArqSender


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level knobs shared by the ACK-based schemes.

    Attributes
    ----------
    m:
        Number of transmissions a sender tries on one link before moving on
        (paper's ``m``; default 1, the paper's main setting — see Fig. 8).
    ack_timeout_factor:
        The ACK timer is ``ack_timeout_factor * alpha_Xk``. The paper waits
        "``alpha_Xk`` of time"; a one-way expectation cannot cover the
        request+ACK round trip, so the default factor is 2.0 (DESIGN.md §2).
    ack_timeout_slack:
        Small additive slack (seconds) on top of the multiplicative timer,
        protecting against zero-delay degenerate links in tests.
    """

    m: int = 1
    ack_timeout_factor: float = 2.0
    ack_timeout_slack: float = 0.001

    def __post_init__(self) -> None:
        require(self.m >= 1, f"m must be >= 1, got {self.m}")
        require_positive(self.ack_timeout_factor, "ack_timeout_factor")
        require(self.ack_timeout_slack >= 0, "ack_timeout_slack must be >= 0")

    def ack_timeout(self, link_alpha: float) -> float:
        """ACK timer duration for a link with expected one-way delay *alpha*."""
        return self.ack_timeout_factor * link_alpha + self.ack_timeout_slack


@dataclass
class RuntimeContext:
    """Everything a routing strategy may touch during a run."""

    sim: Simulator
    topology: Topology
    network: OverlayNetwork
    monitor: LinkMonitor
    workload: Workload
    metrics: MetricsCollector
    streams: RandomStreams
    params: ProtocolParams = field(default_factory=ProtocolParams)
    #: The run's :class:`~repro.ordering.plan.OrderingPlan`, or ``None``
    #: (the default — ordering off). Broker runtimes read it to decide
    #: whether local deliveries flow through a hold-back pipeline, and
    #: publish sites hand it to ``PacketFrame.fresh``, which stamps.
    ordering: Any = None
    #: The run's message-id allocator: publishers take ``next()`` of it.
    message_ids: Iterator[int] = field(default_factory=partial(itertools.count, 1))
    #: The run's transfer-id allocator: every frame-building site takes
    #: ``next()`` of it for each copy it creates. A fleet partition's
    #: counter starts at its stripe (``repro.live.broker``).
    transfer_ids: Iterator[int] = field(default_factory=partial(itertools.count, 1))


class RoutingStrategy(abc.ABC):
    """Base class of DCRD and all baselines.

    Lifecycle: construct with a :class:`RuntimeContext`, then the runner
    calls :meth:`setup` once before publishing starts. During the run the
    broker runtimes call :meth:`handle_data` / :meth:`handle_ack`, and
    publisher processes call :meth:`publish`.
    """

    #: Short name used in reports ("DCRD", "R-Tree", ...).
    name: str = "abstract"

    #: Whether broker runtimes should send hop-by-hop ACKs for this scheme.
    uses_acks: bool = True

    #: The run's hop-by-hop ARQ sender; ``None`` for a scheme without ACKs.
    arq: Optional["ArqSender"] = None

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx
        #: DATA frame copies this strategy handed to the link layer for
        #: forwarding (retransmissions excluded); surfaced by the perf
        #: snapshot as ``data_plane.frames_forwarded``.
        self.frames_forwarded = 0
        #: Destinations this strategy gave up on (:meth:`give_up`); surfaced
        #: as ``data_plane.abandoned``.
        self.abandoned = 0

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Build routing state before traffic starts (trees, sending lists)."""

    def on_monitor_refresh(self) -> None:
        """Called after each periodic link-monitoring cycle (default: no-op).

        A strategy may defer the work the new estimates call for until it
        next reads its control state (DCRD marks its tables stale here and
        solves them at the first read)."""

    def on_subscription_added(self, topic: int, subscription) -> None:
        """A subscriber joined *topic* at runtime.

        The workload has already been updated; the default reaction is a
        full :meth:`setup` rebuild, which is correct (if blunt) for every
        strategy. DCRD overrides this with an incremental update.
        """
        self.setup()

    def on_subscription_removed(self, topic: int, node: int) -> None:
        """A subscriber left *topic* at runtime (default: full rebuild)."""
        self.setup()

    # ------------------------------------------------------------------
    # Data-plane entry points
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Inject a fresh message of *spec* at its publisher's broker."""

    @abc.abstractmethod
    def handle_data(self, node: int, sender: int, frame: PacketFrame) -> None:
        """React to a DATA frame that arrived at *node* from *sender*.

        *frame.destinations* has already been stripped of subscribers local
        to *node* (the broker runtime delivered those); it is non-empty.
        """

    def handle_ack(self, node: int, sender: int, ack: AckFrame) -> None:
        """React to an ACK that arrived at *node* from *sender* (no-op default)."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def deliver_at_origin(
        self, spec: TopicSpec, msg_id: int, destinations: FrozenSet[int]
    ) -> FrozenSet[int]:
        """Deliver to a subscriber at the publisher's own broker.

        Returns *destinations* without the publisher: the subscribers the
        network still has to reach.
        """
        if spec.publisher in destinations:
            self.ctx.metrics.record_delivery(msg_id, spec.publisher, self.ctx.sim.now)
            return destinations - {spec.publisher}
        return destinations

    def give_up(self, msg_id: int, destinations: Iterable[int]) -> None:
        """Abandon *destinations* of message *msg_id*: count and record each.

        A give-up is advisory. The collector ignores it for a pair already
        delivered, and another copy may still deliver the pair later.
        """
        record = self.ctx.metrics.record_give_up
        for subscriber in destinations:
            self.abandoned += 1
            record(msg_id, subscriber)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
