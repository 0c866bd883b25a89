"""Scripted differential scenarios, shared by the sim and live substrates.

A :class:`Scenario` is a complete adversarial world — topology, workload,
protocol parameters, and a *fault script* — defined once and executed on
both substrates: :func:`run_sim_scenario` builds the discrete-event stack
and :func:`repro.live.runtime.run_live_scenario` builds the asyncio TCP
stack, each with its own :func:`~repro.live.faults.link_filter` of fresh
rules installed at its transport seam
(``OverlayNetwork.install_fault_filter``, which ``LiveTransport``
inherits). The conformance suite asserts the two executions agree.

Scenario fault scripts are deliberately restricted to *whole-run,
per-direction, per-kind drop-all rules* (dead links, dead ACK
directions). Those make the delivered-pair set a timing-independent
function of the world: which copies die never depends on when a frame
crosses the seam, so wall-clock jitter cannot change what the live run
delivers.

Timing margins: scenarios run with ``ack_timeout_factor=3.0`` and a
250 ms slack so a loopback RTT (imposed link delays ≈ 2·alpha plus
scheduler noise) can never spuriously overrun an ACK timer — spurious
retransmits would not change the delivered set, but they would make
counter comparisons noisy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.core.forwarding import DcrdStrategy
from repro.live.faults import DropRule, ack_loss_rules, dead_link_rules, link_filter
from repro.ordering.plan import plan_from_scenario
from repro.overlay.links import OverlayNetwork
from repro.overlay.topology import Graph, Topology, canonical_edge
from repro.pubsub.topics import Subscription, TopicSpec, Workload
from repro.record import RunRecord
from repro.routing.base import ProtocolParams, RuntimeContext
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.stack import observed, wire_stack
from repro.util.errors import ConfigurationError

#: Scenario kinds the conformance suite iterates over.
SCENARIO_KINDS = ("clean", "link_loss", "ack_loss", "failover_bounce")


@dataclass
class Scenario:
    """One scripted differential world (see module docstring)."""

    name: str
    edges: Sequence[Tuple[int, int, float]]
    publisher: int
    subscribers: Sequence[Tuple[int, float]]
    rules: Callable[[], Tuple[DropRule, ...]] = lambda: ()
    topic: int = 0
    publishes: int = 3
    publish_interval: float = 0.06
    m: int = 2
    ack_timeout_factor: float = 3.0
    ack_timeout_slack: float = 0.25
    end_time: float = 20.0
    # Opt-in delivery-ordering guarantee ("LEVEL[:topic,...]"), threaded
    # identically through both substrates via plan_from_scenario (which
    # widens the stall/hold windows past worst-case retransmit recovery
    # so timing jitter cannot change what a hold-back releases).
    ordering: Optional[str] = None

    def topology(self) -> Topology:
        graph = Graph()
        delays = {}
        for u, v, delay in self.edges:
            graph.add_edge(u, v)
            delays[canonical_edge(u, v)] = delay
        graph.add_nodes_from(range(max(graph.nodes()) + 1))
        return Topology(graph, delays, name=self.name)

    def workload(self) -> Workload:
        spec = TopicSpec(
            topic=self.topic,
            publisher=self.publisher,
            subscriptions=tuple(
                Subscription(node=node, deadline=deadline)
                for node, deadline in self.subscribers
            ),
            publish_interval=self.publish_interval,
            phase=0.0,
        )
        return Workload(topics=[spec])

    def params(self) -> ProtocolParams:
        return ProtocolParams(
            m=self.m,
            ack_timeout_factor=self.ack_timeout_factor,
            ack_timeout_slack=self.ack_timeout_slack,
        )


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """JSON-safe form of *scenario*, fault rules included.

    The rules callable is evaluated once and serialized as
    :meth:`~repro.live.faults.DropRule.to_dict` specs, so the identical
    adversary travels with the config: every broker process of a cluster
    (and the sim runner, through :func:`~repro.live.faults.link_filter`)
    rebuilds the same fresh rules from the same dicts.
    """
    data = {field.name: getattr(scenario, field.name) for field in fields(Scenario)}
    data["edges"] = [[u, v, delay] for u, v, delay in scenario.edges]
    data["subscribers"] = [[node, deadline] for node, deadline in scenario.subscribers]
    data["rules"] = [rule.to_dict() for rule in scenario.rules()]
    return data


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Rebuild a :class:`Scenario` from :func:`scenario_to_dict` output.

    The deserialized ``rules`` callable returns *fresh* (zero-state)
    :class:`DropRule` instances on every call, matching the construction
    convention of the scripted scenarios.
    """
    unknown = set(data) - {field.name for field in fields(Scenario)}
    if unknown:
        raise ConfigurationError(f"unknown scenario field(s): {sorted(unknown)}")
    rule_specs = tuple(dict(spec) for spec in data.get("rules", ()))
    for spec in rule_specs:
        DropRule.from_dict(spec)  # validate eagerly, not at first rules() call
    # An omitted field takes the dataclass default.
    return Scenario(
        **{
            **data,
            "edges": tuple((u, v, delay) for u, v, delay in data["edges"]),
            "subscribers": tuple((node, deadline) for node, deadline in data["subscribers"]),
            "rules": lambda: tuple(DropRule.from_dict(spec) for spec in rule_specs),
        }
    )


#: The 6-node ring + chords world of the clean/link-loss/ACK-loss kinds.
#: The (0, 3) chord is the shortest 0 -> 3 route, so killing it (or its
#: ACK direction) forces retransmission, failover and re-dispatch while
#: the ring keeps every pair reachable.
_RING_EDGES = (
    (0, 1, 0.02),
    (1, 2, 0.02),
    (2, 3, 0.02),
    (3, 4, 0.02),
    (4, 5, 0.02),
    (5, 0, 0.02),
    (0, 3, 0.025),
    (1, 4, 0.025),
)
_RING_SUBSCRIBERS = ((2, 5.0), (3, 5.0), (4, 5.0))

#: The PR-4 diamond: 0-1-3 is the fast path, 0-2-3 the failover path.
_DIAMOND_EDGES = ((0, 1, 0.02), (1, 3, 0.02), (0, 2, 0.04), (2, 3, 0.04))


def make_scenario(kind: str, seed: int = 0) -> Scenario:
    """The scripted world of *kind* (see :data:`SCENARIO_KINDS`)."""
    if kind == "clean":
        return Scenario(
            name="clean",
            edges=_RING_EDGES,
            publisher=0,
            subscribers=_RING_SUBSCRIBERS,
        )
    if kind == "link_loss":
        # The 0-3 chord silently eats every frame: DATA copies die on the
        # wire, the m-budget drains, and DCRD fails over onto the ring.
        return Scenario(
            name="link_loss",
            edges=_RING_EDGES,
            publisher=0,
            subscribers=_RING_SUBSCRIBERS,
            rules=lambda: dead_link_rules(0, 3),
        )
    if kind == "ack_loss":
        # Data crosses the chord fine; the 3 -> 0 ACKs never come back.
        # Every chord copy is delivered yet unacknowledged, so the sender
        # retransmits, abandons, and re-dispatches over the ring — the
        # receiver's dedup keeps delivery at-most-once throughout.
        return Scenario(
            name="ack_loss",
            edges=_RING_EDGES,
            publisher=0,
            subscribers=_RING_SUBSCRIBERS,
            rules=lambda: ack_loss_rules(3, 0),
        )
    if kind == "failover_bounce":
        # The golden diamond: the 1 -> 3 fast path is dead, broker 1 has
        # no sideways alternative, so the copy bounces upstream (§III-D)
        # and node 0 re-dispatches through 2.
        return Scenario(
            name="failover_bounce",
            edges=_DIAMOND_EDGES,
            publisher=0,
            subscribers=((3, 5.0),),
            rules=lambda: dead_link_rules(1, 3),
        )
    raise ConfigurationError(
        f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}"
    )


# ---------------------------------------------------------------------------
# Shared accounting
# ---------------------------------------------------------------------------
class AcceptLedger:
    """Probe observer recording post-dedup accepts and local deliveries.

    ``accepts[(transfer_id, node)]`` must never exceed 1 — that is the
    at-most-once-post-dedup contract the conformance suite asserts on both
    substrates (a sanitizing record checks it live; the ledger makes it an
    explicit, comparable artifact).
    """

    def __init__(self) -> None:
        self.accepts: Dict[Tuple[int, int], int] = {}
        self.deliveries: List[Tuple[int, int]] = []

    def probe_handlers(self) -> Dict[str, Callable[..., Any]]:
        return {"broker_accept": self._on_accept, "deliver": self._on_deliver}

    def _on_accept(self, node: int, sender: int, frame: Any) -> None:
        key = (frame.transfer_id, node)
        self.accepts[key] = self.accepts.get(key, 0) + 1

    def _on_deliver(self, t: float, node: int, frame: Any) -> None:
        self.deliveries.append((frame.msg_id, node))


def reduce_run(
    ctx: RuntimeContext,
    strategy: DcrdStrategy,
    ledger: AcceptLedger,
    record: Optional[RunRecord],
    nodes: Collection[int],
    codec_errors: int = 0,
) -> Dict[str, Any]:
    """The JSON-safe end-of-run facts of one finished stack.

    The one reducer behind :func:`harvest` and
    :meth:`repro.live.broker.PartitionRuntime.report`. *nodes* are the
    brokers the caller hosts: the probe bus is process-global, so the
    ledger of a partition co-located with others (the in-process
    partition tests) hears all of them and is filtered here.
    *codec_errors* counts the wire frames the caller's socket transport
    had to reject (a simulated run has no wire: 0).
    """
    delivered: List[Tuple[int, int]] = []
    gave_up: List[Tuple[int, int]] = []
    delays: List[Tuple[int, int, float]] = []
    for o in ctx.metrics.outcomes():
        if o.delivered:
            delivered.append((o.msg_id, o.subscriber))
            delays.append((o.msg_id, o.subscriber, o.delay))
        elif o.gave_up:
            # Given up and never delivered: one branch may abandon a pair
            # that another delivers, and merge_reports counts such a pair
            # delivered.
            gave_up.append((o.msg_id, o.subscriber))
    deliveries = tuple(pair for pair in ledger.deliveries if pair[1] in nodes)
    facts: Dict[str, Any] = {
        "delivered": tuple(sorted(delivered)),
        "gave_up": tuple(sorted(gave_up)),
        "delays": tuple(sorted(delays)),
        "duplicates": ctx.metrics.duplicate_count(),
        # At-most-once post-dedup: must never exceed 1.
        "max_accepts_per_transfer": max(
            (n for (_, node), n in ledger.accepts.items() if node in nodes),
            default=0,
        ),
        "deliveries": tuple(sorted(deliveries)),
        # Unsorted arrival order of (msg_id, node) pairs: per-node
        # subsequences are what the ordering conformance suite compares.
        "delivery_order": deliveries,
        "retransmissions": strategy.arq.retransmissions,
        "abandoned": strategy.abandoned,
        "in_flight": strategy.arq.in_flight,
        "codec_errors": codec_errors,
    }
    if record is not None and record.sanitize:
        perf = record.perf_counters()
        facts["timers_started"] = perf["sanity.timers_started"]
        facts["timers_settled"] = perf["sanity.timers_settled"]
        facts["violations"] = perf["sanity.violations"]
    if record is not None and record.trace:
        # The lifecycle stream as JSON-safe rows; a fleet merges and
        # sorts the partitions' rows.
        facts["trace"] = [
            [e.t, e.kind, e.msg, e.transfer, e.node, e.peer] for e in record.events()
        ]
    return facts


def harvest(
    scenario: Scenario,
    ctx: RuntimeContext,
    strategy: DcrdStrategy,
    ledger: AcceptLedger,
    record: Optional[RunRecord],
    codec_errors: int = 0,
) -> Dict[str, Any]:
    """Reduce one finished run (either substrate) to its comparable facts."""
    facts = reduce_run(ctx, strategy, ledger, record, ctx.topology.nodes, codec_errors)
    return {
        "scenario": scenario.name,
        "published": ctx.metrics.messages_published,
        "expected": ctx.metrics.expected_deliveries,
        **facts,
        "delivered": frozenset(facts["delivered"]),
        "gave_up": frozenset(facts["gave_up"]),
    }


# ---------------------------------------------------------------------------
# The simulated execution of a scenario
# ---------------------------------------------------------------------------
def run_sim_scenario(
    scenario: Scenario, seed: int = 0, sanitize: bool = True
) -> Dict[str, Any]:
    """Execute *scenario* on the discrete-event substrate."""
    topology = scenario.topology()
    sim = Simulator()
    streams = RandomStreams(seed)
    network = OverlayNetwork(sim, topology, streams, loss_rate=0.0)
    rules = scenario.rules()
    if rules:
        network.install_fault_filter(link_filter(rules))
    ctx, strategy, _ = wire_stack(
        sim,
        topology,
        network,
        streams,
        scenario.workload(),
        scenario.params(),
        ordering=plan_from_scenario(scenario.ordering),
    )
    record = RunRecord(sanitize=True) if sanitize else None
    ledger = AcceptLedger()
    spec = ctx.workload.topic(scenario.topic)
    deadlines = {sub.node: sub.deadline for sub in spec.subscriptions}

    def publish_one() -> None:
        msg_id = next(ctx.message_ids)
        ctx.metrics.expect(msg_id, scenario.topic, sim.now, deadlines)
        strategy.publish(spec, msg_id)

    for i in range(scenario.publishes):
        sim.schedule(i * scenario.publish_interval, publish_one)
    with observed(ctx, record, observers=[ledger]):
        sim.run(until=scenario.end_time)
    return harvest(scenario, ctx, strategy, ledger, record)
