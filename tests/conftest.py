"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro import probes
from repro.metrics.collector import MetricsCollector
from repro.overlay.links import OverlayNetwork
from repro.overlay.monitor import LinkMonitor
from repro.overlay.topology import Topology, canonical_edge
from repro.pubsub.broker import BrokerRuntime
from repro.pubsub.topics import Subscription, TopicSpec, Workload
from repro.routing.base import ProtocolParams, RuntimeContext
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

import networkx as nx


@pytest.fixture(autouse=True)
def _no_leaked_process_globals():
    """Every test must hand the process-global observer state back idle.

    A leak is pinned on the test that caused it (as a teardown error) and
    the state is restored, so its successors still start clean.
    """
    yield
    leaks = [
        f"probes.on_{family} is compiled"
        for family in probes.FAMILIES
        if getattr(probes, "on_" + family) is not None
    ]
    leaks += [f"observer still attached: {o!r}" for o in probes.observers()]
    if leaks:
        for observer in probes.observers():
            probes.detach(observer)
        pytest.fail("test leaked process-global state:\n  " + "\n  ".join(leaks))


class _DataSends(probes.ProbeObserver):
    """Records every DATA transmission the probe bus reports."""

    def __init__(self) -> None:
        self.sends: list = []

    def on_transmit(self, t, src, dst, frame, survived, cause, prop, queue):
        self.sends.append((src, dst, survived))

    def on(self, src: int, dst: int) -> list:
        """Survival flags of the DATA frames sent ``src -> dst``, in order."""
        return [ok for s, d, ok in self.sends if (s, d) == (src, dst)]


@pytest.fixture
def data_sends():
    """Observer of every DATA frame handed to a link while the test runs,
    on whichever send path the network takes."""
    observer = _DataSends()
    probes.attach(observer)
    yield observer
    probes.detach(observer)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(1234)


def make_topology(
    edges: Iterable[Tuple[int, int, float]],
    name: str = "test",
) -> Topology:
    """Build a topology from explicit ``(u, v, delay_seconds)`` triples."""
    graph = nx.Graph()
    delay_map = {}
    nodes = set()
    for u, v, delay in edges:
        graph.add_edge(u, v)
        delay_map[canonical_edge(u, v)] = delay
        nodes.update((u, v))
    graph.add_nodes_from(range(max(nodes) + 1))
    return Topology(graph, delay_map, name=name)


def networkx_graph(topology: Topology) -> nx.Graph:
    """*topology*'s nodes and links as a networkx graph, in its edge order:
    an independent oracle for connectivity and path-length checks."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    graph.add_edges_from(topology.edges())
    return graph


def data_frame(label: str, size: float = 1.0) -> SimpleNamespace:
    """A stand-in DATA frame for link-level tests: a label to compare it
    by, and the ``size`` every DATA send adds to the sent volume."""
    return SimpleNamespace(label=label, size=size)


class ScriptedFailures:
    """Deterministic failure-schedule double.

    ``down`` maps canonical edges to a list of ``(start, end)`` windows
    during which the link is failed. Implements the same query surface as
    :class:`repro.overlay.failures.FailureSchedule`.
    """

    def __init__(self, down=None, failure_probability: float = 0.0, epoch: float = 1.0):
        self.down = {canonical_edge(*edge): list(windows) for edge, windows in (down or {}).items()}
        self.failure_probability = failure_probability
        self.epoch = epoch

    def is_failed(self, u: int, v: int, time: float) -> bool:
        for start, end in self.down.get(canonical_edge(u, v), ()):
            if start <= time < end:
                return True
        return False

    def epoch_index(self, time: float) -> int:
        return int(time // self.epoch)

    def failed_edges(self, epoch_index: int) -> frozenset:
        start = epoch_index * self.epoch
        return frozenset(
            edge
            for edge, windows in self.down.items()
            if any(s <= start < e for s, e in windows)
        )


def single_topic_workload(
    publisher: int,
    subscribers: Sequence[Tuple[int, float]],
    topic: int = 0,
    publish_interval: float = 1.0,
) -> Workload:
    """A workload with one topic and explicit subscriber deadlines."""
    spec = TopicSpec(
        topic=topic,
        publisher=publisher,
        subscriptions=tuple(
            Subscription(node=node, deadline=deadline) for node, deadline in subscribers
        ),
        publish_interval=publish_interval,
        phase=0.0,
    )
    return Workload(topics=[spec])


def build_ctx(
    topology: Topology,
    workload: Optional[Workload] = None,
    loss_rate: float = 0.0,
    failures=None,
    node_failures=None,
    m: int = 1,
    ack_timeout_factor: float = 2.0,
    seed: int = 99,
    monitor_mode: str = "analytic",
    **link_options,
) -> RuntimeContext:
    """Assemble a :class:`RuntimeContext` on a fresh simulator.

    *link_options* go to :class:`OverlayNetwork` (``service_time``,
    ``link_loss_rates``, ``queue_discipline``).
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    network = OverlayNetwork(
        sim,
        topology,
        streams,
        loss_rate=loss_rate,
        failures=failures,
        node_failures=node_failures,
        **link_options,
    )
    monitor = LinkMonitor(topology, network, streams, mode=monitor_mode)
    if workload is None:
        workload = Workload(topics=[])
    return RuntimeContext(
        sim=sim,
        topology=topology,
        network=network,
        monitor=monitor,
        workload=workload,
        metrics=MetricsCollector(),
        streams=streams,
        params=ProtocolParams(m=m, ack_timeout_factor=ack_timeout_factor),
    )


def attach_brokers(ctx: RuntimeContext, strategy) -> list:
    """Create one :class:`BrokerRuntime` per topology node."""
    return [BrokerRuntime(node, ctx, strategy) for node in ctx.topology.nodes]


def outcome_digest(env) -> list:
    """Every (message, subscriber) outcome of a finished run, comparable
    bit for bit across two runs of one world."""
    return sorted(
        (o.msg_id, o.subscriber, o.delivered, repr(o.delivery_time))
        for o in env.ctx.metrics.outcomes()
    )
