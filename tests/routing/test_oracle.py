"""Unit tests for the clairvoyant ORACLE baseline."""

import pytest

from repro.overlay.links import FrameKind
from repro.routing.oracle import OracleStrategy, extract_path, time_dependent_paths
from tests.conftest import (
    ScriptedFailures,
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)


def triangle():
    return make_topology([(0, 1, 0.010), (1, 2, 0.010), (0, 2, 0.050)])


def run_once(topo, workload, failures=None, until=5.0, loss_rate=0.0, at=0.0):
    ctx = build_ctx(topo, workload, failures=failures, loss_rate=loss_rate)
    strategy = OracleStrategy(ctx)
    strategy.setup()
    attach_brokers(ctx, strategy)
    spec = workload.topics[0]

    def publish():
        ctx.metrics.expect(
            1, spec.topic, ctx.sim.now, {s.node: s.deadline for s in spec.subscriptions}
        )
        strategy.publish(spec, msg_id=1)

    ctx.sim.schedule(at, publish)
    ctx.sim.run(until=until)
    return ctx, strategy


class TestTimeDependentSearch:
    def test_no_failures_matches_dijkstra(self):
        topo = triangle()
        arrival, parent = time_dependent_paths(topo, None, 0, start_time=0.0)
        assert arrival[2] == pytest.approx(0.020)
        assert extract_path(parent, 0, 2) == [0, 1, 2]

    def test_failed_link_forces_detour(self):
        topo = triangle()
        failures = ScriptedFailures({(0, 1): [(0.0, 1.0)]})
        arrival, parent = time_dependent_paths(topo, failures, 0, start_time=0.0)
        assert extract_path(parent, 0, 2) == [0, 2]
        assert arrival[2] == pytest.approx(0.050)

    def test_availability_checked_at_departure_instant(self):
        # Link 1-2 fails only during [0, 0.005); departure from node 1
        # happens at t = 0.010, so the fast path is usable.
        topo = triangle()
        failures = ScriptedFailures({(1, 2): [(0.0, 0.005)]})
        _, parent = time_dependent_paths(topo, failures, 0, start_time=0.0)
        assert extract_path(parent, 0, 2) == [0, 1, 2]

    def test_unreachable_returns_none(self):
        topo = make_topology([(0, 1, 0.010)])
        failures = ScriptedFailures({(0, 1): [(0.0, 100.0)]})
        _, parent = time_dependent_paths(topo, failures, 0, start_time=0.0)
        assert extract_path(parent, 0, 1) is None

    def test_source_path_is_trivial(self):
        assert extract_path({}, 0, 0) == [0]


class TestOracleStrategy:
    def test_delivers_on_shortest_path(self):
        topo = triangle()
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert ctx.metrics.outcome(1, 2).delay == pytest.approx(0.020)

    def test_avoids_failed_link(self):
        topo = triangle()
        failures = ScriptedFailures({(0, 1): [(0.0, 1.0)]})
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures)
        outcome = ctx.metrics.outcome(1, 2)
        assert outcome.delivered
        assert outcome.delay == pytest.approx(0.050)

    def test_drops_when_no_feasible_path(self):
        topo = make_topology([(0, 1, 0.010)])
        failures = ScriptedFailures({(0, 1): [(0.0, 100.0)]})
        workload = single_topic_workload(0, [(1, 1.0)])
        ctx, strategy = run_once(topo, workload, failures=failures)
        assert not ctx.metrics.outcome(1, 1).delivered
        assert ctx.metrics.outcome(1, 1).gave_up
        assert strategy.abandoned == 1

    def test_immune_to_random_loss(self):
        topo = triangle()
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, _ = run_once(topo, workload, loss_rate=1.0)
        assert ctx.metrics.outcome(1, 2).delivered

    def test_sends_no_acks(self):
        topo = triangle()
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert ctx.network.stats.sent[FrameKind.ACK] == 0

    def test_shared_prefix_sends_one_copy(self, data_sends):
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.010), (1, 3, 0.010)])
        workload = single_topic_workload(0, [(2, 1.0), (3, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert len(data_sends.on(0, 1)) == 1
        assert ctx.metrics.outcome(1, 2).delivered
        assert ctx.metrics.outcome(1, 3).delivered

    def test_uses_future_knowledge_not_just_present(self):
        # At publish time (t=0.5) link 1-2 is up, but it will be down when
        # the packet would reach node 1 (t=0.51); the oracle must route
        # around it in advance.
        topo = triangle()
        failures = ScriptedFailures({(1, 2): [(0.505, 2.0)]})
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures, at=0.5)
        outcome = ctx.metrics.outcome(1, 2)
        assert outcome.delivered
        assert outcome.delay == pytest.approx(0.050)

    def test_avoids_crashed_relay_node(self):
        # Node 1 (the fast relay) is down for the first second; the oracle
        # must route via the slow direct link instead.
        from repro.overlay.failures import NodeFailureSchedule
        from repro.routing.oracle import time_dependent_paths

        topo = triangle()
        node_failures = NodeFailureSchedule(
            topo, 1.0, seed=1, protected_nodes=frozenset({0, 2})
        )
        _, parent = time_dependent_paths(
            topo, None, 0, start_time=0.0, node_failures=node_failures
        )
        assert extract_path(parent, 0, 2) == [0, 2]

    def test_crashed_source_is_unreachable_everywhere(self):
        from repro.overlay.failures import NodeFailureSchedule
        from repro.routing.oracle import time_dependent_paths

        topo = triangle()
        node_failures = NodeFailureSchedule(
            topo, 1.0, seed=1, protected_nodes=frozenset({1, 2})
        )
        arrival, parent = time_dependent_paths(
            topo, None, 0, start_time=0.0, node_failures=node_failures
        )
        assert arrival == {} and parent == {}

    def test_publisher_self_subscription(self):
        topo = triangle()
        workload = single_topic_workload(0, [(0, 1.0), (2, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert ctx.metrics.outcome(1, 0).delay == 0.0
