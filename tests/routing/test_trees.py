"""Unit tests for the R-Tree / D-Tree baselines."""

import pytest

from repro.routing.trees import DTreeStrategy, RTreeStrategy
from tests.conftest import (
    ScriptedFailures,
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)


def triangle():
    # Direct link 0-2 is one hop but slow; 0-1-2 is two hops but fast.
    return make_topology([(0, 1, 0.010), (1, 2, 0.010), (0, 2, 0.050)])


def run_once(strategy_cls, topo, workload, failures=None, m=1, until=5.0):
    ctx = build_ctx(topo, workload, failures=failures, m=m)
    strategy = strategy_cls(ctx)
    strategy.setup()
    attach_brokers(ctx, strategy)
    spec = workload.topics[0]
    ctx.metrics.expect(1, spec.topic, 0.0, {s.node: s.deadline for s in spec.subscriptions})
    strategy.publish(spec, msg_id=1)
    ctx.sim.run(until=until)
    return ctx, strategy


class TestTreeConstruction:
    def test_rtree_uses_fewest_hops(self):
        topo = triangle()
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = RTreeStrategy(ctx)
        strategy.setup()
        assert strategy.next_hop(0, 0, 2) == 2  # direct link

    def test_dtree_uses_lowest_delay(self):
        topo = triangle()
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = DTreeStrategy(ctx)
        strategy.setup()
        assert strategy.next_hop(0, 0, 2) == 1  # two fast hops

    def test_tree_edges_cover_all_subscribers(self):
        topo = triangle()
        workload = single_topic_workload(0, [(1, 1.0), (2, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = DTreeStrategy(ctx)
        strategy.setup()
        edges = strategy.tree_edges(0)
        assert (0, 1) in edges


class TestTreeForwarding:
    def test_delivers_on_healthy_network(self):
        topo = triangle()
        workload = single_topic_workload(0, [(1, 1.0), (2, 1.0)])
        ctx, _ = run_once(DTreeStrategy, topo, workload)
        assert ctx.metrics.outcome(1, 1).delivered
        assert ctx.metrics.outcome(1, 2).delivered

    def test_delivery_time_matches_path_delay(self):
        topo = triangle()
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, _ = run_once(DTreeStrategy, topo, workload)
        assert ctx.metrics.outcome(1, 2).delay == pytest.approx(0.020)

    def test_shared_subtree_sends_one_copy(self, data_sends):
        # Both subscribers behind node 1: exactly one frame on link 0-1.
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.010), (1, 3, 0.010)])
        workload = single_topic_workload(0, [(2, 1.0), (3, 1.0)])
        ctx, _ = run_once(DTreeStrategy, topo, workload)
        assert len(data_sends.on(0, 1)) == 1

    def test_no_reroute_on_failure(self):
        # The D-Tree path 0-1-2 is broken at link 1-2; the direct 0-2 link
        # is healthy but the tree must NOT use it.
        topo = triangle()
        failures = ScriptedFailures({(1, 2): [(0.0, 100.0)]})
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, strategy = run_once(DTreeStrategy, topo, workload, failures=failures)
        outcome = ctx.metrics.outcome(1, 2)
        assert not outcome.delivered
        assert outcome.gave_up
        assert strategy.abandoned == 1

    def test_retransmission_budget_helps_on_flaky_link(self):
        topo = make_topology([(0, 1, 0.010)])
        failures = ScriptedFailures({(0, 1): [(0.0, 0.015)]})
        workload = single_topic_workload(0, [(1, 1.0)])
        ctx, _ = run_once(DTreeStrategy, topo, workload, failures=failures, m=2)
        assert ctx.metrics.outcome(1, 1).delivered

    def test_publisher_self_subscription_delivered_immediately(self):
        topo = triangle()
        workload = single_topic_workload(0, [(0, 1.0), (2, 1.0)])
        ctx, _ = run_once(DTreeStrategy, topo, workload)
        assert ctx.metrics.outcome(1, 0).delay == 0.0
