"""Unit tests for the Multipath baseline."""

import pytest

from repro.routing.multipath import MultipathStrategy
from repro.routing.paths import shared_links
from tests.conftest import (
    ScriptedFailures,
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)


def diamond():
    return make_topology(
        [
            (0, 1, 0.010),
            (1, 3, 0.010),
            (0, 2, 0.020),
            (2, 3, 0.020),
        ]
    )


def run_once(topo, workload, failures=None, m=1, until=5.0):
    ctx = build_ctx(topo, workload, failures=failures, m=m)
    strategy = MultipathStrategy(ctx)
    strategy.setup()
    attach_brokers(ctx, strategy)
    spec = workload.topics[0]
    ctx.metrics.expect(1, spec.topic, 0.0, {s.node: s.deadline for s in spec.subscriptions})
    strategy.publish(spec, msg_id=1)
    ctx.sim.run(until=until)
    return ctx, strategy


class TestPathSelection:
    def test_two_disjoint_paths_chosen(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = MultipathStrategy(ctx)
        strategy.setup()
        primary, secondary = strategy.paths_for(0, 3)
        assert primary == [0, 1, 3]
        assert shared_links(primary, secondary) == 0

    def test_degenerate_topology_reuses_primary(self):
        topo = make_topology([(0, 1, 0.010)])
        workload = single_topic_workload(0, [(1, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = MultipathStrategy(ctx)
        strategy.setup()
        primary, secondary = strategy.paths_for(0, 1)
        assert primary == secondary == [0, 1]


class TestForwarding:
    def test_duplicates_arrive_via_both_paths(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload)
        outcome = ctx.metrics.outcome(1, 3)
        assert outcome.delivered
        assert outcome.duplicates == 1
        # First copy takes the fast path.
        assert outcome.delay == pytest.approx(0.020)

    def test_single_copy_when_paths_degenerate(self):
        topo = make_topology([(0, 1, 0.010)])
        workload = single_topic_workload(0, [(1, 1.0)])
        ctx, _ = run_once(topo, workload)
        outcome = ctx.metrics.outcome(1, 1)
        assert outcome.delivered and outcome.duplicates == 0

    def test_survives_failure_of_primary_path(self):
        topo = diamond()
        failures = ScriptedFailures({(0, 1): [(0.0, 100.0)]})
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures)
        outcome = ctx.metrics.outcome(1, 3)
        assert outcome.delivered
        assert outcome.delay == pytest.approx(0.040)  # secondary path

    def test_fails_when_both_paths_broken(self):
        topo = diamond()
        failures = ScriptedFailures(
            {(0, 1): [(0.0, 100.0)], (0, 2): [(0.0, 100.0)]}
        )
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, strategy = run_once(topo, workload, failures=failures)
        outcome = ctx.metrics.outcome(1, 3)
        assert not outcome.delivered
        assert outcome.gave_up
        assert strategy.abandoned == 2

    def test_traffic_doubles_against_tree(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert ctx.network.stats.data_sent() == 4  # two 2-hop copies

    def test_publisher_self_subscription_delivered_immediately(self):
        topo = diamond()
        workload = single_topic_workload(0, [(0, 1.0), (3, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert ctx.metrics.outcome(1, 0).delay == 0.0
        assert ctx.metrics.outcome(1, 3).delivered
        assert ctx.network.stats.data_sent() == 4  # no copy for the origin
