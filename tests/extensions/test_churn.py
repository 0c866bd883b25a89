"""Tests for subscriber churn under live traffic."""

import pytest

from repro.core.computation import compute_dr_table
from repro.core.forwarding import DcrdStrategy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.extensions.churn import ChurnProcess, churn_study, run_with_churn
from repro.pubsub.endpoints import PublisherProcess
from repro.pubsub.topics import Subscription
from tests.conftest import (
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)


def line4():
    return make_topology([(0, 1, 0.010), (1, 2, 0.010), (2, 3, 0.010)])


def make_dcrd(topo, workload):
    ctx = build_ctx(topo, workload)
    strategy = DcrdStrategy(ctx)
    strategy.setup()
    attach_brokers(ctx, strategy)
    return ctx, strategy


class TestIncrementalHooks:
    def test_join_builds_table_and_routes_traffic(self):
        topo = line4()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, strategy = make_dcrd(topo, workload)
        publisher = PublisherProcess(ctx, strategy, workload.topics[0], stop_time=4.5)
        publisher.start()
        # Node 1 joins at t = 2.
        def join():
            sub = Subscription(node=1, deadline=1.0)
            ctx.workload.add_subscription(0, sub)
            strategy.on_subscription_added(0, sub)

        ctx.sim.schedule(2.0, join)
        ctx.sim.run(until=10.0)
        outcomes = ctx.metrics.outcomes()
        new_sub_outcomes = [o for o in outcomes if o.subscriber == 1]
        assert len(new_sub_outcomes) >= 2  # packets published after the join
        assert all(o.delivered for o in new_sub_outcomes)

    def test_leave_stops_expectations_and_cleans_tables(self):
        topo = line4()
        workload = single_topic_workload(0, [(1, 1.0), (3, 1.0)])
        ctx, strategy = make_dcrd(topo, workload)
        publisher = PublisherProcess(ctx, strategy, workload.topics[0], stop_time=4.5)
        publisher.start()

        def leave():
            ctx.workload.remove_subscription(0, 1)
            strategy.on_subscription_removed(0, 1)

        ctx.sim.schedule(2.0, leave)
        ctx.sim.run(until=10.0)
        late_packets = [
            o
            for o in ctx.metrics.outcomes()
            if o.subscriber == 1 and o.publish_time > 2.0
        ]
        assert late_packets == []  # no expectations after the leave
        assert strategy.sending_list(0, 1, 0) == ()

    def test_remaining_subscriber_unaffected_by_peer_leave(self):
        topo = line4()
        workload = single_topic_workload(0, [(1, 1.0), (3, 1.0)])
        ctx, strategy = make_dcrd(topo, workload)
        publisher = PublisherProcess(ctx, strategy, workload.topics[0], stop_time=4.5)
        publisher.start()
        ctx.sim.schedule(2.0, lambda: (
            ctx.workload.remove_subscription(0, 1),
            strategy.on_subscription_removed(0, 1),
        ))
        ctx.sim.run(until=10.0)
        for outcome in ctx.metrics.outcomes():
            if outcome.subscriber == 3:
                assert outcome.delivered


    def test_joins_are_counted_and_solved_by_the_refresh_solver(self):
        """Each join is one more solved table on the strategy's counters,
        through the solver the last refresh built (no new Dijkstra), and
        the table is what a standalone solve gives."""
        config = ExperimentConfig(
            topology_kind="regular", degree=4, num_nodes=12, num_topics=4,
            duration=10.0,
        )
        env = build_environment(config, "DCRD", seed=3)
        ctx, strategy = env.ctx, env.strategy
        before = strategy.perf.snapshot()
        solved_on_join = []
        added = strategy.on_subscription_added

        def checked_add(topic, subscription):
            added(topic, subscription)
            standalone = compute_dr_table(
                ctx.topology,
                ctx.monitor.estimates(),
                ctx.workload.topic(topic).publisher,
                subscription.node,
                subscription.deadline,
                m=ctx.params.m,
            )
            solved_on_join.append(
                strategy.table(topic, subscription.node) == standalone
            )

        strategy.on_subscription_added = checked_add
        churn = ChurnProcess(ctx, strategy, rate=4.0, stop_time=config.duration)
        churn.start()
        env.execute()
        assert churn.joins >= 3
        assert solved_on_join == [True] * churn.joins

        def grew(counter):
            name = f"control_plane.{counter}"
            return strategy.perf.get(name) - before[name]

        assert grew("refreshes") == 0
        assert grew("tables_solved_cold") == churn.joins
        assert grew("dijkstra_calls") == 0
        assert grew("jacobi_rounds") > 0


class TestChurnProcess:
    def test_flips_happen_and_population_stays_valid(self):
        config = ExperimentConfig(
            topology_kind="regular", degree=4, num_nodes=12, num_topics=4,
            duration=10.0,
        )
        summary, churn = run_with_churn(config, "DCRD", seed=3, churn_rate=4.0)
        assert churn.joins + churn.leaves > 5
        assert summary.delivery_ratio > 0.95

    def test_every_topic_keeps_a_subscriber(self):
        config = ExperimentConfig(
            topology_kind="regular", degree=4, num_nodes=10, num_topics=3,
            duration=8.0,
        )
        env = build_environment(config, "DCRD", seed=1)
        churn = ChurnProcess(env.ctx, env.strategy, rate=10.0, stop_time=8.0)
        churn.start()
        env.execute()
        for spec in env.ctx.workload.topics:
            assert len(spec.subscriptions) >= 1

    def test_tree_strategy_survives_churn(self):
        config = ExperimentConfig(
            topology_kind="regular", degree=4, num_nodes=12, num_topics=4,
            duration=8.0,
        )
        summary, _ = run_with_churn(config, "D-Tree", seed=2, churn_rate=4.0)
        assert summary.delivery_ratio > 0.9

    def test_multipath_strategy_survives_churn(self):
        config = ExperimentConfig(
            topology_kind="regular", degree=4, num_nodes=12, num_topics=4,
            duration=8.0,
        )
        summary, _ = run_with_churn(config, "Multipath", seed=2, churn_rate=4.0)
        assert summary.delivery_ratio > 0.9


class TestChurnStudy:
    def test_axis_and_strategies(self):
        result = churn_study(
            duration=4.0,
            seeds=(0,),
            churn_rates=(0.0, 4.0),
            strategies=("DCRD", "D-Tree"),
        )
        assert result.x_values == [0.0, 4.0]
        for rate in result.x_values:
            assert result.cell(rate, "DCRD").delivery_ratio > 0.9
