"""Behavioural tests for the DCRD strategy (Algorithms 1 and 2)."""

import pytest

from repro.core.computation import compute_dr_table
from repro.core.forwarding import DcrdStrategy
from repro.pubsub.topics import Subscription
from tests.conftest import (
    ScriptedFailures,
    attach_brokers,
    build_ctx,
    make_topology,
    single_topic_workload,
)

ALWAYS = (0.0, 1e9)


def diamond():
    # Fast route 0-1-3, slow route 0-2-3.
    return make_topology(
        [
            (0, 1, 0.010),
            (1, 3, 0.010),
            (0, 2, 0.020),
            (2, 3, 0.020),
        ]
    )


def run_once(topo, workload, failures=None, m=1, until=10.0, loss_rate=0.0):
    ctx = build_ctx(topo, workload, failures=failures, m=m, loss_rate=loss_rate)
    strategy = DcrdStrategy(ctx)
    strategy.setup()
    attach_brokers(ctx, strategy)
    spec = workload.topics[0]
    ctx.metrics.expect(1, spec.topic, 0.0, {s.node: s.deadline for s in spec.subscriptions})
    strategy.publish(spec, msg_id=1)
    ctx.sim.run(until=until)
    return ctx, strategy


class TestHealthyNetwork:
    def test_delivers_via_fastest_route(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload)
        outcome = ctx.metrics.outcome(1, 3)
        assert outcome.delivered
        assert outcome.delay == pytest.approx(0.020)

    def test_single_copy_on_healthy_network(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload)
        # exactly the two hops of the fast path
        assert ctx.network.stats.data_sent() == 2

    def test_delivery_records_the_hops_of_its_copy(self):
        # With a slow direct link 0-3 added, DCRD still takes the fast two-hop
        # route: delay-optimal is not hop-optimal.
        topo = make_topology(
            [(0, 1, 0.010), (1, 3, 0.010), (0, 2, 0.020), (2, 3, 0.020), (0, 3, 0.060)]
        )
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert ctx.metrics.outcome(1, 3).hops == 2

    def test_destination_merging_shares_frames(self, data_sends):
        # Subscribers at 2 and 3 both behind node 1.
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.010), (1, 3, 0.010)])
        workload = single_topic_workload(0, [(2, 1.0), (3, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert len(data_sends.on(0, 1)) == 1
        assert ctx.metrics.outcome(1, 2).delivered
        assert ctx.metrics.outcome(1, 3).delivered


class TestFailureBypass:
    def test_switches_to_next_neighbor_when_first_times_out(self):
        topo = diamond()
        failures = ScriptedFailures({(0, 1): [ALWAYS]})
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures)
        outcome = ctx.metrics.outcome(1, 3)
        assert outcome.delivered
        # Timeout on 0->1 (2*alpha + slack), then the slow path's 40 ms.
        assert outcome.delay == pytest.approx(0.021 + 0.040, abs=0.002)

    def test_upstream_bounce_explores_alternate_branch(self, data_sends):
        # Link 1-3 dies after the packet is already at node 1; node 1 has
        # no other downstream option, so it must bounce to node 0, which
        # then uses the 0-2-3 branch.
        topo = diamond()
        failures = ScriptedFailures({(1, 3): [ALWAYS]})
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures)
        outcome = ctx.metrics.outcome(1, 3)
        assert outcome.delivered
        assert len(data_sends.on(1, 0)) == 1

    def test_bounced_copy_does_not_revisit_failed_branch(self, data_sends):
        topo = diamond()
        failures = ScriptedFailures({(1, 3): [ALWAYS]})
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures)
        # After the bounce, node 0 must not send the copy to node 1 again.
        assert len(data_sends.on(0, 1)) == 1

    def test_gives_up_when_origin_fully_cut(self):
        topo = diamond()
        failures = ScriptedFailures({(0, 1): [ALWAYS], (0, 2): [ALWAYS]})
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, strategy = run_once(topo, workload, failures=failures)
        outcome = ctx.metrics.outcome(1, 3)
        assert not outcome.delivered
        assert outcome.gave_up
        assert strategy.abandoned >= 1

    def test_gives_up_when_subscriber_isolated(self):
        # All links into the subscriber dead; every branch must bounce back
        # and the origin eventually abandons. The run must terminate.
        topo = diamond()
        failures = ScriptedFailures({(1, 3): [ALWAYS], (2, 3): [ALWAYS]})
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, strategy = run_once(topo, workload, failures=failures)
        assert not ctx.metrics.outcome(1, 3).delivered
        assert ctx.metrics.outcome(1, 3).gave_up

    def test_retransmission_budget_recovers_transient_blip(self):
        topo = make_topology([(0, 1, 0.010)])
        failures = ScriptedFailures({(0, 1): [(0.0, 0.015)]})
        workload = single_topic_workload(0, [(1, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures, m=2)
        assert ctx.metrics.outcome(1, 1).delivered


class TestControlPlane:
    def test_tables_built_for_every_pair(self):
        topo = diamond()
        workload = single_topic_workload(0, [(1, 1.0), (3, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = DcrdStrategy(ctx)
        strategy.setup()
        assert strategy.table(0, 1).subscriber == 1
        assert strategy.table(0, 3).subscriber == 3

    def test_sending_list_orders_fast_branch_first(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = DcrdStrategy(ctx)
        strategy.setup()
        assert strategy.sending_list(0, 3, 0)[0] == 1

    def test_unchanged_estimates_skip_rebuild(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, strategy = run_once(topo, workload)
        assert strategy.table_rebuilds == 1
        cached = dict(strategy._dispatch_cache)
        assert cached
        ctx.monitor.refresh()
        strategy.on_monitor_refresh()
        # A read after the refresh would solve stale tables; analytic
        # estimates are unchanged, so there are none, and the flow cache
        # survives.
        assert strategy.sending_list(0, 3, 0) == (1, 2)
        assert strategy.table_rebuilds == 1
        assert strategy.perf.get("control_plane.refreshes_noop") == 1
        assert strategy._dispatch_cache == cached

    @pytest.mark.parametrize(
        "edge, near_deadline, reused",
        # Only brokers 0 and 1 have a positive budget towards subscriber 1:
        # (3, 4) lies past that horizon and (2, 3) on it (broker 2's budget
        # is exactly 0); (1, 2) has one endpoint inside, which is enough to
        # reach the table.
        [((3, 4), 0.015, 1), ((2, 3), 0.02, 1), ((1, 2), 0.015, 0)],
    )
    def test_gamma_change_out_of_reach_reuses_the_table(
        self, edge, near_deadline, reused
    ):
        topo = make_topology([(n, n + 1, 0.010) for n in range(4)])
        workload = single_topic_workload(0, [(1, near_deadline), (4, 1.0)])
        ctx = build_ctx(topo, workload)
        strategy = DcrdStrategy(ctx)
        strategy.setup()
        ctx.network.link_loss_rates[edge] = 0.1
        ctx.monitor.refresh()
        assert ctx.monitor.last_changed == {edge}
        strategy.on_monitor_refresh()
        assert strategy.table(0, 4).subscriber == 4
        assert strategy.perf.get("control_plane.tables_reused") == reused
        assert strategy.perf.get("control_plane.tables_solved_cold") == 4 - reused
        for subscriber, deadline in ((1, near_deadline), (4, 1.0)):
            assert strategy.table(0, subscriber) == compute_dr_table(
                topo, ctx.monitor.estimates(), 0, subscriber, deadline
            )

    def test_publish_with_self_subscription(self):
        topo = diamond()
        workload = single_topic_workload(0, [(0, 1.0), (3, 1.0)])
        ctx, _ = run_once(topo, workload)
        assert ctx.metrics.outcome(1, 0).delay == 0.0
        assert ctx.metrics.outcome(1, 3).delivered


class TestOnDemandRefresh:
    """A refresh that moved the estimates only marks the tables stale; the
    first read solves them, once, in one batch."""

    def sampled(self):
        topo = diamond()
        workload = single_topic_workload(0, [(2, 1.0), (3, 1.0)])
        # Sampled estimates of lossy links move at (almost) every refresh.
        ctx = build_ctx(topo, workload, monitor_mode="sampled", loss_rate=0.2)
        strategy = DcrdStrategy(ctx)
        strategy.setup()
        return ctx, strategy

    def refresh(self, ctx, strategy):
        version = ctx.monitor.version
        ctx.monitor.refresh()
        assert ctx.monitor.version == version + 1
        strategy.on_monitor_refresh()

    def work(self, strategy):
        return (
            strategy.table_rebuilds,
            strategy.perf.get("control_plane.tables_solved_cold"),
        )

    def test_refresh_without_a_read_solves_nothing(self):
        ctx, strategy = self.sampled()
        assert self.work(strategy) == (1, 2)
        self.refresh(ctx, strategy)
        assert self.work(strategy) == (1, 2)
        assert strategy.perf.get("control_plane.refreshes_noop") == 0

    def test_first_read_solves_once(self):
        ctx, strategy = self.sampled()
        self.refresh(ctx, strategy)
        first = strategy.table(0, 3)
        assert self.work(strategy) == (2, 4)
        assert strategy.table(0, 3) is first
        strategy.sending_list(0, 2, 0)
        assert self.work(strategy) == (2, 4)

    def test_two_refreshes_before_one_read_solve_once(self):
        ctx, strategy = self.sampled()
        self.refresh(ctx, strategy)
        self.refresh(ctx, strategy)
        assert self.work(strategy) == (1, 2)
        strategy.sending_list(0, 3, 0)
        assert self.work(strategy) == (2, 4)

    def test_join_while_stale_solves_each_table_once(self):
        ctx, strategy = self.sampled()
        self.refresh(ctx, strategy)
        joined = Subscription(node=1, deadline=1.0)
        ctx.workload.add_subscription(0, joined)
        strategy.on_subscription_added(0, joined)
        # One batch for the current estimates, the new pair included.
        assert self.work(strategy) == (2, 5)
        assert strategy.table(0, 1).subscriber == 1
        assert self.work(strategy) == (2, 5)


class TestTermination:
    def test_ring_with_failures_terminates(self):
        topo = make_topology(
            [(0, 1, 0.010), (1, 2, 0.010), (2, 3, 0.010), (3, 0, 0.010)]
        )
        failures = ScriptedFailures({(1, 2): [ALWAYS], (3, 2): [ALWAYS]})
        workload = single_topic_workload(0, [(2, 1.0)])
        ctx, _ = run_once(topo, workload, failures=failures, until=30.0)
        # Subscriber unreachable; the protocol must settle without looping.
        assert not ctx.metrics.outcome(1, 2).delivered
        assert ctx.sim.pending_events == 0

    def test_total_loss_terminates(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        ctx, _ = run_once(topo, workload, loss_rate=1.0, until=30.0)
        assert not ctx.metrics.outcome(1, 3).delivered
        assert ctx.sim.pending_events == 0
