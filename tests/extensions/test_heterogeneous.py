"""Tests for the loss-heterogeneity study and the Theorem 1 ablation."""

import pytest

from repro.core.computation import compute_dr_table
from repro.extensions import heterogeneous
from repro.extensions.heterogeneous import (
    NaiveOrderDcrdStrategy,
    heterogeneity_study,
    reorder_table_by_delay,
)
from repro.overlay.monitor import LinkEstimate
from repro.pubsub.topics import Subscription
from tests.conftest import build_ctx, make_topology, single_topic_workload


def lossy_diamond_estimates(topology):
    """Fast-but-lossy route via 1, slower-but-clean route via 2."""
    gammas = {(0, 1): 0.5, (1, 3): 0.5, (0, 2): 0.99, (2, 3): 0.99}
    return {
        edge: LinkEstimate(alpha=topology.delay(*edge), gamma=gammas[edge])
        for edge in topology.edges()
    }


def diamond():
    # The lossy route must be clearly faster, so delay-only ordering picks
    # it while Theorem 1's d/r ordering prefers the clean detour.
    return make_topology(
        [(0, 1, 0.005), (1, 3, 0.005), (0, 2, 0.014), (2, 3, 0.014)]
    )


class TestReorder:
    def test_delay_order_differs_from_theorem1(self):
        topo = diamond()
        table = compute_dr_table(
            topo, lossy_diamond_estimates(topo), publisher=0, subscriber=3,
            deadline=1.0,
        )
        # Theorem 1 prefers the clean route (d/r) despite its longer delay.
        assert table.sending_list(0)[0] == 2
        naive = reorder_table_by_delay(table)
        assert naive.sending_list(0)[0] == 1

    def test_reorder_preserves_delivery_ratio(self):
        topo = diamond()
        table = compute_dr_table(
            topo, lossy_diamond_estimates(topo), publisher=0, subscriber=3,
            deadline=1.0,
        )
        naive = reorder_table_by_delay(table)
        for node in topo.nodes:
            assert naive.state(node).r == pytest.approx(table.state(node).r)

    def test_reorder_never_improves_expected_delay(self):
        topo = diamond()
        table = compute_dr_table(
            topo, lossy_diamond_estimates(topo), publisher=0, subscriber=3,
            deadline=1.0,
        )
        naive = reorder_table_by_delay(table)
        for node in topo.nodes:
            if table.state(node).sending_list:
                assert naive.state(node).d >= table.state(node).d - 1e-12


class TestNaiveStrategy:
    def test_registered(self):
        from repro.experiments.runner import STRATEGIES

        assert "DCRD-naive-order" in STRATEGIES

    def test_uses_delay_order_at_runtime(self):
        topo = diamond()
        workload = single_topic_workload(0, [(3, 1.0)])
        # Heterogeneous gammas through per-link loss on the network.
        ctx = build_ctx(
            topo, workload, link_loss_rates={(0, 1): 0.5, (1, 3): 0.5}
        )
        strategy = NaiveOrderDcrdStrategy(ctx)
        strategy.setup()
        assert strategy.sending_list(0, 3, 0)[0] == 1  # fast-but-lossy first

    @staticmethod
    def line_world(monkeypatch):
        """A 5-node line, subscribers 1 (deadline 15 ms: only brokers 0
        and 1 have budget) and 4, and the subscriber of every reorder."""
        reordered = []

        def counted(table):
            reordered.append(table.subscriber)
            return reorder_table_by_delay(table)

        monkeypatch.setattr(heterogeneous, "reorder_table_by_delay", counted)
        topo = make_topology([(n, n + 1, 0.010) for n in range(4)])
        ctx = build_ctx(topo, single_topic_workload(0, [(1, 0.015), (4, 1.0)]))
        strategy = NaiveOrderDcrdStrategy(ctx)
        strategy.setup()
        assert sorted(reordered) == [1, 4]
        # A gamma change on (3, 4) lies past subscriber 1's horizon: its
        # table is reused, subscriber 4's is re-solved at the next read.
        ctx.network.link_loss_rates[(3, 4)] = 0.1
        ctx.monitor.refresh()
        strategy.on_monitor_refresh()
        return ctx, strategy, reordered

    def test_refresh_reorders_only_the_resolved_tables(self, monkeypatch):
        ctx, strategy, reordered = self.line_world(monkeypatch)
        kept = strategy.table(0, 1)  # the read solves the stale tables
        assert strategy.perf.get("control_plane.tables_reused") == 1
        assert sorted(reordered) == [1, 4, 4]
        assert strategy.table(0, 1) is kept

    def test_stale_join_reorders_the_joined_pair_once(self, monkeypatch):
        ctx, strategy, reordered = self.line_world(monkeypatch)
        joined = Subscription(node=3, deadline=1.0)
        ctx.workload.add_subscription(0, joined)
        strategy.on_subscription_added(0, joined)
        assert sorted(reordered) == [1, 3, 4, 4]

    def test_sanitized_run_checks_the_solver_order(self):
        """The ``table_solved`` probe sees the solver's output: the
        sanitizer's Theorem-1 check passes although every published
        sending list is delay-ordered."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_single

        config = ExperimentConfig(
            topology_kind="regular",
            degree=5,
            duration=4.0,
            failure_probability=0.0,
            loss_rate_range=(0.0, 0.4),
            sanitize=True,
        )
        summary = run_single(config, "DCRD-naive-order", seed=0)
        assert summary.perf["sanity.tables_checked"] > 0
        assert summary.perf["sanity.violations"] == 0.0

    def test_theorem1_order_wins_under_heterogeneous_loss(self):
        # Per-seed results are noisy; average a few repetitions. The
        # sharpest signal is traffic: trying clean links first wastes
        # fewer transmissions, so theorem-ordered DCRD always sends less.
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.sweeps import run_repetitions

        config = ExperimentConfig(
            topology_kind="regular",
            degree=5,
            duration=30.0,
            failure_probability=0.0,
            loss_rate_range=(0.0, 0.4),
            num_topics=6,
        )
        seeds = (0, 1, 4)
        theorem = run_repetitions(config, "DCRD", seeds)
        naive = run_repetitions(config, "DCRD-naive-order", seeds)
        assert theorem.qos_delivery_ratio > naive.qos_delivery_ratio
        assert theorem.packets_per_subscriber < naive.packets_per_subscriber
        assert theorem.mean_delay < naive.mean_delay


class TestStudy:
    def test_axis_labels_and_strategies(self):
        result = heterogeneity_study(
            duration=4.0,
            seeds=(0,),
            spreads=((0.1, 0.1), (0.0, 0.2)),
            strategies=("DCRD", "D-Tree"),
        )
        assert result.x_values == ["U[0.10,0.10]", "U[0.00,0.20]"]
        for x in result.x_values:
            assert 0.0 <= result.cell(x, "DCRD").qos_delivery_ratio <= 1.0
