"""Tests for the congestion study (finite-capacity extension)."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.extensions.congestion import congestion_study


def test_study_axis_and_strategies():
    result = congestion_study(
        duration=4.0,
        seeds=(0,),
        publish_intervals=(1.0, 0.25),
        strategies=("DCRD", "D-Tree"),
    )
    assert result.x_values == [1.0, 0.25]
    assert result.strategies == ["DCRD", "D-Tree"]


def test_congestion_degrades_qos_at_high_load():
    base = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        duration=10.0,
        failure_probability=0.0,
        link_service_time=0.02,
        num_topics=8,
    )
    light = run_single(base, "D-Tree", seed=1)
    heavy = run_single(base.with_updates(publish_interval=0.1), "D-Tree", seed=1)
    assert heavy.qos_delivery_ratio < light.qos_delivery_ratio


def test_dcrd_matches_the_tree_on_loss_free_congested_links():
    # With the ACK clock started at the wire, a loaded but loss-free link
    # is never mistaken for a dead one: DCRD never leaves its first-choice
    # hops and pays only the queueing delay the tree pays too.
    config = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        duration=10.0,
        failure_probability=0.0,
        link_service_time=0.02,
        publish_interval=0.125,
        num_topics=8,
    )
    dcrd = run_single(config, "DCRD", seed=2)
    dtree = run_single(config, "D-Tree", seed=2)
    assert dcrd.qos_delivery_ratio == dtree.qos_delivery_ratio
    assert dcrd.packets_per_subscriber == pytest.approx(
        dtree.packets_per_subscriber, rel=0.01
    )


def test_dcrd_bypasses_failures_under_load():
    # Pf 0.06 at 8 msg/s per topic: silence now means loss again, so
    # Algorithm 2's failover works on congested links as it does on idle
    # ones — and without amplifying the load.
    config = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        duration=10.0,
        failure_probability=0.06,
        link_service_time=0.02,
        publish_interval=0.125,
        num_topics=8,
    )
    dcrd = run_single(config, "DCRD", seed=2)
    dtree = run_single(config, "D-Tree", seed=2)
    assert dcrd.delivery_ratio > dtree.delivery_ratio
    assert dcrd.packets_per_subscriber < 2.0


def test_multipath_congests_itself():
    config = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        duration=10.0,
        failure_probability=0.0,
        link_service_time=0.02,
        publish_interval=0.125,
        num_topics=8,
    )
    multipath = run_single(config, "Multipath", seed=2)
    dtree = run_single(config, "D-Tree", seed=2)
    assert multipath.qos_delivery_ratio < dtree.qos_delivery_ratio


def test_infinite_capacity_default_unchanged():
    config = ExperimentConfig(duration=5.0, num_topics=3)
    summary = run_single(config, "DCRD", seed=1)
    assert summary.qos_delivery_ratio == pytest.approx(1.0)
