"""Unit tests for run assembly and execution."""

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    DEFAULT_STRATEGIES,
    STRATEGIES,
    build_environment,
    build_topology,
    run_comparison,
    run_single,
)
from repro.sim.random import RandomStreams
from repro.util.errors import ConfigurationError

FAST = ExperimentConfig(duration=10.0, drain=2.0, num_topics=3, num_nodes=8)


def test_strategy_registry_contains_paper_lineup():
    assert set(DEFAULT_STRATEGIES) == {"DCRD", "R-Tree", "D-Tree", "ORACLE", "Multipath"}
    assert set(DEFAULT_STRATEGIES) <= set(STRATEGIES)


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigurationError):
        build_environment(FAST, "RIP", seed=1)


def test_build_topology_respects_kind():
    streams = RandomStreams(1)
    mesh = build_topology(ExperimentConfig(num_nodes=6), streams)
    assert mesh.num_edges == 15
    regular = build_topology(
        ExperimentConfig(topology_kind="regular", degree=3, num_nodes=6),
        RandomStreams(2),
    )
    assert all(regular.degree(n) == 3 for n in regular.nodes)


def test_environment_wiring():
    env = build_environment(FAST, "DCRD", seed=3)
    assert env.strategy.name == "DCRD"
    assert len(env.brokers) == FAST.num_nodes
    assert len(env.publishers) == FAST.num_topics
    assert env.ctx.params.m == FAST.m


def test_run_single_produces_summary():
    summary = run_single(FAST, "DCRD", seed=3)
    assert summary.strategy == "DCRD"
    assert summary.messages_published > 0
    assert 0.0 <= summary.delivery_ratio <= 1.0
    assert summary.qos_delivery_ratio <= summary.delivery_ratio


def test_run_single_is_deterministic():
    a = run_single(FAST, "DCRD", seed=11)
    b = run_single(FAST, "DCRD", seed=11)
    assert a.delivery_ratio == b.delivery_ratio
    assert a.data_transmissions == b.data_transmissions
    assert a.mean_delay == b.mean_delay


def test_different_seeds_change_world():
    a = run_single(FAST, "DCRD", seed=1)
    b = run_single(FAST, "DCRD", seed=2)
    assert (
        a.data_transmissions != b.data_transmissions
        or a.expected_deliveries != b.expected_deliveries
    )


def test_all_strategies_deliver_everything_without_hazards():
    config = FAST.with_updates(loss_rate=0.0, failure_probability=0.0)
    for name in DEFAULT_STRATEGIES:
        summary = run_single(config, name, seed=5)
        assert summary.delivery_ratio == pytest.approx(1.0), name


def test_run_comparison_covers_requested_strategies():
    results = run_comparison(FAST, seed=4, strategies=("DCRD", "ORACLE"))
    assert set(results) == {"DCRD", "ORACLE"}


def test_strategies_face_identical_workload():
    results = run_comparison(FAST, seed=4, strategies=("DCRD", "D-Tree"))
    assert (
        results["DCRD"].expected_deliveries == results["D-Tree"].expected_deliveries
    )
    assert (
        results["DCRD"].messages_published == results["D-Tree"].messages_published
    )


def test_injected_topology_used():
    from repro.overlay.topology import full_mesh
    import numpy as np

    topo = full_mesh(8, np.random.default_rng(0))
    env = build_environment(FAST, "DCRD", seed=1, topology=topo)
    assert env.ctx.topology is topo


def test_node_failures_enabled_when_configured():
    config = FAST.with_updates(node_failure_probability=0.05)
    env = build_environment(config, "DCRD", seed=1)
    assert env.ctx.network.node_failures is not None


def test_monitor_process_wired_to_strategy():
    config = FAST.with_updates(monitor_period=3.0, monitor_mode="sampled")
    env = build_environment(config, "DCRD", seed=1)
    env.execute()
    assert env.monitor_process.ticks >= 3


#: Each strategy's ``summary.perf`` keys (sorted) on the run below, as the
#: runner assembled them when it probed the strategy attribute by
#: attribute. The end-to-end benchmark reads these keys.
PERF_KEYS = json.loads((Path(__file__).parent / "perf_keys.json").read_text())


@pytest.mark.parametrize("name", sorted(PERF_KEYS))
def test_perf_keys_are_stable(name):
    config = ExperimentConfig(
        topology_kind="regular", degree=4, num_nodes=12, num_topics=3,
        failure_probability=0.05, monitor_mode="sampled", monitor_period=2.0,
        duration=6.0, drain=2.0,
    )
    assert sorted(PERF_KEYS) == sorted(STRATEGIES)
    assert sorted(run_single(config, name, seed=3).perf) == PERF_KEYS[name]
