"""Unit tests for experiment configuration."""

import pytest

from repro.experiments.config import PAPER_DURATION, ExperimentConfig, paper_config
from repro.util.errors import ConfigurationError


def test_defaults_match_paper_settings():
    config = ExperimentConfig()
    assert config.num_nodes == 20
    assert config.num_topics == 10
    assert config.publish_interval == 1.0
    assert config.ps_range == (0.2, 0.6)
    assert config.deadline_factor == 3.0
    assert config.loss_rate == pytest.approx(1e-4)
    assert config.m == 1
    assert config.monitor_period == 300.0
    assert config.failure_epoch == 1.0


def test_regular_topology_requires_degree():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(topology_kind="regular")


def test_regular_degree_beyond_the_node_count_rejected_at_config_time():
    # Refused here, not later inside a sweep worker building the world.
    with pytest.raises(ConfigurationError, match="degree"):
        ExperimentConfig(topology_kind="regular", degree=25, num_nodes=20)


def test_erdos_renyi_degree_beyond_the_node_count_rejected():
    # degree / (n - 1) > 1 would build a complete graph while describe()
    # still reports the impossible degree.
    with pytest.raises(ConfigurationError, match="degree"):
        ExperimentConfig(topology_kind="erdos_renyi", degree=40, num_nodes=20)
    with pytest.raises(ConfigurationError, match="degree"):
        ExperimentConfig(topology_kind="erdos_renyi", degree=0, num_nodes=20)
    assert ExperimentConfig(topology_kind="erdos_renyi", degree=19, num_nodes=20)


def test_unknown_topology_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(topology_kind="hypercube")


def test_invalid_probabilities_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(failure_probability=1.2)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(loss_rate=-0.1)


def test_invalid_m_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(m=0)


def test_with_updates_creates_modified_copy():
    base = ExperimentConfig()
    updated = base.with_updates(failure_probability=0.06)
    assert updated.failure_probability == 0.06
    assert base.failure_probability == 0.0
    assert updated.num_nodes == base.num_nodes


def test_with_updates_revalidates():
    with pytest.raises(ConfigurationError):
        ExperimentConfig().with_updates(m=0)


def test_end_time_includes_drain():
    config = ExperimentConfig(duration=100.0, drain=7.0)
    assert config.end_time == 107.0


def test_describe_mentions_key_parameters():
    config = ExperimentConfig(
        topology_kind="regular", degree=5, failure_probability=0.04
    )
    text = config.describe()
    assert "deg=5" in text and "Pf=0.04" in text


def test_paper_config_uses_two_hour_runs():
    config = paper_config()
    assert config.duration == PAPER_DURATION


def test_paper_config_accepts_overrides():
    config = paper_config(failure_probability=0.1)
    assert config.failure_probability == 0.1
    assert config.duration == PAPER_DURATION
