"""Tests for per-link loss rates in the network and monitor."""

import pytest

from repro.overlay.links import OverlayNetwork
from repro.overlay.monitor import LinkMonitor
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.util.errors import ConfigurationError
from tests.conftest import data_frame, make_topology


def make_network(link_loss_rates=None, loss_rate=0.0, seed=3):
    topo = make_topology([(0, 1, 0.010), (1, 2, 0.010)])
    sim = Simulator()
    streams = RandomStreams(seed)
    network = OverlayNetwork(
        sim,
        topo,
        streams,
        loss_rate=loss_rate,
        link_loss_rates=link_loss_rates,
    )
    return topo, sim, streams, network


def test_per_link_rate_overrides_uniform():
    topo, sim, _, network = make_network(
        link_loss_rates={(0, 1): 1.0}, loss_rate=0.0
    )
    received = []
    network.attach(1, lambda s, f: received.append(f))
    network.attach(2, lambda s, f: received.append(f))
    network.send_data(0, 1, data_frame("dead"))
    network.send_data(1, 2, data_frame("clean"))
    sim.run()
    assert received == [data_frame("clean")]


def test_missing_links_fall_back_to_uniform():
    topo, sim, _, network = make_network(
        link_loss_rates={(0, 1): 0.0}, loss_rate=1.0
    )
    received = []
    network.attach(1, lambda s, f: received.append(f))
    network.attach(2, lambda s, f: received.append(f))
    network.send_data(0, 1, data_frame("clean"))
    network.send_data(1, 2, data_frame("dead"))
    sim.run()
    assert received == [data_frame("clean")]


def test_link_success_probability_query():
    topo, sim, _, network = make_network(
        link_loss_rates={(0, 1): 0.25}, loss_rate=0.1
    )
    assert network.link_success_probability(0, 1) == pytest.approx(0.75)
    assert network.link_success_probability(1, 0) == pytest.approx(0.75)
    assert network.link_success_probability(1, 2) == pytest.approx(0.9)


def test_invalid_link_rate_rejected():
    with pytest.raises(ConfigurationError):
        make_network(link_loss_rates={(0, 1): 1.5})


def test_monitor_sees_per_link_gammas():
    topo, sim, streams, network = make_network(
        link_loss_rates={(0, 1): 0.3}, loss_rate=0.05
    )
    monitor = LinkMonitor(topo, network, streams)
    assert monitor.estimate(0, 1).gamma == pytest.approx(0.7)
    assert monitor.estimate(1, 2).gamma == pytest.approx(0.95)


def test_runner_draws_link_rates_from_range():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_environment

    config = ExperimentConfig(
        num_nodes=8, duration=5.0, loss_rate_range=(0.1, 0.3), num_topics=2
    )
    env = build_environment(config, "DCRD", seed=1)
    rates = env.ctx.network.link_loss_rates
    assert len(rates) == env.ctx.topology.num_edges
    assert all(0.1 <= rate <= 0.3 for rate in rates.values())
    # Deterministic per seed.
    env2 = build_environment(config, "DCRD", seed=1)
    assert env2.ctx.network.link_loss_rates == rates
