"""Coverage of every topology family through the runner."""

import networkx as nx
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_topology, run_single
from repro.sim.random import RandomStreams
from tests.conftest import networkx_graph


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("full_mesh", {}),
        ("regular", {"degree": 4}),
        ("waxman", {}),
        ("erdos_renyi", {"degree": 5}),
        ("ring", {}),
        ("line", {}),
        ("star", {}),
    ],
)
def test_every_family_builds_connected(kind, extra):
    config = ExperimentConfig(
        topology_kind=kind, num_nodes=12, duration=5.0, **extra
    )
    topology = build_topology(config, RandomStreams(3))
    assert topology.num_nodes == 12
    assert nx.is_connected(networkx_graph(topology))


@pytest.mark.parametrize("kind,extra", [("waxman", {}), ("ring", {})])
def test_dcrd_runs_on_exotic_topologies(kind, extra):
    config = ExperimentConfig(
        topology_kind=kind, num_nodes=10, num_topics=3, duration=6.0, **extra
    )
    summary = run_single(config, "DCRD", seed=4)
    assert summary.delivery_ratio == pytest.approx(1.0, abs=0.01)


def test_erdos_renyi_uses_degree_as_density_hint():
    config = ExperimentConfig(
        topology_kind="erdos_renyi", degree=6, num_nodes=15, duration=5.0
    )
    topology = build_topology(config, RandomStreams(9))
    mean_degree = 2 * topology.num_edges / topology.num_nodes
    assert 3.0 <= mean_degree <= 10.0
