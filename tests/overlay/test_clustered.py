"""Tests for the clustered WAN topology generator."""

import networkx as nx
import pytest

from repro.overlay.topology import canonical_edge, clustered
from repro.util.errors import ConfigurationError
from tests.conftest import networkx_graph


def members(cluster, size):
    return set(range(cluster * size, (cluster + 1) * size))


def test_shape_and_connectivity(rng):
    topo = clustered(4, 5, rng)
    assert topo.num_nodes == 20
    assert nx.is_connected(networkx_graph(topo))


def test_full_mesh_inside_clusters(rng):
    topo = clustered(3, 4, rng)
    for cluster in range(3):
        nodes = sorted(members(cluster, 4))
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                assert topo.has_edge(u, v)


def test_intra_links_faster_than_trunks(rng):
    topo = clustered(
        4, 4, rng, intra_delay_range=(0.002, 0.010), inter_delay_range=(0.020, 0.080)
    )
    for u, v in topo.edges():
        same_cluster = u // 4 == v // 4
        delay = topo.delay(u, v)
        if same_cluster:
            assert 0.002 <= delay <= 0.010
        else:
            assert 0.020 <= delay <= 0.080


def test_intra_degree_bound(rng):
    topo = clustered(3, 8, rng, intra_degree=3, trunks_per_cluster=1)
    # Every broker has at least the ring's 2 intra links; chords raise the
    # minimum to the requested degree (trunk endpoints may exceed it).
    for node in topo.nodes:
        intra = [
            n for n in topo.neighbors(node) if n // 8 == node // 8
        ]
        assert len(intra) >= 2


def test_every_cluster_has_a_trunk(rng):
    topo = clustered(5, 3, rng, trunks_per_cluster=1)
    for cluster in range(5):
        nodes = members(cluster, 3)
        trunk_links = [
            (u, v)
            for u, v in topo.edges()
            if (u in nodes) != (v in nodes)
        ]
        assert trunk_links


def test_deterministic_per_rng_seed():
    import numpy as np

    a = clustered(3, 4, np.random.default_rng(5))
    b = clustered(3, 4, np.random.default_rng(5))
    assert a.edge_set() == b.edge_set()
    for edge in a.edges():
        assert a.delay(*edge) == b.delay(*edge)


def test_invalid_parameters_rejected(rng):
    with pytest.raises(ConfigurationError):
        clustered(1, 4, rng)
    with pytest.raises(ConfigurationError):
        clustered(3, 1, rng)
    with pytest.raises(ConfigurationError):
        clustered(3, 4, rng, trunks_per_cluster=0)


def test_dcrd_runs_on_clustered_overlay(rng):
    from repro.experiments.runner import build_environment
    from repro.experiments.config import ExperimentConfig
    from repro.pubsub.topics import generate_workload
    from repro.sim.random import RandomStreams

    topo = clustered(4, 5, rng, trunks_per_cluster=2)
    config = ExperimentConfig(num_nodes=20, duration=10.0, num_topics=4,
                              failure_probability=0.05)
    env = build_environment(config, "DCRD", seed=2, topology=topo)
    summary = env.execute()
    assert summary.delivery_ratio > 0.97
