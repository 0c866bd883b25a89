"""Unit tests for topology generators and queries."""

import networkx as nx
import numpy as np
import pytest

from repro.overlay import topology
from repro.overlay.topology import (
    Topology,
    canonical_edge,
    erdos_renyi,
    full_mesh,
    line,
    random_regular,
    ring,
    star,
    waxman,
)
from repro.pubsub.topics import generate_workload
from repro.routing.paths import delay_graph
from repro.util.errors import ConfigurationError, TopologyError
from tests.conftest import make_topology, networkx_graph


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)

    def test_self_loop_is_stable(self):
        assert canonical_edge(2, 2) == (2, 2)


class TestTopologyQueries:
    def test_triangle_basic_queries(self):
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020), (0, 2, 0.050)])
        assert topo.num_nodes == 3
        assert topo.num_edges == 3
        assert topo.neighbors(0) == (1, 2)
        assert topo.degree(1) == 2
        assert topo.has_edge(2, 0)
        assert topo.delay(2, 0) == pytest.approx(0.050)

    def test_shortest_delay_prefers_two_hop_when_cheaper(self):
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020), (0, 2, 0.050)])
        assert topo.shortest_delay(0, 2) == pytest.approx(0.030)
        assert topo.shortest_delay_path(0, 2) == [0, 1, 2]

    def test_shortest_hops_prefers_direct_link(self):
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020), (0, 2, 0.050)])
        assert topo.shortest_hop_path(0, 2) == [0, 2]

    def test_delay_missing_edge_raises(self):
        topo = make_topology([(0, 1, 0.010), (1, 2, 0.020)])
        with pytest.raises(TopologyError):
            topo.delay(0, 2)

    def test_edge_set_is_canonical(self):
        topo = make_topology([(1, 0, 0.010), (2, 1, 0.020)])
        assert topo.edge_set() == frozenset({(0, 1), (1, 2)})

    def test_shortest_delay_to_self_is_zero(self):
        topo = make_topology([(0, 1, 0.010)])
        assert topo.shortest_delay(0, 0) == 0.0


class TestShortestPathRows:
    """Shortest delays are computed one source at a time."""

    @pytest.mark.parametrize(
        "make",
        [lambda rng: random_regular(30, 4, rng), lambda rng: full_mesh(9, rng),
         lambda rng: ring(11, rng)],
        ids=["regular", "mesh", "ring"],
    )
    def test_every_pair_equals_the_all_pairs_result(self, make):
        topo = make(np.random.default_rng(4))
        delays = dict(nx.all_pairs_dijkstra_path_length(delay_graph(topo), weight="weight"))
        for u in reversed(topo.nodes):  # rows fill in any order
            for v in topo.nodes:
                assert topo.shortest_delay(u, v) == delays[u][v]  # exact floats

    def test_a_workload_costs_one_dijkstra_per_publisher(self, monkeypatch):
        """Deadlines need the publishers' rows only: building a workload
        of ``dense_dataplane``'s shape (4 topics on 160 nodes) runs exactly
        ``num_topics`` single-source Dijkstras."""
        topo = random_regular(160, 8, np.random.default_rng(1))
        sources = []
        single_source = topology.dijkstra

        def counted(adjacency, source):
            sources.append(source)
            return single_source(adjacency, source)

        monkeypatch.setattr(topology, "dijkstra", counted)
        workload = generate_workload(topo, np.random.default_rng(1), num_topics=4)
        publishers = [spec.publisher for spec in workload.topics]
        assert len(set(publishers)) == 4
        assert sorted(sources) == sorted(publishers)


class TestTopologyValidation:
    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(TopologyError):
            Topology(graph, {(0, 1): 0.01, (2, 3): 0.01})

    def test_nodes_must_be_contiguous_from_zero(self):
        graph = nx.Graph()
        graph.add_edge(5, 6)
        with pytest.raises(TopologyError):
            Topology(graph, {(5, 6): 0.01})

    def test_missing_delay_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(TopologyError):
            Topology(graph, {(0, 1): 0.01})

    def test_non_positive_delay_rejected(self):
        graph = nx.path_graph(2)
        with pytest.raises(TopologyError):
            Topology(graph, {(0, 1): 0.0})

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph(), {})


class TestGenerators:
    def test_full_mesh_connects_every_pair(self, rng):
        topo = full_mesh(8, rng)
        assert topo.num_edges == 8 * 7 // 2
        for node in topo.nodes:
            assert topo.degree(node) == 7

    def test_full_mesh_delays_in_paper_range(self, rng):
        topo = full_mesh(10, rng)
        for edge in topo.edges():
            assert 0.010 <= topo.delay(*edge) <= 0.050

    def test_custom_delay_range_respected(self, rng):
        topo = full_mesh(6, rng, delay_range=(0.001, 0.002))
        for edge in topo.edges():
            assert 0.001 <= topo.delay(*edge) <= 0.002

    def test_random_regular_has_exact_degree(self, rng):
        topo = random_regular(20, 5, rng)
        for node in topo.nodes:
            assert topo.degree(node) == 5

    def test_random_regular_is_connected(self, rng):
        for _ in range(5):
            topo = random_regular(12, 3, rng)
            assert nx.is_connected(networkx_graph(topo))

    def test_random_regular_odd_product_rejected(self, rng):
        with pytest.raises(Exception):
            random_regular(5, 3, rng)  # 15 is odd

    def test_random_regular_degree_bounds(self, rng):
        with pytest.raises(Exception):
            random_regular(10, 0, rng)
        with pytest.raises(Exception):
            random_regular(10, 10, rng)

    def test_erdos_renyi_connected(self, rng):
        topo = erdos_renyi(15, 0.4, rng)
        assert nx.is_connected(networkx_graph(topo))

    def test_erdos_renyi_edge_probability_must_be_a_probability(self, rng):
        with pytest.raises(ConfigurationError, match="edge_probability"):
            erdos_renyi(20, 40 / 19, rng)

    def test_waxman_connected(self, rng):
        topo = waxman(15, rng)
        assert nx.is_connected(networkx_graph(topo))
        assert topo.num_nodes == 15

    def test_ring_shape(self, rng):
        topo = ring(6, rng)
        assert topo.num_edges == 6
        for node in topo.nodes:
            assert topo.degree(node) == 2

    def test_line_shape(self, rng):
        topo = line(5, rng)
        assert topo.num_edges == 4
        assert topo.degree(0) == 1 and topo.degree(4) == 1

    def test_star_shape(self, rng):
        topo = star(7, rng)
        assert topo.degree(0) == 6
        for node in range(1, 7):
            assert topo.degree(node) == 1

    def test_generation_is_deterministic_per_seed(self):
        a = random_regular(16, 4, np.random.default_rng(5))
        b = random_regular(16, 4, np.random.default_rng(5))
        assert a.edge_set() == b.edge_set()
        for edge in a.edges():
            assert a.delay(*edge) == b.delay(*edge)
