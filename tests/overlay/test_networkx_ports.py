"""The graph code DCRD runs on, against the networkx code it replaced.

The topology generators, :class:`~repro.overlay.topology.Graph` and
:func:`~repro.overlay.topology.dijkstra` are ports of networkx; networkx
stays the oracle here. Equal means the same edges in the same order, the
same delays, and the same distance rows float for float, key order
included.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.core.computation import ControlPlaneSolver
from repro.overlay import topology
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import (
    DEFAULT_DELAY_RANGE,
    Graph,
    canonical_edge,
    dijkstra,
    full_mesh,
    line,
    random_regular,
    ring,
    star,
)
from repro.util.errors import TopologyError
from tests.conftest import make_topology

NODE_COUNTS = (20, 21, 80, 160)
DEGREES = (3, 4, 5, 8)
SEEDS = range(6)


def networkx_topology(draw_graph, rng):
    """A generator as it ran on networkx: a seed per attempt until the graph
    is connected, then one delay per edge in sorted edge order. Returns the
    graph's edges in its order and the delays."""
    while True:
        graph = draw_graph(int(rng.integers(0, 2**31 - 1)))
        if nx.is_connected(graph):
            break
    edges = [canonical_edge(u, v) for u, v in graph.edges]
    delays = {edge: float(rng.uniform(*DEFAULT_DELAY_RANGE)) for edge in sorted(edges)}
    return edges, delays


def edges_and_delays(topo):
    return list(topo.edges()), {edge: topo.delay(*edge) for edge in topo.edges()}


def regular_cases():
    return [
        (n, d, seed)
        for n in NODE_COUNTS
        for d in DEGREES
        if n * d % 2 == 0
        for seed in SEEDS
    ]


class TestGenerators:
    def test_regular_graphs_equal_networkx(self, monkeypatch):
        """Every (n, d, seed) of the grid draws networkx's edge list, some
        of them only after a failed pairing was retried."""
        tries = []
        try_creation = topology._try_creation

        def counted(*args):
            edges = try_creation(*args)
            tries.append(edges is None)
            return edges

        monkeypatch.setattr(topology, "_try_creation", counted)
        for n, d, seed in regular_cases():
            expected = nx.random_regular_graph(d, n, seed=seed)
            graph = topology._random_regular_graph(d, n, seed)
            assert list(graph.nodes()) == list(expected.nodes)
            assert list(graph.edges()) == list(expected.edges), (n, d, seed)
        assert any(tries), "no pairing of the grid was retried"

    @pytest.mark.parametrize("n, d", [(20, 3), (21, 4), (80, 6), (160, 8)])
    def test_random_regular_equals_its_networkx_build(self, n, d):
        """The whole generator: connectivity retries, the delay draws and
        the edge order ``Topology.edges()`` yields."""
        for seed in range(4):
            topo = random_regular(n, d, np.random.default_rng(seed))
            expected = networkx_topology(
                lambda s: nx.random_regular_graph(d, n, seed=s),
                np.random.default_rng(seed),
            )
            assert edges_and_delays(topo) == expected

    @pytest.mark.parametrize("n", [3, 20, 21, 160])
    def test_deterministic_shapes_equal_networkx(self, n):
        shapes = [
            (full_mesh, nx.complete_graph(n)),
            (ring, nx.cycle_graph(n)),
            (line, nx.path_graph(n)),
            (star, nx.star_graph(n - 1)),
        ]
        for generate, graph in shapes:
            topo = generate(n, np.random.default_rng(n))
            rng = np.random.default_rng(n)
            edges = [canonical_edge(u, v) for u, v in graph.edges]
            delays = {
                edge: float(rng.uniform(*DEFAULT_DELAY_RANGE)) for edge in sorted(edges)
            }
            assert edges_and_delays(topo) == (edges, delays), generate.__name__

    def test_graph_keeps_networkx_insertion_orders(self):
        """Edges before nodes, a node first met as ``v``, a repeated edge:
        the orders ``Scenario.topology()`` and ``clustered`` build in."""
        steps = [
            ("edge", (3, 1)), ("edge", (1, 0)), ("edge", (5, 3)),
            ("nodes", range(7)), ("edge", (0, 3)), ("edge", (1, 3)),
            ("edge", (6, 2)),
        ]
        ours, theirs = Graph(), nx.Graph()
        for kind, arguments in steps:
            for graph in (ours, theirs):
                if kind == "edge":
                    graph.add_edge(*arguments)
                else:
                    graph.add_nodes_from(arguments)
        assert list(ours.nodes()) == list(theirs.nodes)
        assert list(ours.edges()) == list(theirs.edges)
        assert [ours.degree(node) for node in ours.nodes()] == [
            theirs.degree(node) for node in theirs.nodes
        ]


def networkx_row(topo, weight, source):
    """networkx's row over a graph built from *topo*'s edges, in order."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes)
    for edge in topo.edges():
        graph.add_edge(*edge, weight=weight(edge))
    return nx.single_source_dijkstra_path_length(graph, source, weight="weight")


def same_row(ours, theirs):
    """Equal keys in equal order, equal floats (repr round-trips a float
    exactly) and equal types (the source is the int 0 on both sides)."""
    return repr(list(ours.items())) == repr(list(theirs.items()))


class TestDijkstra:
    @pytest.mark.parametrize("seed", range(4))
    def test_delay_rows_equal_networkx(self, seed):
        topo = random_regular(80, 6, np.random.default_rng(seed))
        for source in (0, 17, 79):
            topo.shortest_delay(source, source)
            ours = topo._shortest_delay[source]
            assert same_row(ours, networkx_row(topo, lambda edge: topo.delay(*edge), source))

    @pytest.mark.parametrize("seed", range(4))
    def test_solver_rows_equal_networkx_with_dead_links(self, seed):
        """Estimates with ``alpha = inf`` on some links, as a monitor reports
        a link that delivered nothing: nodes behind them sit at inf."""
        rng = np.random.default_rng(seed)
        topo = random_regular(40, 3, rng)
        estimates = {
            edge: LinkEstimate(alpha=float(rng.uniform(0.01, 0.05)), gamma=0.9)
            for edge in topo.edges()
        }
        # Every link of node `seed` is dead, and every fifth link besides.
        dead = [edge for edge in estimates if seed in edge] + list(estimates)[::5]
        for edge in dead:
            estimates[edge] = LinkEstimate(alpha=math.inf, gamma=0.0)
        solver = ControlPlaneSolver(topo, estimates)
        rows = [solver.distances_from(source) for source in topo.nodes]
        assert all(row[seed] == math.inf for row in rows if row is not rows[seed])
        for source, row in zip(topo.nodes, rows):
            expected = networkx_row(topo, lambda edge: estimates[edge].alpha, source)
            assert same_row(row, expected)

    def test_unreachable_nodes_are_absent_as_in_networkx(self):
        """Two components and an isolated node, weights with exact ties."""
        edges = [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75), (3, 4, 1.0), (2, 5, math.inf)]
        adjacency = [[] for _ in range(7)]
        graph = nx.Graph()
        graph.add_nodes_from(range(7))
        for u, v, weight in edges:
            adjacency[u].append((v, weight))
            adjacency[v].append((u, weight))
            graph.add_edge(u, v, weight=weight)
        for source in range(7):
            ours = dijkstra(adjacency, source)
            theirs = nx.single_source_dijkstra_path_length(graph, source, weight="weight")
            assert same_row(ours, theirs)
        assert dijkstra(adjacency, 0) == {0: 0, 1: 0.5, 2: 0.75, 5: math.inf}

    def test_an_unknown_source_is_refused(self):
        topo = make_topology([(0, 1, 0.01), (1, 2, 0.02)])
        with pytest.raises(TopologyError, match="no broker -1"):
            topo.shortest_delay(-1, 2)
