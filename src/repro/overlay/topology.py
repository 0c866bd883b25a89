"""Overlay topologies.

The paper evaluates 20-node broker overlays: a full mesh and random graphs
with a fixed link degree, with per-link delays drawn uniformly from
10–50 ms (a range taken from AT&T backbone measurements). This module wraps
:mod:`networkx` graphs in a :class:`Topology` that owns the delay assignment
and exposes the queries the routing layers need: neighbours, link delay,
shortest delay/hops from a source.

All delays are stored in **seconds**.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple  # noqa: F401

import networkx as nx
import numpy as np

from repro.util.errors import TopologyError
from repro.util.validation import require, require_probability

Edge = Tuple[int, int]

#: Paper setting: link delays uniform in [10 ms, 50 ms].
DEFAULT_DELAY_RANGE = (0.010, 0.050)


def canonical_edge(u: int, v: int) -> Edge:
    """Return the undirected edge key for (u, v): smaller id first."""
    return (u, v) if u <= v else (v, u)


class Topology:
    """An undirected overlay graph with symmetric per-link delays.

    Parameters
    ----------
    graph:
        A connected :class:`networkx.Graph` whose nodes are ``0..n-1``.
    delays:
        Mapping from canonical edge to one-way propagation delay in seconds.
        Missing edges raise :class:`TopologyError`.
    name:
        Human-readable label used in reports.
    """

    def __init__(
        self,
        graph: nx.Graph,
        delays: Dict[Edge, float],
        name: str = "topology",
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("topology must have at least one node")
        expected_nodes = set(range(graph.number_of_nodes()))
        if set(graph.nodes) != expected_nodes:
            raise TopologyError("nodes must be labelled 0..n-1")
        if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise TopologyError("topology must be connected")
        for u, v in graph.edges:
            key = canonical_edge(u, v)
            if key not in delays:
                raise TopologyError(f"missing delay for edge {key}")
            if not delays[key] > 0:
                raise TopologyError(
                    f"delay of edge {key} must be > 0, got {delays[key]!r}"
                )
        self.name = name
        self._graph = graph
        self._delays = {canonical_edge(*e): delays[canonical_edge(*e)] for e in graph.edges}
        self._neighbors: Dict[int, Tuple[int, ...]] = {
            node: tuple(sorted(graph.neighbors(node))) for node in graph.nodes
        }
        # Shortest-path rows, one per source, filled on first use.
        self._shortest_delay: Dict[int, Dict[int, float]] = {}
        self._shortest_hops: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """The underlying (read-only by convention) networkx graph."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of broker nodes."""
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """Number of undirected overlay links."""
        return self._graph.number_of_edges()

    @property
    def nodes(self) -> range:
        """Node identifiers, always ``range(num_nodes)``."""
        return range(self.num_nodes)

    def edges(self) -> Iterable[Edge]:
        """Iterate canonical (u < v) edges."""
        return iter(self._delays)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """The sorted tuple of *node*'s neighbours."""
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        """Number of overlay links attached to *node*."""
        return len(self._neighbors[node])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether link (u, v) exists."""
        return canonical_edge(u, v) in self._delays

    def delay(self, u: int, v: int) -> float:
        """One-way propagation delay of link (u, v) in seconds."""
        key = canonical_edge(u, v)
        try:
            return self._delays[key]
        except KeyError:
            raise TopologyError(f"no overlay link between {u} and {v}") from None

    # ------------------------------------------------------------------
    # Shortest paths (cached)
    # ------------------------------------------------------------------
    def _weighted_graph(self, weight_of: Callable[[float], float]) -> nx.Graph:
        weighted = nx.Graph()
        weighted.add_nodes_from(self._graph.nodes)
        for (u, v), delay in self._delays.items():
            weighted.add_edge(u, v, weight=weight_of(delay))
        return weighted

    @cached_property
    def _delay_graph(self) -> nx.Graph:
        return self._weighted_graph(lambda delay: delay)

    @cached_property
    def _hop_graph(self) -> nx.Graph:
        # Unit weights with delay as a tiny tie-breaker, so that the
        # minimum-hop path returned is deterministic given the topology.
        return self._weighted_graph(lambda delay: 1.0 + delay * 1e-3)

    def shortest_delay(self, source: int, target: int) -> float:
        """Shortest *delay* between two nodes (seconds).

        One single-source Dijkstra per distinct *source*, run on first use
        and kept: a workload asks for the rows of its publishers, not for
        every pair.
        """
        row = self._shortest_delay.get(source)
        if row is None:
            row = nx.single_source_dijkstra_path_length(
                self._delay_graph, source, weight="weight"
            )
            self._shortest_delay[source] = row
        return row[target]

    def shortest_hops(self, source: int, target: int) -> int:
        """Shortest *hop count* between two nodes (one BFS per source, kept)."""
        row = self._shortest_hops.get(source)
        if row is None:
            row = nx.single_source_shortest_path_length(self._graph, source)
            self._shortest_hops[source] = row
        return row[target]

    def shortest_delay_path(self, source: int, target: int) -> List[int]:
        """One minimum-delay path from *source* to *target* (list of nodes)."""
        return nx.dijkstra_path(self._delay_graph, source, target, weight="weight")

    def shortest_hop_path(self, source: int, target: int) -> List[int]:
        """One minimum-hop path (ties broken by delay for determinism)."""
        return nx.dijkstra_path(self._hop_graph, source, target, weight="weight")

    def edge_set(self) -> FrozenSet[Edge]:
        """All canonical edges as a frozenset (handy for schedule queries)."""
        return frozenset(self._delays)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


# ----------------------------------------------------------------------
# Delay assignment
# ----------------------------------------------------------------------
def _assign_delays(
    graph: nx.Graph,
    rng: np.random.Generator,
    delay_range: Tuple[float, float],
) -> Dict[Edge, float]:
    low, high = delay_range
    require(0 < low <= high, f"invalid delay range {delay_range}")
    delays: Dict[Edge, float] = {}
    for u, v in sorted(canonical_edge(u, v) for u, v in graph.edges):
        delays[(u, v)] = float(rng.uniform(low, high))
    return delays


def _build(
    graph: nx.Graph,
    rng: np.random.Generator,
    delay_range: Tuple[float, float],
    name: str,
) -> Topology:
    delays = _assign_delays(graph, rng, delay_range)
    return Topology(graph, delays, name=name)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def full_mesh(
    num_nodes: int,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> Topology:
    """Every pair of brokers directly connected (paper §IV-D1)."""
    require(num_nodes >= 1, "full_mesh needs >= 1 node")
    return _build(
        nx.complete_graph(num_nodes), rng, delay_range, f"full-mesh-{num_nodes}"
    )


def random_regular(
    num_nodes: int,
    degree: int,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
    max_attempts: int = 100,
) -> Topology:
    """Connected random graph where every broker has exactly *degree* links.

    This realises the paper's "for a given link degree, we randomly choose
    the neighboring nodes" construction (§IV-A). Generation retries until the
    sampled regular graph is connected.
    """
    require(num_nodes >= 2, "random_regular needs >= 2 nodes")
    require(0 < degree < num_nodes, f"degree must be in (0, {num_nodes})")
    require(num_nodes * degree % 2 == 0, "num_nodes * degree must be even")
    for _ in range(max_attempts):
        seed = int(rng.integers(0, 2**31 - 1))
        graph = nx.random_regular_graph(degree, num_nodes, seed=seed)
        if nx.is_connected(graph):
            return _build(
                graph, rng, delay_range, f"regular-{num_nodes}-deg{degree}"
            )
    raise TopologyError(
        f"could not sample a connected {degree}-regular graph on "
        f"{num_nodes} nodes in {max_attempts} attempts"
    )


def erdos_renyi(
    num_nodes: int,
    edge_probability: float,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
    max_attempts: int = 100,
) -> Topology:
    """Connected Erdős–Rényi G(n, p) overlay (used by extension studies)."""
    require(num_nodes >= 2, "erdos_renyi needs >= 2 nodes")
    require_probability(edge_probability, "edge_probability")
    for _ in range(max_attempts):
        seed = int(rng.integers(0, 2**31 - 1))
        graph = nx.gnp_random_graph(num_nodes, edge_probability, seed=seed)
        if nx.is_connected(graph):
            return _build(graph, rng, delay_range, f"gnp-{num_nodes}-p{edge_probability}")
    raise TopologyError(
        f"could not sample a connected G({num_nodes}, {edge_probability}) "
        f"in {max_attempts} attempts"
    )


def waxman(
    num_nodes: int,
    rng: np.random.Generator,
    alpha: float = 0.6,
    beta: float = 0.4,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
    max_attempts: int = 100,
) -> Topology:
    """Connected Waxman random geometric overlay (Internet-like)."""
    require(num_nodes >= 2, "waxman needs >= 2 nodes")
    for _ in range(max_attempts):
        seed = int(rng.integers(0, 2**31 - 1))
        graph = nx.waxman_graph(num_nodes, beta=beta, alpha=alpha, seed=seed)
        graph = nx.convert_node_labels_to_integers(graph)
        if graph.number_of_nodes() == num_nodes and nx.is_connected(graph):
            return _build(graph, rng, delay_range, f"waxman-{num_nodes}")
    raise TopologyError(
        f"could not sample a connected Waxman graph on {num_nodes} nodes"
    )


def ring(
    num_nodes: int,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> Topology:
    """Cycle topology (tests and worst-case path diversity studies)."""
    require(num_nodes >= 3, "ring needs >= 3 nodes")
    return _build(nx.cycle_graph(num_nodes), rng, delay_range, f"ring-{num_nodes}")


def line(
    num_nodes: int,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> Topology:
    """Path topology: no redundancy at all (tests)."""
    require(num_nodes >= 2, "line needs >= 2 nodes")
    return _build(nx.path_graph(num_nodes), rng, delay_range, f"line-{num_nodes}")


def star(
    num_nodes: int,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> Topology:
    """Hub-and-spoke topology with node 0 at the centre (tests)."""
    require(num_nodes >= 2, "star needs >= 2 nodes")
    return _build(nx.star_graph(num_nodes - 1), rng, delay_range, f"star-{num_nodes}")


def clustered(
    num_clusters: int,
    cluster_size: int,
    rng: np.random.Generator,
    intra_delay_range: Tuple[float, float] = (0.002, 0.010),
    inter_delay_range: Tuple[float, float] = (0.020, 0.080),
    intra_degree: Optional[int] = None,
    trunks_per_cluster: int = 2,
) -> Topology:
    """Two-tier WAN overlay: dense low-delay clusters, sparse trunks.

    Models the deployment shape a real broker network takes — brokers
    co-located per site/region (LAN-ish delays) joined by a ring of
    wide-area trunk links (WAN delays). Node ids are assigned cluster by
    cluster: cluster ``c`` owns ``[c * cluster_size, (c+1) * cluster_size)``.

    Parameters
    ----------
    num_clusters / cluster_size:
        Shape of the two tiers (>= 2 clusters of >= 2 brokers).
    intra_delay_range / inter_delay_range:
        Link delays within clusters vs across trunks (seconds).
    intra_degree:
        Links per broker inside a cluster; ``None`` = full mesh per cluster.
    trunks_per_cluster:
        Outgoing trunk links per cluster; the first connects a ring (so the
        overlay is connected), the rest attach to random other clusters —
        ``>= 2`` gives every cluster disjoint exit routes.
    """
    require(num_clusters >= 2, "clustered needs >= 2 clusters")
    require(cluster_size >= 2, "clustered needs cluster_size >= 2")
    require(trunks_per_cluster >= 1, "trunks_per_cluster must be >= 1")
    graph = nx.Graph()
    delays: Dict[Edge, float] = {}
    num_nodes = num_clusters * cluster_size
    graph.add_nodes_from(range(num_nodes))

    def members(cluster: int) -> range:
        return range(cluster * cluster_size, (cluster + 1) * cluster_size)

    def add_link(u: int, v: int, delay_range: Tuple[float, float]) -> None:
        key = canonical_edge(u, v)
        if key in delays:
            return
        graph.add_edge(u, v)
        delays[key] = float(rng.uniform(*delay_range))

    # Tier 1: intra-cluster links.
    for cluster in range(num_clusters):
        nodes = list(members(cluster))
        if intra_degree is None or intra_degree >= cluster_size - 1:
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    add_link(u, v, intra_delay_range)
        else:
            # Ring + random chords for the requested degree.
            for index, u in enumerate(nodes):
                add_link(u, nodes[(index + 1) % len(nodes)], intra_delay_range)
            for u in nodes:
                while graph.degree(u) < intra_degree:
                    v = int(rng.choice(nodes))
                    if v != u:
                        add_link(u, v, intra_delay_range)

    # Tier 2: trunk ring (guarantees connectivity) + extra random trunks.
    for cluster in range(num_clusters):
        neighbor = (cluster + 1) % num_clusters
        u = int(rng.choice(list(members(cluster))))
        v = int(rng.choice(list(members(neighbor))))
        add_link(u, v, inter_delay_range)
        for _ in range(trunks_per_cluster - 1):
            other = int(rng.integers(0, num_clusters))
            if other == cluster:
                continue
            u = int(rng.choice(list(members(cluster))))
            v = int(rng.choice(list(members(other))))
            add_link(u, v, inter_delay_range)

    return Topology(
        graph, delays, name=f"clustered-{num_clusters}x{cluster_size}"
    )
