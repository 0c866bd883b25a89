"""Overlay topologies.

The paper evaluates 20-node broker overlays: a full mesh and random graphs
with a fixed link degree, with per-link delays drawn uniformly from
10–50 ms (a range taken from AT&T backbone measurements). This module
builds them as a :class:`Graph`, a small adjacency builder, and wraps them
in a :class:`Topology` that owns the delay assignment and exposes the
queries the routing layers need: neighbours, link delay, shortest delay
from a source.

The generators the experiments run on (:func:`full_mesh`,
:func:`random_regular`, and the ring, line and star shapes) are ports of
their :mod:`networkx` counterparts over the same ``random.Random(seed)``
draws, and :class:`Graph` keeps ``networkx.Graph``'s insertion orders, so
a seed yields the edges networkx yielded, in its order. The shortest
delays are :func:`dijkstra`, a port of networkx's single-source Dijkstra.
networkx is imported only by the extension generators (:func:`erdos_renyi`,
:func:`waxman`) and by the path queries the baselines ask for
(:meth:`Topology.shortest_delay_path`, :meth:`Topology.shortest_hop_path`),
so a DCRD process on the paper's topologies never loads it.

All delays are stored in **seconds**.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import defaultdict
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.util.errors import TopologyError
from repro.util.validation import require, require_probability

if TYPE_CHECKING:
    import networkx as nx

Edge = Tuple[int, int]
#: Per node, ``(neighbour, weight)`` pairs: what :func:`dijkstra` walks.
Adjacency = Sequence[Sequence[Tuple[int, float]]]

#: Paper setting: link delays uniform in [10 ms, 50 ms].
DEFAULT_DELAY_RANGE = (0.010, 0.050)


def canonical_edge(u: int, v: int) -> Edge:
    """Return the undirected edge key for (u, v): smaller id first."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """An undirected graph as an adjacency dict, in insertion order.

    It keeps :class:`networkx.Graph`'s orders: nodes in the order they were
    first added (an edge adds ``u`` before ``v``), each node's neighbours in
    the order its edges were added, and :meth:`edges` yields ``(node,
    neighbour)`` node by node, skipping neighbours already passed.
    :class:`Topology` takes either kind of graph.
    """

    __slots__ = ("adj",)

    def __init__(self, nodes: Iterable[int] = ()) -> None:
        self.adj: Dict[int, Dict[int, None]] = {}
        self.add_nodes_from(nodes)

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            self.adj.setdefault(node, {})

    def add_edge(self, u: int, v: int) -> None:
        adj = self.adj
        adj.setdefault(u, {})
        adj.setdefault(v, {})
        adj[u][v] = None
        adj[v][u] = None

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def nodes(self) -> Iterable[int]:
        return self.adj.keys()

    def edges(self) -> Iterator[Edge]:
        passed: Set[int] = set()
        for node, near in self.adj.items():
            for neighbor in near:
                if neighbor not in passed:
                    yield node, neighbor
            passed.add(node)

    def degree(self, node: int) -> int:
        return len(self.adj[node])


def _connected(adj: Mapping[int, Iterable[int]]) -> bool:
    """Whether every node of *adj* is reachable from its first node."""
    start = next(iter(adj))
    reached = {start}
    frontier = [start]
    while frontier:
        for neighbor in adj[frontier.pop()]:
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    return len(reached) == len(adj)


def dijkstra(adjacency: Adjacency, source: int) -> Dict[int, float]:
    """Shortest distances from *source* over a weighted adjacency list.

    A port of networkx's ``single_source_dijkstra_path_length``: the same
    heap entries ``(distance, push count, node)`` and the same relaxations
    in the same order, so it returns the same dict, floats and key order
    included. The source maps to the int ``0``, a node reached only
    through infinite weights to ``inf``, and an unreachable node is absent.
    Weights must be non-negative.
    """
    dist: Dict[int, float] = {}
    seen: Dict[int, float] = {source: 0}
    pushes = itertools.count(1)
    fringe: List[Tuple[float, int, int]] = [(0, 0, source)]
    while fringe:
        dist_v, _, v = heapq.heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        for u, cost in adjacency[v]:
            vu_dist = dist_v + cost
            if u not in dist and (u not in seen or vu_dist < seen[u]):
                seen[u] = vu_dist
                heapq.heappush(fringe, (vu_dist, next(pushes), u))
    return dist


class Topology:
    """An undirected overlay graph with symmetric per-link delays.

    Parameters
    ----------
    graph:
        A connected :class:`Graph` (or :class:`networkx.Graph`) whose nodes
        are ``0..n-1``; only its ``nodes()`` and ``edges()`` are read.
    delays:
        Mapping from canonical edge to one-way propagation delay in seconds.
        Missing edges raise :class:`TopologyError`.
    name:
        Human-readable label used in reports.
    """

    def __init__(
        self,
        graph: Graph,
        delays: Dict[Edge, float],
        name: str = "topology",
    ) -> None:
        num_nodes = len(graph.nodes())
        if num_nodes == 0:
            raise TopologyError("topology must have at least one node")
        if set(graph.nodes()) != set(range(num_nodes)):
            raise TopologyError("nodes must be labelled 0..n-1")
        edges = [canonical_edge(u, v) for u, v in graph.edges()]
        near: Dict[int, List[int]] = {node: [] for node in range(num_nodes)}
        for u, v in edges:
            near[u].append(v)
            near[v].append(u)
        if not _connected(near):
            raise TopologyError("topology must be connected")
        for key in edges:
            if key not in delays:
                raise TopologyError(f"missing delay for edge {key}")
            if not delays[key] > 0:
                raise TopologyError(
                    f"delay of edge {key} must be > 0, got {delays[key]!r}"
                )
        self.name = name
        self._delays = {key: delays[key] for key in edges}
        self._neighbors: Dict[int, Tuple[int, ...]] = {
            node: tuple(sorted(neighbors)) for node, neighbors in near.items()
        }
        # Shortest-delay rows, one per source, filled on first use.
        self._shortest_delay: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of broker nodes."""
        return len(self._neighbors)

    @property
    def num_edges(self) -> int:
        """Number of undirected overlay links."""
        return len(self._delays)

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
    def weighted_adjacency(self, weight: Callable[[Edge], float]) -> Adjacency:
        """Per node, ``(neighbour, weight(edge))`` in :meth:`edges` order:
        the neighbour order of a networkx graph built from :meth:`edges`,
        so :func:`dijkstra` over it pops ties as networkx's does."""
        adjacency: List[List[Tuple[int, float]]] = [[] for _ in self.nodes]
        for edge in self._delays:
            u, v = edge
            cost = weight(edge)
            adjacency[u].append((v, cost))
            adjacency[v].append((u, cost))
        return adjacency

    def shortest_delay(self, source: int, target: int) -> float:
        """Shortest *delay* between two nodes (seconds).

        One single-source Dijkstra per distinct *source*, run on first use
        and kept: a workload asks for the rows of its publishers, not for
        every pair.
        """
        row = self._shortest_delay.get(source)
        if row is None:
            if source not in self._neighbors:
                raise TopologyError(f"no broker {source}")
            row = dijkstra(self.weighted_adjacency(self._delays.__getitem__), source)
            self._shortest_delay[source] = row
        return row[target]

    def _weighted_graph(self, weight_of: Callable[[float], float]) -> "nx.Graph":
        import networkx as nx

        weighted = nx.Graph()
        weighted.add_nodes_from(self.nodes)
        for (u, v), delay in self._delays.items():
            weighted.add_edge(u, v, weight=weight_of(delay))
        return weighted

    @cached_property
    def _delay_graph(self) -> "nx.Graph":
        return self._weighted_graph(lambda delay: delay)

    @cached_property
    def _hop_graph(self) -> "nx.Graph":
        # Unit weights with delay as a tiny tie-breaker, so that the
        # minimum-hop path returned is deterministic given the topology.
        return self._weighted_graph(lambda delay: 1.0 + delay * 1e-3)

    def shortest_delay_path(self, source: int, target: int) -> List[int]:
        """One minimum-delay path from *source* to *target* (list of nodes)."""
        import networkx as nx

        return nx.dijkstra_path(self._delay_graph, source, target, weight="weight")

    def shortest_hop_path(self, source: int, target: int) -> List[int]:
        """One minimum-hop path (ties broken by delay for determinism)."""
        import networkx as nx

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
    graph: Graph,
    rng: np.random.Generator,
    delay_range: Tuple[float, float],
) -> Dict[Edge, float]:
    low, high = delay_range
    require(0 < low <= high, f"invalid delay range {delay_range}")
    delays: Dict[Edge, float] = {}
    for u, v in sorted(canonical_edge(u, v) for u, v in graph.edges()):
        delays[(u, v)] = float(rng.uniform(low, high))
    return delays


def _build(
    graph: Graph,
    rng: np.random.Generator,
    delay_range: Tuple[float, float],
    name: str,
) -> Topology:
    delays = _assign_delays(graph, rng, delay_range)
    return Topology(graph, delays, name=name)


# ----------------------------------------------------------------------
# Graph shapes: ports of networkx's generators, same draws, same orders
# ----------------------------------------------------------------------
def _graph(num_nodes: int, edges: Iterable[Edge]) -> Graph:
    graph = Graph(range(num_nodes))
    graph.add_edges_from(edges)
    return graph


def _suitable(edges: Set[Edge], potential_edges: Mapping[int, int]) -> bool:
    """networkx's check that a stuck pairing can still be completed."""
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            # Two iterators on the same dictionary visit it in the same
            # order if there are no intervening modifications.
            if s1 == s2:
                # Only need to consider the s1-s2 pair once.
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _try_creation(degree: int, num_nodes: int, draws: random.Random) -> Optional[Set[Edge]]:
    """One Steger–Wormald pairing of networkx's ``random_regular_graph``:
    its edge set, or ``None`` when the stubs left cannot be paired."""
    edges: Set[Edge] = set()
    stubs = list(range(num_nodes)) * degree
    while stubs:
        potential_edges: Dict[int, int] = defaultdict(int)
        draws.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and ((s1, s2) not in edges):
                edges.add((s1, s2))
            else:
                potential_edges[s1] += 1
                potential_edges[s2] += 1
        if not _suitable(edges, potential_edges):
            return None
        stubs = [
            node
            for node, potential in potential_edges.items()
            for _ in range(potential)
        ]
    return edges


def _random_regular_graph(degree: int, num_nodes: int, seed: int) -> Graph:
    """``networkx.random_regular_graph(degree, num_nodes, seed)``; the edge
    set is a ``set`` there too, so the same adds iterate the same way."""
    draws = random.Random(seed)
    edges = _try_creation(degree, num_nodes, draws)
    while edges is None:
        edges = _try_creation(degree, num_nodes, draws)
    return _graph(num_nodes, edges)


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
    pairs = itertools.combinations(range(num_nodes), 2)
    return _build(
        _graph(num_nodes, pairs), rng, delay_range, f"full-mesh-{num_nodes}"
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
        graph = _random_regular_graph(degree, num_nodes, seed)
        if _connected(graph.adj):
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
    """Connected Erdős–Rényi G(n, p) overlay (used by extension studies),
    drawn by networkx."""
    import networkx as nx

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
    """Connected Waxman random geometric overlay (Internet-like), drawn by
    networkx."""
    import networkx as nx

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
    cycle = zip(range(num_nodes), [*range(1, num_nodes), 0])
    return _build(_graph(num_nodes, cycle), rng, delay_range, f"ring-{num_nodes}")


def line(
    num_nodes: int,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> Topology:
    """Path topology: no redundancy at all (tests)."""
    require(num_nodes >= 2, "line needs >= 2 nodes")
    path = zip(range(num_nodes - 1), range(1, num_nodes))
    return _build(_graph(num_nodes, path), rng, delay_range, f"line-{num_nodes}")


def star(
    num_nodes: int,
    rng: np.random.Generator,
    delay_range: Tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> Topology:
    """Hub-and-spoke topology with node 0 at the centre (tests)."""
    require(num_nodes >= 2, "star needs >= 2 nodes")
    spokes = ((0, node) for node in range(1, num_nodes))
    return _build(_graph(num_nodes, spokes), rng, delay_range, f"star-{num_nodes}")


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
    delays: Dict[Edge, float] = {}
    num_nodes = num_clusters * cluster_size
    graph = Graph(range(num_nodes))

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
