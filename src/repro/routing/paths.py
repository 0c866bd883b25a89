"""Path utilities shared by the baseline strategies.

The source-routed baseline (Multipath, §IV-B, and its FEC preset) needs
k-shortest-delay simple paths and a minimum-overlap selection rule; the
tree baselines need per-pair shortest paths under two different metrics. All helpers work on a
:class:`~repro.overlay.topology.Topology` plus (optionally) the monitor's
per-link delay estimates. networkx is imported by the helpers that need
it, so a process that runs none of these baselines never loads it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import Edge, Topology, canonical_edge
from repro.util.errors import RoutingError
from repro.util.validation import require

if TYPE_CHECKING:
    import networkx as nx

Path = List[int]


def delay_graph(
    topology: Topology, estimates: Optional[Dict[Edge, LinkEstimate]] = None
) -> nx.Graph:
    """A weighted graph whose edge weights are (estimated) link delays."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    for edge in topology.edges():
        if estimates is not None:
            weight = estimates[edge].alpha
        else:
            weight = topology.delay(*edge)
        graph.add_edge(*edge, weight=weight)
    return graph


def path_delay(topology: Topology, path: Sequence[int]) -> float:
    """Total propagation delay along *path* (seconds)."""
    return sum(
        topology.delay(path[i], path[i + 1]) for i in range(len(path) - 1)
    )


def path_links(path: Sequence[int]) -> Set[Edge]:
    """The canonical link set of *path*."""
    return {
        canonical_edge(path[i], path[i + 1]) for i in range(len(path) - 1)
    }


def shared_links(path_a: Sequence[int], path_b: Sequence[int]) -> int:
    """Number of overlay links the two paths have in common."""
    return len(path_links(path_a) & path_links(path_b))


def k_shortest_delay_paths(
    topology: Topology,
    source: int,
    target: int,
    k: int,
    estimates: Optional[Dict[Edge, LinkEstimate]] = None,
) -> List[Path]:
    """Up to *k* shortest-delay simple paths, ascending by delay."""
    require(k >= 1, f"k must be >= 1, got {k}")
    if source == target:
        return [[source]]
    import networkx as nx

    graph = delay_graph(topology, estimates)
    generator = nx.shortest_simple_paths(graph, source, target, weight="weight")
    return list(itertools.islice(generator, k))


def select_diverse_paths(candidates: Sequence[Path], count: int) -> List[Path]:
    """Greedily pick *count* of *candidates* with the least link overlap.

    The first pick is the first (shortest-delay) candidate; each next pick
    is the unpicked candidate sharing the fewest links with everything
    picked so far, ties going to the earlier candidate. With ``count=2``
    this is the paper's Multipath rule (§IV-B): the shortest-delay path,
    plus "another path selected from the top 5 shortest delay paths that
    has the fewest overlapping links with the shortest delay path". Once
    the candidates run out, the picked paths are reused round-robin (a
    degenerate topology where redundancy cannot diversify).
    """
    if not candidates:
        raise RoutingError("select_diverse_paths needs at least one candidate")
    chosen: List[Path] = [list(candidates[0])]
    chosen_links = path_links(candidates[0])
    while len(chosen) < count:
        best: Optional[Path] = None
        best_overlap = -1
        for candidate in candidates:
            if list(candidate) in chosen:
                continue
            overlap = len(path_links(candidate) & chosen_links)
            if best is None or overlap < best_overlap:
                best = list(candidate)
                best_overlap = overlap
        if best is None:
            best = chosen[len(chosen) % len(set(map(tuple, chosen)))]
        chosen.append(best)
        chosen_links |= path_links(best)
    return chosen


def build_path_tree(
    paths: Dict[int, Path],
) -> Dict[int, Dict[int, int]]:
    """Compile per-subscriber paths into next-hop tables.

    Input: ``{subscriber: [publisher, ..., subscriber]}``. Output:
    ``{node: {subscriber: next_hop}}`` — the forwarding table a tree
    strategy consults at each broker.
    """
    table: Dict[int, Dict[int, int]] = {}
    for subscriber, path in paths.items():
        for position in range(len(path) - 1):
            node, next_hop = path[position], path[position + 1]
            table.setdefault(node, {})[subscriber] = next_hop
    return table
